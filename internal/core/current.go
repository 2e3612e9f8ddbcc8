package core

import (
	"strings"

	"taupsm/internal/sqlast"
)

// Current semantics (paper §IV-C): the statement behaves as a regular
// statement on the current timeslice. The transform adds
//
//	t.begin_time <= CURRENT_DATE AND CURRENT_DATE < t.end_time
//
// to every WHERE clause whose FROM mentions a temporal table (to the ON
// of a LEFT JOIN for a table on its null-supplying side, so the legacy
// query keeps its NULL-extended rows) — in the statement itself and in
// curr_-prefixed clones of every reachable temporal routine. Current
// modifications maintain validity periods.

func currentDate() sqlast.Expr { return &sqlast.FuncCall{Name: "CURRENT_DATE"} }

func foreverLit() sqlast.Expr {
	_, e := defaultContext()
	return e
}

// currentOverlap builds alias.begin_time <= CURRENT_DATE AND
// CURRENT_DATE < alias.end_time.
func currentOverlap(alias string) sqlast.Expr {
	return andExpr(
		&sqlast.BinaryExpr{Op: "<=", L: col(alias, "begin_time"), R: currentDate()},
		&sqlast.BinaryExpr{Op: "<", L: currentDate(), R: col(alias, "end_time")},
	)
}

// ttCurrentOverlap builds the current-belief predicate on a bitemporal
// table's transaction-time pair.
func ttCurrentOverlap(alias string) sqlast.Expr {
	return ctxFilter(alias, "tt_begin_time", "tt_end_time", nil, nil)
}

// addCurrentPredicates adds the current-timeslice predicate for every
// temporal table in every SELECT under stmt; bitemporal tables are
// additionally restricted to the currently believed versions.
func (tr *Translator) addCurrentPredicates(stmt sqlast.Node) {
	tr.eachTemporalEntry(stmt, func(fe fromEntry) {
		fe.restrict(currentOverlap(fe.Alias))
		if tr.Info.IsBitemporalTable(fe.Name) {
			fe.restrict(ttCurrentOverlap(fe.Alias))
		}
	})
}

func (tr *Translator) translateCurrent(body sqlast.Stmt) (*Translation, error) {
	switch body.(type) {
	case *sqlast.CreateFunctionStmt, *sqlast.CreateProcedureStmt,
		*sqlast.DropTableStmt, *sqlast.DropViewStmt, *sqlast.DropRoutineStmt,
		*sqlast.AlterAddValidTime:
		// Definitions are stored as written — the invocation context
		// determines routine semantics later (§IV-A) — and schema
		// statements pass through.
		return &Translation{Main: sqlast.CloneStmt(body)}, nil
	}
	a, err := tr.analyze(body)
	if err != nil {
		return nil, err
	}
	if err := tr.checkNoInnerModifiers(a); err != nil {
		return nil, err
	}
	out := &Translation{Strategy: StrategyAuto, TemporalTables: a.temporalTables}

	// curr_ clones for every reachable temporal routine; non-temporal
	// routines are used unchanged (the compile-time optimization).
	for _, rn := range a.routines {
		if !a.temporalRoutine(rn) {
			continue
		}
		def := a.cloneRoutine(rn, "curr_")
		tr.addCurrentPredicates(def)
		renameCalls(def, a, "curr_", a.temporalRoutine)
		out.Routines = append(out.Routines, def)
	}

	main := sqlast.CloneStmt(body)
	renameCalls(main, a, "curr_", a.temporalRoutine)

	switch m := main.(type) {
	case *sqlast.InsertStmt:
		return tr.currentInsert(out, m)
	case *sqlast.UpdateStmt:
		return tr.currentUpdate(out, m)
	case *sqlast.DeleteStmt:
		return tr.currentDelete(out, m)
	}
	// Queries, blocks, calls, views, CREATE TABLE … AS: every SELECT they
	// hold reads the current timeslice.
	tr.addCurrentPredicates(main)
	out.Main = main
	return out, nil
}

// currentInsert extends inserted rows with [CURRENT_DATE, forever) —
// once per period pair on bitemporal tables.
func (tr *Translator) currentInsert(out *Translation, ins *sqlast.InsertStmt) (*Translation, error) {
	if !tr.Info.IsTemporalTable(ins.Table) {
		tr.addCurrentPredicates(ins)
		out.Main = ins
		return out, nil
	}
	pairs := 1
	if tr.Info.IsBitemporalTable(ins.Table) {
		pairs = 2
	}
	if len(ins.Cols) > 0 {
		ins.Cols = append(ins.Cols, "begin_time", "end_time")
		if pairs == 2 {
			ins.Cols = append(ins.Cols, "tt_begin_time", "tt_end_time")
		}
	}
	switch src := ins.Source.(type) {
	case *sqlast.ValuesExpr:
		for i := range src.Rows {
			for p := 0; p < pairs; p++ {
				src.Rows[i] = append(src.Rows[i], currentDate(), foreverLit())
			}
		}
	case *sqlast.SelectStmt:
		tr.addCurrentPredicates(src)
		src.Items = append(src.Items,
			sqlast.SelectItem{Expr: currentDate(), Alias: "begin_time"},
			sqlast.SelectItem{Expr: foreverLit(), Alias: "end_time"})
		if pairs == 2 {
			src.Items = append(src.Items,
				sqlast.SelectItem{Expr: currentDate(), Alias: "tt_begin_time"},
				sqlast.SelectItem{Expr: foreverLit(), Alias: "tt_end_time"})
		}
	default:
		return nil, refuse(ins.Pos, "current INSERT into temporal table %s requires VALUES or SELECT source", ins.Table)
	}
	out.Main = ins
	return out, nil
}

// currentDelete closes the validity of currently valid matching rows:
// logical deletion preserves history.
func (tr *Translator) currentDelete(out *Translation, del *sqlast.DeleteStmt) (*Translation, error) {
	if !tr.Info.IsTemporalTable(del.Table) {
		tr.addCurrentPredicates(del)
		out.Main = del
		return out, nil
	}
	alias := del.Alias
	if alias == "" {
		alias = del.Table
	}
	if tr.Info.IsBitemporalTable(del.Table) {
		return tr.bitemporalCurrentDelete(out, del, alias)
	}
	where := andExpr(del.Where, currentOverlap(alias))
	out.Main = &sqlast.UpdateStmt{
		Table: del.Table, Alias: del.Alias,
		Sets:  []sqlast.SetClause{{Column: "end_time", Value: currentDate()}},
		Where: where,
	}
	return out, nil
}

// bitemporalCurrentDelete versions the belief instead of editing it:
// the still-valid past of each affected row is re-asserted with its
// validity clipped to [begin_time, CURRENT_DATE), same-day assertions
// vanish outright, and every other affected belief is closed at
// CURRENT_DATE. The audit history keeps what was believed before the
// deletion.
func (tr *Translator) bitemporalCurrentDelete(out *Translation, del *sqlast.DeleteStmt, alias string) (*Translation, error) {
	cols := tr.Info.TableColumns(del.Table)
	if cols == nil {
		return nil, refuse(del.Pos, "unknown temporal table %s", del.Table)
	}
	dataCols := cols[:len(cols)-4]
	affected := andExpr(andExpr(sqlast.CloneExpr(del.Where), currentOverlap(alias)), ttCurrentOverlap(alias))

	// 1. Re-assert the surviving past with validity clipped at today.
	items := make([]sqlast.SelectItem, 0, len(cols))
	for _, c := range dataCols {
		items = append(items, sqlast.SelectItem{Expr: col(alias, c)})
	}
	items = append(items,
		sqlast.SelectItem{Expr: col(alias, "begin_time")},
		sqlast.SelectItem{Expr: currentDate()},
		sqlast.SelectItem{Expr: currentDate()},
		sqlast.SelectItem{Expr: foreverLit()})
	clip := &sqlast.InsertStmt{Table: del.Table, Source: &sqlast.SelectStmt{
		Items: items,
		From:  []sqlast.TableRef{&sqlast.BaseTable{Name: del.Table, Alias: alias}},
		Where: andExpr(sqlast.CloneExpr(affected),
			&sqlast.BinaryExpr{Op: "<", L: col(alias, "begin_time"), R: currentDate()}),
	}}
	// 2. Beliefs asserted today never existed as far as audit goes.
	vacuous := &sqlast.DeleteStmt{Table: del.Table, Alias: del.Alias,
		Where: andExpr(sqlast.CloneExpr(affected),
			&sqlast.BinaryExpr{Op: "=", L: col(alias, "tt_begin_time"), R: currentDate()})}
	// 3. Close the remaining affected beliefs.
	out.Setup = append(out.Setup, clip, vacuous)
	out.Main = &sqlast.UpdateStmt{
		Table: del.Table, Alias: del.Alias,
		Sets:  []sqlast.SetClause{{Column: "tt_end_time", Value: currentDate()}},
		Where: affected,
	}
	return out, nil
}

// currentUpdate inserts new versions valid from CURRENT_DATE and closes
// the old ones.
func (tr *Translator) currentUpdate(out *Translation, upd *sqlast.UpdateStmt) (*Translation, error) {
	if !tr.Info.IsTemporalTable(upd.Table) {
		tr.addCurrentPredicates(upd)
		out.Main = upd
		return out, nil
	}
	cols := tr.Info.TableColumns(upd.Table)
	if cols == nil {
		return nil, refuse(upd.Pos, "unknown temporal table %s", upd.Table)
	}
	alias := upd.Alias
	if alias == "" {
		alias = upd.Table
	}
	if tr.Info.IsBitemporalTable(upd.Table) {
		return tr.bitemporalCurrentUpdate(out, upd, cols, alias)
	}
	// Guard excludes rows inserted today so the close step doesn't
	// immediately terminate the new versions.
	guard := &sqlast.BinaryExpr{Op: "<", L: col(alias, "begin_time"), R: currentDate()}
	where := andExpr(andExpr(sqlast.CloneExpr(upd.Where), currentOverlap(alias)), guard)

	// 1. INSERT new versions built from the old rows with SET applied.
	items := make([]sqlast.SelectItem, 0, len(cols))
	for _, c := range cols[:len(cols)-2] { // data columns
		var e sqlast.Expr = col(alias, c)
		for _, sc := range upd.Sets {
			if strings.EqualFold(sc.Column, c) {
				e = sqlast.CloneExpr(sc.Value)
			}
		}
		items = append(items, sqlast.SelectItem{Expr: e})
	}
	items = append(items,
		sqlast.SelectItem{Expr: currentDate()},
		sqlast.SelectItem{Expr: foreverLit()})
	insert := &sqlast.InsertStmt{Table: upd.Table, Source: &sqlast.SelectStmt{
		Items: items,
		From:  []sqlast.TableRef{&sqlast.BaseTable{Name: upd.Table, Alias: alias}},
		Where: sqlast.CloneExpr(where),
	}}

	// 2. Close the old versions.
	closeOld := &sqlast.UpdateStmt{
		Table: upd.Table, Alias: upd.Alias,
		Sets:  []sqlast.SetClause{{Column: "end_time", Value: currentDate()}},
		Where: where,
	}
	out.Setup = append(out.Setup, insert)
	out.Main = closeOld
	return out, nil
}

// bitemporalCurrentUpdate is the versioning form of currentUpdate: new
// versions valid from CURRENT_DATE are asserted, the still-valid past
// is re-asserted clipped at CURRENT_DATE, and the superseded beliefs
// are closed (or, if asserted today, removed outright) — the old
// versions remain queryable through the audit history.
func (tr *Translator) bitemporalCurrentUpdate(out *Translation, upd *sqlast.UpdateStmt, cols []string, alias string) (*Translation, error) {
	dataCols := cols[:len(cols)-4]
	guard := &sqlast.BinaryExpr{Op: "<", L: col(alias, "begin_time"), R: currentDate()}
	where := andExpr(andExpr(andExpr(sqlast.CloneExpr(upd.Where), currentOverlap(alias)),
		ttCurrentOverlap(alias)), guard)

	from := func() []sqlast.TableRef {
		return []sqlast.TableRef{&sqlast.BaseTable{Name: upd.Table, Alias: alias}}
	}
	// 1. Assert the new versions, valid from today, believed from today.
	newItems := make([]sqlast.SelectItem, 0, len(cols))
	for _, c := range dataCols {
		var e sqlast.Expr = col(alias, c)
		for _, sc := range upd.Sets {
			if strings.EqualFold(sc.Column, c) {
				e = sqlast.CloneExpr(sc.Value)
			}
		}
		newItems = append(newItems, sqlast.SelectItem{Expr: e})
	}
	newItems = append(newItems,
		sqlast.SelectItem{Expr: currentDate()},
		sqlast.SelectItem{Expr: foreverLit()},
		sqlast.SelectItem{Expr: currentDate()},
		sqlast.SelectItem{Expr: foreverLit()})
	insertNew := &sqlast.InsertStmt{Table: upd.Table, Source: &sqlast.SelectStmt{
		Items: newItems, From: from(), Where: sqlast.CloneExpr(where),
	}}

	// 2. Re-assert the unchanged past, clipped to [begin_time, today).
	oldItems := make([]sqlast.SelectItem, 0, len(cols))
	for _, c := range dataCols {
		oldItems = append(oldItems, sqlast.SelectItem{Expr: col(alias, c)})
	}
	oldItems = append(oldItems,
		sqlast.SelectItem{Expr: col(alias, "begin_time")},
		sqlast.SelectItem{Expr: currentDate()},
		sqlast.SelectItem{Expr: currentDate()},
		sqlast.SelectItem{Expr: foreverLit()})
	insertOld := &sqlast.InsertStmt{Table: upd.Table, Source: &sqlast.SelectStmt{
		Items: oldItems, From: from(), Where: sqlast.CloneExpr(where),
	}}

	// 3. Same-day assertions vanish; 4. everything else is closed.
	vacuous := &sqlast.DeleteStmt{Table: upd.Table, Alias: upd.Alias,
		Where: andExpr(sqlast.CloneExpr(where),
			&sqlast.BinaryExpr{Op: "=", L: col(alias, "tt_begin_time"), R: currentDate()})}
	out.Setup = append(out.Setup, insertNew, insertOld, vacuous)
	out.Main = &sqlast.UpdateStmt{
		Table: upd.Table, Alias: upd.Alias,
		Sets:  []sqlast.SetClause{{Column: "tt_end_time", Value: currentDate()}},
		Where: where,
	}
	return out, nil
}
