package core

import (
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/sqlscan"
)

// A temporal modification is written once. In period-timestamped
// storage INSERT, UPDATE and DELETE over a period [P1, P2) are the same
// rewrite: take the rows that say something inside the period, retire
// them, and insert again what they said outside it and (UPDATE) what
// they now say inside. A sequenced statement names the period; a current
// one (paper §IV-C, "a regular statement on the current timeslice") is
// the same statement over [CURRENT_DATE, forever). modify builds both,
// for valid-time and bitemporal targets, in conventional SQL either
// slicing strategy can run.

const seqDMLTemp = "taupsm_dml"

// instantIn builds alias.bcol <= at AND at < alias.ecol: the period of
// the row holds the instant.
func instantIn(alias, bcol, ecol string, at sqlast.Expr) sqlast.Expr {
	return andExpr(
		&sqlast.BinaryExpr{Op: "<=", L: col(alias, bcol), R: sqlast.CloneExpr(at)},
		&sqlast.BinaryExpr{Op: "<", L: sqlast.CloneExpr(at), R: col(alias, ecol)})
}

// periodOverlap builds alias.bcol < end AND begin < alias.ecol: the
// period of the row overlaps [begin, end).
func periodOverlap(alias, bcol, ecol string, begin, end sqlast.Expr) sqlast.Expr {
	return andExpr(
		&sqlast.BinaryExpr{Op: "<", L: col(alias, bcol), R: sqlast.CloneExpr(end)},
		&sqlast.BinaryExpr{Op: "<", L: sqlast.CloneExpr(begin), R: col(alias, ecol)})
}

// modification is an INSERT, UPDATE or DELETE as the builder sees it:
// the table it writes, and the one of ins / sets + where it has.
type modification struct {
	verb string
	modTarget
	ins   *sqlast.InsertStmt
	sets  []sqlast.SetClause
	where sqlast.Expr
}

// modTarget is the table a modification writes. Every statement the
// builder emits names it as the statement did — declAlias — and reads
// its rows, staged or stored, under alias (the table's name when none
// was declared), so what the statement's own SET and WHERE say resolves.
type modTarget struct {
	table, declAlias, alias string
	data                    []string // the columns before the period columns; nil when the table is not temporal
	bi                      bool
}

// modificationOf reads stmt, a copy the caller owns (the builder extends
// an INSERT in place), as a modification.
func (tr *Translator) modificationOf(stmt sqlast.Stmt) modification {
	var m modification
	switch s := stmt.(type) {
	case *sqlast.InsertStmt:
		m = modification{verb: "INSERT", ins: s, modTarget: modTarget{table: s.Table}}
	case *sqlast.UpdateStmt:
		m = modification{verb: "UPDATE", sets: s.Sets, where: s.Where, modTarget: modTarget{table: s.Table, declAlias: s.Alias}}
	case *sqlast.DeleteStmt:
		m = modification{verb: "DELETE", where: s.Where, modTarget: modTarget{table: s.Table, declAlias: s.Alias}}
	}
	if m.alias = m.declAlias; m.alias == "" {
		m.alias = m.table
	}
	m.bi = tr.Info.IsBitemporalTable(m.table)
	if tr.Info.IsTemporalTable(m.table) {
		period := 2
		if m.bi {
			period = 4
		}
		if cols := tr.Info.TableColumns(m.table); len(cols) >= period {
			m.data = cols[:len(cols)-period]
		}
	}
	return m
}

func (tr *Translator) sequencedDML(body sqlast.Stmt, begin, end sqlast.Expr, strategy Strategy, dim sqlast.TemporalDimension, ctxBegin, ctxEnd sqlast.Expr) (*Translation, error) {
	pos := sqlast.PosOf(body)
	if dim == sqlast.DimTransaction {
		return nil, refuse(pos, "%w: sequenced transaction-time modifications would rewrite the audit past", ErrTransactionTimeManual)
	}
	if ctxBegin != nil {
		return nil, refuse(pos, "a %s context cannot be combined with a modification; modifications always apply to the current belief", dim.Other().Keyword())
	}
	if err := tr.checkNoManualTransactionDML(body); err != nil {
		return nil, err
	}
	a := tr.analyze(body, dim)
	if err := tr.checkNoInnerModifiers(a); err != nil {
		return nil, err
	}
	if len(a.routines) > 0 {
		return nil, refuse(pos, "sequenced modifications invoking stored routines are not supported")
	}
	// A table carrying only the other dimension is constant over the
	// period: the SET subqueries and an INSERT's source read its current
	// belief, as a sequenced query's do.
	own := sqlast.CloneStmt(body)
	tr.addContextFilters(own, dim, nil, nil)
	m := tr.modificationOf(own)
	if m.data == nil {
		return nil, refuse(pos, "sequenced %s requires a temporal target table, %s is not temporal", m.verb, m.table)
	}
	if err := checkRowLocalWhere(pos, m.where); err != nil {
		return nil, err
	}
	if len(a.temporalTables) > 0 {
		// The builder evaluates WHERE, SET and an INSERT's source once, over
		// the rows it took; that is the answer at every instant only when
		// nothing they read changes during the period.
		return nil, refuse(pos, "sequenced modification reads temporal table %s: its WHERE, SET and INSERT source are evaluated once for the whole period, not at every instant", a.temporalTables[0])
	}
	out := &Translation{Strategy: strategy, Dim: dim, ContextBegin: begin, ContextEnd: end, TemporalTables: a.temporalTables}
	return tr.modify(out, m, begin, end, false)
}

// checkRowLocalWhere rejects WHERE clauses that reference other tables:
// sequenced DML (the statement at pos) supports row-local predicates on
// the target table.
func checkRowLocalWhere(pos sqlscan.Pos, where sqlast.Expr) error {
	bad := false
	sqlast.Walk(where, func(n sqlast.Node) bool {
		switch n.(type) {
		case *sqlast.SubqueryExpr, *sqlast.ExistsExpr:
			bad = true
			return false
		case *sqlast.InExpr:
			if in := n.(*sqlast.InExpr); in.Sub != nil {
				bad = true
			}
		}
		return true
	})
	if bad {
		return refuse(pos, "sequenced modifications support only row-local WHERE predicates on the target table")
	}
	return nil
}

// modify translates the modification m of a temporal table over
// [p1, p2) into out.
//
// A sequenced statement stages the rows it takes — those matching WHERE
// that overlap the period, on a bitemporal target among the current
// beliefs — retires the originals, and inserts from the staged copy what
// each said before p1, what it said from p2 on and (UPDATE) what it now
// says in between.
//
// A current statement is the same over [CURRENT_DATE, forever), taking the
// rows valid today, and needs no staging table. Nothing comes after
// forever; on a valid-time target retiring closes end_time in place, which
// leaves what the row said before today where it is; and the rows inserted
// before the retirement either end today or begin today, so the
// retirement, which selects rows valid today (an UPDATE's: that began
// before today), does not take them.
func (tr *Translator) modify(out *Translation, m modification, p1, p2 sqlast.Expr, current bool) (*Translation, error) {
	if m.ins != nil {
		if !appendPeriod(m.ins, "begin_time", "end_time", p1, p2) {
			if current {
				return nil, refuse(m.ins.Pos, "current INSERT into temporal table %s requires VALUES or SELECT source", m.table)
			}
			return nil, refuse(m.ins.Pos, "sequenced INSERT requires a VALUES or SELECT source")
		}
		if m.bi {
			// The assertion is believed from today on.
			appendPeriod(m.ins, "tt_begin_time", "tt_end_time", currentDate(), foreverLit())
		}
		out.Main = m.ins
		return out, nil
	}
	begin, end := col(m.alias, "begin_time"), col(m.alias, "end_time")
	before := &sqlast.BinaryExpr{Op: "<", L: begin, R: p1}
	var taken sqlast.Expr
	if current {
		taken = andExpr(m.where, instantIn(m.alias, "begin_time", "end_time", p1))
	} else {
		taken = andExpr(m.where, periodOverlap(m.alias, "begin_time", "end_time", p1, p2))
	}
	if m.bi {
		taken = andExpr(taken, instantIn(m.alias, "tt_begin_time", "tt_end_time", currentDate()))
	}

	if current {
		left := andExpr(taken, before)
		if m.sets != nil {
			// ROADMAP 1(c): a row that began today is not taken, so the second UPDATE of a day changes nothing.
			taken = left
			// ROADMAP 1(m): the new version ends at p2, forever, where the row it replaces may end sooner.
			out.Setup = append(out.Setup, m.rows(m.table, m.sets, p1, p2, taken))
		}
		if m.bi {
			out.Setup = append(out.Setup, m.rows(m.table, nil, begin, p1, left))
		}
		retired := m.retire(taken, true)
		out.Setup = append(out.Setup, retired[:len(retired)-1]...)
		out.Main = retired[len(retired)-1]
		return out, nil
	}

	out.Setup = append(out.Setup,
		&sqlast.DropTableStmt{Name: seqDMLTemp, IfExists: true},
		&sqlast.CreateTableStmt{Name: seqDMLTemp, Temporary: true, WithData: true,
			AsQuery: &sqlast.SelectStmt{
				Items: []sqlast.SelectItem{{Star: true}},
				From:  []sqlast.TableRef{&sqlast.BaseTable{Name: m.table, Alias: m.alias}},
				Where: sqlast.CloneExpr(taken),
			}})
	out.Setup = append(out.Setup, m.retire(taken, false)...)
	out.Setup = append(out.Setup,
		m.rows(seqDMLTemp, nil, begin, p1, before),
		m.rows(seqDMLTemp, nil, p2, end, &sqlast.BinaryExpr{Op: ">", L: end, R: p2}))
	if m.sets != nil {
		out.Setup = append(out.Setup, m.rows(seqDMLTemp, m.sets,
			&sqlast.FuncCall{Name: "LAST_INSTANCE", Args: []sqlast.Expr{begin, p1}},
			&sqlast.FuncCall{Name: "FIRST_INSTANCE", Args: []sqlast.Expr{end, p2}}, nil))
	}
	out.Main = &sqlast.DropTableStmt{Name: seqDMLTemp, IfExists: true}
	return out, nil
}

// appendPeriod extends what ins inserts — each VALUES row or the SELECT's
// items, and the column list when there is one — with the period
// [begin, end) in columns (bcol, ecol). It reports whether the source is
// one of the two it can extend.
func appendPeriod(ins *sqlast.InsertStmt, bcol, ecol string, begin, end sqlast.Expr) bool {
	switch src := ins.Source.(type) {
	case *sqlast.ValuesExpr:
		for i := range src.Rows {
			src.Rows[i] = append(src.Rows[i], sqlast.CloneExpr(begin), sqlast.CloneExpr(end))
		}
	case *sqlast.SelectStmt:
		src.Items = append(src.Items,
			sqlast.SelectItem{Expr: sqlast.CloneExpr(begin), Alias: bcol},
			sqlast.SelectItem{Expr: sqlast.CloneExpr(end), Alias: ecol})
	default:
		return false
	}
	if len(ins.Cols) > 0 {
		ins.Cols = append(ins.Cols, bcol, ecol)
	}
	return true
}

// rows builds INSERT INTO target SELECT data…, begin, end FROM src AS
// alias WHERE where: the rows of src — the target itself or its staged
// copy — again, over another period, with sets applied when given. On a
// bitemporal target they are fresh assertions, believed from today on.
func (t *modTarget) rows(src string, sets []sqlast.SetClause, begin, end, where sqlast.Expr) sqlast.Stmt {
	items := make([]sqlast.SelectItem, 0, len(t.data)+4)
	for _, c := range t.data {
		e := col(t.alias, c)
		for _, sc := range sets {
			if strings.EqualFold(sc.Column, c) {
				e = sqlast.CloneExpr(sc.Value)
			}
		}
		items = append(items, sqlast.SelectItem{Expr: e})
	}
	period := []sqlast.Expr{begin, end}
	if t.bi {
		period = append(period, currentDate(), foreverLit())
	}
	for _, e := range period {
		items = append(items, sqlast.SelectItem{Expr: sqlast.CloneExpr(e)})
	}
	return &sqlast.InsertStmt{Table: t.table, Source: &sqlast.SelectStmt{
		Items: items,
		From:  []sqlast.TableRef{&sqlast.BaseTable{Name: src, Alias: t.alias}},
		Where: sqlast.CloneExpr(where),
	}}
}

// retire removes the taken rows from what the table currently says. On
// a valid-time table a sequenced statement deletes them and a current
// one closes their validity today, which keeps what they said before it;
// on a bitemporal table the beliefs asserted today are deleted outright
// (date-granular transaction time never recorded them) and the rest are
// closed today, preserving the audit past.
func (t *modTarget) retire(taken sqlast.Expr, current bool) []sqlast.Stmt {
	closeAt := func(column string) sqlast.Stmt {
		return &sqlast.UpdateStmt{Table: t.table, Alias: t.declAlias,
			Sets:  []sqlast.SetClause{{Column: column, Value: currentDate()}},
			Where: sqlast.CloneExpr(taken)}
	}
	del := func(where sqlast.Expr) sqlast.Stmt {
		return &sqlast.DeleteStmt{Table: t.table, Alias: t.declAlias, Where: where}
	}
	switch {
	case t.bi:
		today := &sqlast.BinaryExpr{Op: "=", L: col(t.alias, "tt_begin_time"), R: currentDate()}
		return []sqlast.Stmt{del(andExpr(sqlast.CloneExpr(taken), today)), closeAt("tt_end_time")}
	case current:
		return []sqlast.Stmt{closeAt("end_time")}
	}
	return []sqlast.Stmt{del(sqlast.CloneExpr(taken))}
}
