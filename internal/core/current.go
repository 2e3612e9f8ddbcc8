package core

import "taupsm/internal/sqlast"

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

// addCurrentPredicates adds the current-timeslice predicate for every
// temporal table in every SELECT under stmt; bitemporal tables are
// additionally restricted to the currently believed versions.
func (tr *Translator) addCurrentPredicates(stmt sqlast.Node) {
	tr.eachTemporalEntry(stmt, func(fe fromEntry) {
		fe.restrict(instantIn(fe.Alias, "begin_time", "end_time", currentDate()))
		if tr.Info.IsBitemporalTable(fe.Name) {
			fe.restrict(instantIn(fe.Alias, "tt_begin_time", "tt_end_time", currentDate()))
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
	a := tr.analyze(body, dimAny)
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

	// Every SELECT the statement holds reads the current timeslice: a
	// query's own, a view's or CREATE TABLE … AS's, and a modification's
	// subqueries and INSERT source, whatever table it writes.
	tr.addCurrentPredicates(main)
	if t := dmlTarget(main); t != "" && tr.Info.IsTemporalTable(t) {
		// A current modification maintains the validity periods: it is the
		// statement over [CURRENT_DATE, forever).
		return tr.modify(out, tr.modificationOf(main), currentDate(), foreverLit(), true)
	}
	out.Main = main
	return out, nil
}
