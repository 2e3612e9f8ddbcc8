package core

import (
	"fmt"
	"strings"

	"taupsm/internal/sqlast"
)

// Nonsequenced semantics (paper §IV-B): the valid-time timestamps are
// ordinary columns the user manipulates explicitly, so the statement
// itself needs no rewriting. A routine containing temporal statement
// modifiers is only legal here; its inner statements are resolved —
// NONSEQUENCED modifiers are stripped, and inner sequenced (VALIDTIME)
// SELECT statements are rewritten with the standard sequenced-SELECT
// transformation when they do not themselves invoke temporal routines.

// checkNonseqBitemporalDML limits nonsequenced modifications of
// bitemporal tables to top-level INSERT: the transform can append the
// system-maintained transaction-time period there, but cannot rewrite
// UPDATE/DELETE (which must version the audit history — use current or
// sequenced semantics) or statements buried in routine bodies.
func (tr *Translator) checkNonseqBitemporalDML(body sqlast.Stmt) error {
	var err error
	sqlast.Walk(body, func(n sqlast.Node) bool {
		if err != nil {
			return false
		}
		target := dmlTarget(n)
		if target == "" || !tr.Info.IsBitemporalTable(target) {
			return true
		}
		if _, insert := n.(*sqlast.InsertStmt); insert && n == sqlast.Node(body) {
			return true
		}
		err = refuse(sqlast.PosOf(n), "%w: nonsequenced modification of bitemporal table %s: only top-level INSERT is supported; use current or sequenced semantics to version transaction time", ErrTransactionTimeManual, target)
		return false
	})
	return err
}

// appendNonseqTT extends a nonsequenced INSERT into a bitemporal table
// with the system transaction-time period [CURRENT_DATE, forever).
func (tr *Translator) appendNonseqTT(ins *sqlast.InsertStmt) error {
	for _, c := range ins.Cols {
		if strings.EqualFold(c, "tt_begin_time") || strings.EqualFold(c, "tt_end_time") {
			return refuse(ins.Pos, "%w: do not write %s.%s", ErrTransactionTimeManual, ins.Table, c)
		}
	}
	if !appendPeriod(ins, "tt_begin_time", "tt_end_time", currentDate(), foreverLit()) {
		return refuse(ins.Pos, "nonsequenced INSERT into bitemporal table %s requires a VALUES or SELECT source", ins.Table)
	}
	return nil
}

// nonseqRoutines produces the nonseq_ clone of the named routine (and
// transitively of modifier-carrying routines it calls).
func (tr *Translator) nonseqRoutines(a *analysis, name string) ([]sqlast.Stmt, error) {
	def := a.cloneRoutine(name, "nonseq_")
	if err := tr.resolveInnerModifiers(def, a); err != nil {
		return nil, fmt.Errorf("routine %s: %w", name, err)
	}
	renameCalls(def, a, "nonseq_", func(n string) bool { return a.routine(n).b.modifier })
	out := []sqlast.Stmt{def}
	for _, callee := range a.callees(name) {
		if callee.b.modifier {
			more, err := tr.nonseqRoutines(a, callee.name)
			if err != nil {
				return nil, err
			}
			out = append(out, more...)
		}
	}
	return out, nil
}

// resolveInnerModifiers rewrites the TemporalStmt nodes inside a
// routine used in a nonsequenced context, wherever they sit: a block
// statement, the arm of an IF or a loop body, a cursor or FOR query, a
// handler action.
func (tr *Translator) resolveInnerModifiers(def sqlast.Stmt, a *analysis) error {
	var firstErr error
	sqlast.Rewrite(def, func(n sqlast.Node) sqlast.Node {
		ts, ok := n.(*sqlast.TemporalStmt)
		if !ok {
			return n
		}
		if ts.Mod != sqlast.ModSequenced {
			return ts.Body
		}
		sel, ok := ts.Body.(*sqlast.SelectStmt)
		if !ok {
			if firstErr == nil {
				firstErr = refuse(ts.Pos, "inner VALIDTIME on %T is not supported inside routines", ts.Body)
			}
			return ts
		}
		begin, end := defaultContext()
		if ts.Period != nil {
			begin, end = periodBounds(ts.Period)
		}
		counter := 0
		sc := &seqCtx{a: a, pBegin: begin, pEnd: end,
			localTemporal: map[string]bool{}, lateralCounter: &counter}
		err := tr.refuseOuterJoins(sel, sc.dim())
		if err == nil {
			err = tr.rewriteSequencedSelect(sel, sc)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return sel
	})
	return firstErr
}
