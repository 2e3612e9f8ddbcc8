package check

import (
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/sqlscan"
)

// Temporal applicability lint: a static mirror of the stratum's
// reachability analysis (internal/core/analyze.go) and of the
// per-statement slicing preconditions, so misapplied modifiers are
// reported before translation instead of failing (or silently falling
// back) at run time.

// closure is the reachable table/routine set of one statement.
type closure struct {
	tables   []string // reachable base tables, first-seen order
	routines []string // reachable, defined routines, first-seen order
	bodies   map[string]sqlast.Stmt
	modifier map[string]bool // routine contains a temporal modifier
}

// buildClosure mirrors analyzeDim's BFS over the call graph. Unknown
// callees are skipped here — the scope pass reports them as TAU006.
func (c *checker) buildClosure(stmt sqlast.Stmt) *closure {
	cl := &closure{bodies: map[string]sqlast.Stmt{}, modifier: map[string]bool{}}
	seenT := map[string]bool{}
	seenR := map[string]bool{}
	var queue []string

	collect := func(n sqlast.Node) {
		sqlast.Walk(n, func(m sqlast.Node) bool {
			switch x := m.(type) {
			case *sqlast.BaseTable:
				k := fold(x.Name)
				if !seenT[k] && (c.cat.IsTable(x.Name) || c.cat.IsView(x.Name)) {
					seenT[k] = true
					cl.tables = append(cl.tables, x.Name)
				}
			case *sqlast.FuncCall:
				queue = append(queue, x.Name)
			case *sqlast.CallStmt:
				queue = append(queue, x.Name)
			}
			return true
		})
	}
	collect(stmt)
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		k := fold(name)
		if seenR[k] {
			continue
		}
		seenR[k] = true
		body := routineBody(c.cat, name)
		if body == nil {
			continue
		}
		cl.routines = append(cl.routines, name)
		cl.bodies[k] = body
		sqlast.Walk(body, func(m sqlast.Node) bool {
			if ts, ok := m.(*sqlast.TemporalStmt); ok && ts.Mod != sqlast.ModCurrent {
				cl.modifier[k] = true
			}
			return true
		})
		collect(body)
	}
	return cl
}

func (c *checker) dimOf(table string) sqlast.TemporalDimension {
	if c.cat.IsTransactionTable(table) {
		return sqlast.DimTransaction
	}
	return sqlast.DimValid
}

// carriesDim mirrors core's carriesDim: bitemporal tables carry both
// dimensions; single-dimension tables carry only their own.
func (c *checker) carriesDim(table string, d sqlast.TemporalDimension) bool {
	if c.cat.IsBitemporalTable(table) {
		return true
	}
	return c.dimOf(table) == d
}

// temporalStmt lints one modifier-wrapped top-level statement.
func (c *checker) temporalStmt(ts *sqlast.TemporalStmt) {
	if ts.Mod == sqlast.ModCurrent {
		return
	}
	cl := c.buildClosure(ts.Body)

	var reached, mismatched []string
	for _, t := range cl.tables {
		if !c.cat.IsTemporalTable(t) {
			continue
		}
		if c.carriesDim(t, ts.Dim) {
			reached = append(reached, t)
		} else {
			mismatched = append(mismatched, t)
		}
	}

	if ts.Mod == sqlast.ModSequenced && len(mismatched) > 0 && ts.Ctx == nil {
		c.addHint(CodeMixedDimensions, Warning, ts.Pos,
			"add AND "+ts.Dim.Other().Keyword()+" (...) to the modifier to pick a different context",
			"statement slices %s but also reaches %s-only table(s) %s; they are filtered to the current %s context",
			ts.Dim.Keyword(), ts.Dim.Other().Keyword(), strings.Join(mismatched, ", "),
			ts.Dim.Other().Keyword())
	}
	if len(reached) == 0 && len(mismatched) == 0 && len(cl.tables) > 0 {
		c.addHint(CodeNoTemporalTable, Warning, ts.Pos,
			"drop the modifier, or add temporal support with ALTER TABLE ... ADD "+ts.Dim.Keyword(),
			"%s modifier has no effect: no %s table is reachable from this statement",
			ts.Mod, ts.Dim.Keyword())
	}

	// A reachable routine containing a temporal modifier is rejected in
	// every context except nonsequenced (§IV-A).
	if ts.Mod != sqlast.ModNonsequenced {
		for _, r := range cl.routines {
			if cl.modifier[fold(r)] {
				c.add(CodeModifierInBody, Error, ts.Pos,
					"routine %s: a routine containing a temporal statement modifier may only be invoked from a nonsequenced context", r)
			}
		}
	}

	// Transaction time is system-maintained; only current modifications
	// may write those tables, and slicing it for DML would rewrite the
	// audit past.
	if ts.Mod == sqlast.ModSequenced && ts.Dim == sqlast.DimTransaction {
		switch ts.Body.(type) {
		case *sqlast.InsertStmt, *sqlast.UpdateStmt, *sqlast.DeleteStmt:
			c.add(CodeManualTransTime, Error, ts.Pos,
				"sequenced transaction-time modifications would rewrite the audit past; transaction time is append-only")
		}
	}
	c.manualTransactionDML(ts.Body, ts.Mod)
	c.timeColumnWrites(ts.Body, ts.Mod)

	// Predict per-statement slicing fallbacks for sequenced statements.
	if ts.Mod == sqlast.ModSequenced && ts.Dim == sqlast.DimValid {
		if op := snapshotSetOp(ts.Body); op != "" && len(reached) > 0 {
			c.emitHazard(hazard{ts.Pos, "sequenced " + op + " requires constant periods"})
		}
		for _, h := range c.perstHazards(ts.Body) {
			c.emitHazard(h)
		}
		for _, r := range cl.routines {
			for _, h := range c.perstHazards(cl.bodies[fold(r)]) {
				c.emitHazard(h)
			}
		}
	}
}

// manualTransactionDML mirrors core's checkNoManualTransactionDML and
// checkNonseqBitemporalDML. Transaction-time-only tables reject every
// modifier-wrapped modification; bitemporal tables accept sequenced and
// current valid-time DML (the stratum versions transaction time), and
// under NONSEQUENCED only a top-level INSERT.
func (c *checker) manualTransactionDML(body sqlast.Stmt, mod sqlast.TemporalModifier) {
	sqlast.Walk(body, func(n sqlast.Node) bool {
		var target string
		var pos sqlscan.Pos
		insert := false
		switch x := n.(type) {
		case *sqlast.InsertStmt:
			if !x.VarTarget {
				target, pos = x.Table, x.Pos
				insert = true
			}
		case *sqlast.UpdateStmt:
			if !x.VarTarget {
				target, pos = x.Table, x.Pos
			}
		case *sqlast.DeleteStmt:
			if !x.VarTarget {
				target, pos = x.Table, x.Pos
			}
		}
		if target == "" || !c.cat.IsTransactionTable(target) {
			return true
		}
		if c.cat.IsBitemporalTable(target) {
			if mod == sqlast.ModNonsequenced && !(insert && n == sqlast.Node(body)) {
				c.add(CodeManualTransTime, Error, pos,
					"nonsequenced modification of bitemporal table %s: only top-level INSERT is supported", target)
				return false
			}
			return true
		}
		c.add(CodeManualTransTime, Error, pos,
			"transaction time of table %s is system-maintained; only current modifications are allowed", target)
		return false
	})
}

// timeColumnWrites flags explicit UPDATE assignments to the period
// columns of a temporal table outside NONSEQUENCED statements, where
// the stratum maintains them (a TUC hazard: the write is either
// overwritten or corrupts period invariants).
func (c *checker) timeColumnWrites(body sqlast.Stmt, mod sqlast.TemporalModifier) {
	if mod == sqlast.ModNonsequenced {
		return
	}
	sqlast.Walk(body, func(n sqlast.Node) bool {
		up, ok := n.(*sqlast.UpdateStmt)
		if !ok || up.VarTarget || !c.cat.IsTemporalTable(up.Table) {
			return true
		}
		for _, set := range up.Sets {
			lc := fold(set.Column)
			if lc == "begin_time" || lc == "end_time" || lc == "tt_begin_time" || lc == "tt_end_time" {
				c.addHint(CodeTimeColumnWrite, Warning, set.Pos,
					"use a NONSEQUENCED VALIDTIME statement for explicit period surgery",
					"explicit write to system-maintained period column %s.%s", up.Table, set.Column)
			}
		}
		return true
	})
}

// hazard is one construct per-statement slicing cannot transform.
type hazard struct {
	pos sqlscan.Pos
	msg string
}

func (c *checker) emitHazard(h hazard) {
	c.add(CodePerstFallback, Warning, h.pos,
		"per-statement slicing will not apply (sequenced invocations fall back to MAX): %s", h.msg)
}

// perstHazards statically detects the ErrNotTransformable constructs
// of the per-statement transform (internal/core/perst_stmts.go) that
// depend only on shape and schema: temporal cursors over non-plain
// SELECTs, temporal FOR loops over non-plain SELECTs, and q17b's
// non-nested FETCH of a temporal cursor inside per-period iteration.
func (c *checker) perstHazards(body sqlast.Stmt) []hazard {
	var out []hazard
	cursors := map[string]sqlast.Stmt{}
	var scanList func(list []sqlast.Stmt, inTemporalFor bool)
	var scan func(s sqlast.Stmt, inTemporalFor bool)
	scan = func(s sqlast.Stmt, inTemporalFor bool) {
		switch x := s.(type) {
		case nil:
		case *sqlast.CompoundStmt:
			for _, cd := range x.Cursors {
				cursors[fold(cd.Name)] = cd.Query
				if c.queryTemporal(cd.Query) {
					if _, plain := unwrapTemporal(cd.Query).(*sqlast.SelectStmt); !plain {
						out = append(out, hazard{cd.Pos,
							"temporal cursor " + cd.Name + " requires a plain SELECT"})
					}
				}
			}
			for _, h := range x.Handlers {
				scan(h.Action, inTemporalFor)
			}
			scanList(x.Stmts, inTemporalFor)
		case *sqlast.IfStmt:
			scanList(x.Then, inTemporalFor)
			for _, ei := range x.ElseIfs {
				scanList(ei.Then, inTemporalFor)
			}
			scanList(x.Else, inTemporalFor)
		case *sqlast.CaseStmt:
			for _, w := range x.Whens {
				scanList(w.Then, inTemporalFor)
			}
			scanList(x.Else, inTemporalFor)
		case *sqlast.WhileStmt:
			scanList(x.Body, inTemporalFor)
		case *sqlast.RepeatStmt:
			scanList(x.Body, inTemporalFor)
		case *sqlast.LoopStmt:
			scanList(x.Body, inTemporalFor)
		case *sqlast.ForStmt:
			temporal := c.queryTemporal(x.Query)
			if temporal {
				if _, plain := unwrapTemporal(x.Query).(*sqlast.SelectStmt); !plain {
					out = append(out, hazard{x.Pos, "temporal FOR loop requires a plain SELECT"})
				}
			}
			scanList(x.Body, inTemporalFor || temporal)
		case *sqlast.FetchStmt:
			if inTemporalFor {
				if q, ok := cursors[fold(x.Cursor)]; ok && c.queryTemporal(q) {
					out = append(out, hazard{x.Pos,
						"non-nested FETCH of cursor " + x.Cursor + " inside per-period iteration"})
				}
			}
		}
	}
	scanList = func(list []sqlast.Stmt, inTemporalFor bool) {
		for _, s := range list {
			scan(s, inTemporalFor)
		}
	}
	scan(body, false)
	return out
}

// snapshotSetOp returns the first set operator in a query body's tree
// of set operations that per-statement slicing rejects — every one but
// UNION ALL (core.rewriteSequencedQuery) — or "" when there is none.
func snapshotSetOp(q sqlast.Node) string {
	so, ok := q.(*sqlast.SetOpExpr)
	if !ok {
		return ""
	}
	if so.Op != "UNION" || !so.All {
		return so.Op
	}
	if op := snapshotSetOp(so.L); op != "" {
		return op
	}
	return snapshotSetOp(so.R)
}

func unwrapTemporal(s sqlast.Stmt) sqlast.Stmt {
	if ts, ok := s.(*sqlast.TemporalStmt); ok {
		return ts.Body
	}
	return s
}

// queryTemporal reports whether a query references a temporal table
// directly.
func (c *checker) queryTemporal(q sqlast.Stmt) bool {
	found := false
	sqlast.Walk(q, func(n sqlast.Node) bool {
		if bt, ok := n.(*sqlast.BaseTable); ok && c.cat.IsTemporalTable(bt.Name) {
			found = true
		}
		return !found
	})
	return found
}

// routineTemporal emits CREATE-time temporal lint for one routine
// definition: predicted per-statement slicing fallbacks. (Modifiers
// inside the body are reported by the statement walker as TAU023.)
func (c *checker) routineTemporal(body sqlast.Stmt) {
	for _, h := range c.perstHazards(body) {
		c.emitHazard(h)
	}
}
