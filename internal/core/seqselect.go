package core

import (
	"fmt"
	"strings"

	"taupsm/internal/sqlast"
)

// This file implements the sequenced rewrite of a single SELECT over
// period-timestamped operands: the classical SQL/Temporal
// transformation of Figure 4. The result carries begin_time/end_time
// columns computed as the intersection of the operands' periods
// (LAST_INSTANCE of begins, FIRST_INSTANCE of ends), with pairwise
// overlap predicates guaranteeing a non-empty intersection.

// temporalOperand is one FROM-clause element carrying a validity
// period: a temporal base table, a time-varying variable's table, or a
// lateral ps_-function result.
type temporalOperand struct {
	Alias string
	// BeginCol/EndCol name the period columns (begin_time/end_time).
	BeginCol, EndCol string
}

func operandRef(op temporalOperand, begin bool) sqlast.Expr {
	if begin {
		return col(op.Alias, op.BeginCol)
	}
	return col(op.Alias, op.EndCol)
}

// chainInstance folds exprs with FIRST_INSTANCE/LAST_INSTANCE calls.
func chainInstance(fn string, exprs []sqlast.Expr) sqlast.Expr {
	if len(exprs) == 0 {
		return nil
	}
	out := exprs[0]
	for _, e := range exprs[1:] {
		out = &sqlast.FuncCall{Name: fn, Args: []sqlast.Expr{out, e}}
	}
	return out
}

// intersectionBegin builds LAST_INSTANCE(op1.begin, op2.begin, ..., pBegin).
func intersectionBegin(ops []temporalOperand, pBegin sqlast.Expr) sqlast.Expr {
	var exprs []sqlast.Expr
	for _, op := range ops {
		exprs = append(exprs, operandRef(op, true))
	}
	if pBegin != nil {
		exprs = append(exprs, sqlast.CloneExpr(pBegin))
	}
	return chainInstance("LAST_INSTANCE", exprs)
}

// intersectionEnd builds FIRST_INSTANCE(op1.end, op2.end, ..., pEnd).
func intersectionEnd(ops []temporalOperand, pEnd sqlast.Expr) sqlast.Expr {
	var exprs []sqlast.Expr
	for _, op := range ops {
		exprs = append(exprs, operandRef(op, false))
	}
	if pEnd != nil {
		exprs = append(exprs, sqlast.CloneExpr(pEnd))
	}
	return chainInstance("FIRST_INSTANCE", exprs)
}

// overlapConditions builds the pairwise overlap predicates between
// operands plus each operand's overlap with the context [pBegin, pEnd).
func overlapConditions(ops []temporalOperand, pBegin, pEnd sqlast.Expr) sqlast.Expr {
	var cond sqlast.Expr
	for i := 0; i < len(ops); i++ {
		for j := i + 1; j < len(ops); j++ {
			cond = andExpr(cond, &sqlast.BinaryExpr{Op: "<",
				L: operandRef(ops[i], true), R: operandRef(ops[j], false)})
			cond = andExpr(cond, &sqlast.BinaryExpr{Op: "<",
				L: operandRef(ops[j], true), R: operandRef(ops[i], false)})
		}
	}
	for _, op := range ops {
		if pEnd != nil {
			cond = andExpr(cond, &sqlast.BinaryExpr{Op: "<",
				L: operandRef(op, true), R: sqlast.CloneExpr(pEnd)})
		}
		if pBegin != nil {
			cond = andExpr(cond, &sqlast.BinaryExpr{Op: "<",
				L: sqlast.CloneExpr(pBegin), R: operandRef(op, false)})
		}
	}
	return cond
}

// hasTemporalSubquery reports whether any subquery under e references a
// temporal table or temporal routine — constructs per-statement slicing
// cannot handle inside a sequenced SELECT (the paper's "per-statement
// mapping is not complete"; MAX covers them by point evaluation).
func (tr *Translator) hasTemporalSubquery(n sqlast.Node, a *analysis, localTemporal map[string]bool) bool {
	found := false
	var checkQuery func(q sqlast.Node)
	checkQuery = func(q sqlast.Node) {
		sqlast.Walk(q, func(m sqlast.Node) bool {
			switch y := m.(type) {
			case *sqlast.BaseTable:
				if tr.Info.IsTemporalTable(y.Name) || localTemporal[strings.ToLower(y.Name)] {
					found = true
				}
			case *sqlast.FuncCall:
				if a.temporalRoutine(y.Name) {
					found = true
				}
			}
			return !found
		})
	}
	sqlast.Walk(n, func(m sqlast.Node) bool {
		switch x := m.(type) {
		case *sqlast.SubqueryExpr:
			checkQuery(x.Query)
			return false
		case *sqlast.ExistsExpr:
			checkQuery(x.Sub)
			return false
		case *sqlast.DerivedTable:
			checkQuery(x.Query)
			return false
		case *sqlast.InExpr:
			if x.Sub != nil {
				checkQuery(x.Sub)
			}
			return true
		}
		return !found
	})
	return found
}

// seqCtx carries the state of a sequenced (per-statement) query
// rewrite.
type seqCtx struct {
	a            *analysis
	pBegin, pEnd sqlast.Expr
	// ctxBegin/ctxEnd is the explicit secondary-dimension context of a
	// combined bitemporal modifier; nil means the current instant.
	ctxBegin, ctxEnd sqlast.Expr
	localTemporal    map[string]bool // temp tables / tv vars acting as temporal operands
	lateralCounter   *int
}

// dim is the dimension the rewrite slices along (the analysis
// dimension, defaulting to valid time for dimension-blind analyses).
func (sc *seqCtx) dim() sqlast.TemporalDimension {
	if sc.a.dim == dimAny {
		return sqlast.DimValid
	}
	return sc.a.dim
}

// isOperand reports whether a FROM base table participates in the
// period intersection: it must carry the sliced dimension (tables
// carrying only the orthogonal one are context-filtered instead).
func (sc *seqCtx) isOperand(tr *Translator, name string) bool {
	if sc.localTemporal[strings.ToLower(name)] {
		return true
	}
	return tr.Info.IsTemporalTable(name) && tr.carriesDim(name, sc.dim())
}

// operandCols names the period columns a base-table operand is sliced
// on (local temporaries always use the standard pair).
func (sc *seqCtx) operandCols(tr *Translator, name string) (string, string) {
	if sc.localTemporal[strings.ToLower(name)] {
		return "begin_time", "end_time"
	}
	return tr.SlicePeriodCols(name, sc.dim())
}

func (sc *seqCtx) freshAlias() string {
	*sc.lateralCounter++
	return fmt.Sprintf("taupsm_f%d", *sc.lateralCounter)
}

// rewriteSequencedQuery rewrites a query body (in place, on a clone
// owned by the caller) to its sequenced equivalent, each SELECT under
// its own copy of sc. UNION ALL is rewritten branch by branch: the bag
// union of two sequenced results is the sequenced bag union. Every
// other set operator would compare whole (begin_time, end_time, …) rows
// where snapshot semantics compares the rows valid at each instant —
// EXCEPT would never subtract, INTERSECT would match only identical
// periods, UNION would keep snapshot duplicates — so it is not
// transformable, and MAX evaluates it per constant period.
func (tr *Translator) rewriteSequencedQuery(q sqlast.QueryExpr, sc seqCtx) error {
	switch x := q.(type) {
	case *sqlast.SelectStmt:
		sc.localTemporal = map[string]bool{}
		return tr.rewriteSequencedSelect(x, &sc)
	case *sqlast.SetOpExpr:
		if x.Op != "UNION" || !x.All {
			return refuse(sqlast.PosOf(x), "%w: sequenced %s requires constant periods", ErrNotTransformable, x.Op)
		}
		if err := tr.rewriteSequencedQuery(x.L, sc); err != nil {
			return err
		}
		return tr.rewriteSequencedQuery(x.R, sc)
	}
	return refuse(sqlast.PosOf(q), "%w: unsupported query form %T", ErrNotTransformable, q)
}

// rewriteSequencedSelect rewrites sel (in place, on a clone owned by
// the caller) to its sequenced equivalent over [pBegin, pEnd):
//
//  1. every invocation of a temporal routine becomes a lateral
//     TABLE(ps_name(args, pBegin, pEnd)) AS taupsm_fN reference whose
//     taupsm_result column replaces the call;
//  2. begin_time/end_time items computed from the intersection of all
//     temporal operands are prepended to the select list;
//  3. pairwise overlap predicates are added to WHERE.
//
// It returns ErrNotTransformable for constructs per-statement slicing
// cannot express (temporal subqueries, aggregates and DISTINCT over
// temporal data).
func (tr *Translator) rewriteSequencedSelect(sel *sqlast.SelectStmt, sc *seqCtx) error {
	// Reject temporal subqueries and temporal aggregation.
	if tr.hasTemporalSubquery(sel, sc.a, sc.localTemporal) {
		return refuse(sel.Pos, "%w: sequenced subquery over temporal data", ErrNotTransformable)
	}

	// Identify temporal operands already in FROM.
	var ops []temporalOperand
	for _, ref := range sel.From {
		// A routine invoked in the FROM clause (τPSM q19), not inside a
		// JOIN tree: rename to its ps_ form and treat the result as temporal.
		if x, ok := ref.(*sqlast.TableFunc); ok && sc.a.temporalRoutine(x.Call.Name) {
			x.Call.Name = "ps_" + x.Call.Name
			x.Call.Args = append(x.Call.Args, sqlast.CloneExpr(sc.pBegin), sqlast.CloneExpr(sc.pEnd))
			if len(x.Cols) > 0 {
				x.Cols = append(x.Cols, "begin_time", "end_time")
			}
			ops = append(ops, temporalOperand{Alias: x.Alias, BeginCol: "begin_time", EndCol: "end_time"})
		}
		eachEntryOf(ref, &sel.Where, false, func(fe fromEntry) {
			if sc.isOperand(tr, fe.Name) {
				bcol, ecol := sc.operandCols(tr, fe.Name)
				ops = append(ops, temporalOperand{Alias: fe.Alias, BeginCol: bcol, EndCol: ecol})
			}
		})
	}

	// Check aggregate use over temporal data: if the select has
	// aggregates and any temporal operand, PERST cannot slice it.
	hasAgg := hasAggregates(sel)

	// Replace temporal routine invocations with lateral TABLE refs.
	sqlast.MapExprs(sel, func(e sqlast.Expr) sqlast.Expr {
		fc, ok := e.(*sqlast.FuncCall)
		if !ok || !sc.a.temporalRoutine(fc.Name) {
			return e
		}
		alias := sc.freshAlias()
		call := &sqlast.FuncCall{Name: "ps_" + fc.Name, Args: append(fc.Args,
			sqlast.CloneExpr(sc.pBegin), sqlast.CloneExpr(sc.pEnd))}
		sel.From = append(sel.From, &sqlast.TableFunc{Call: call, Alias: alias})
		ops = append(ops, temporalOperand{Alias: alias, BeginCol: "begin_time", EndCol: "end_time"})
		return &sqlast.ColumnRef{Table: alias, Column: "taupsm_result"}
	})
	if hasAgg && len(ops) > 0 {
		return refuse(sel.Pos, "%w: sequenced aggregation requires constant periods", ErrNotTransformable)
	}
	if len(sel.GroupBy) > 0 && len(ops) > 0 {
		return refuse(sel.Pos, "%w: sequenced GROUP BY requires constant periods", ErrNotTransformable)
	}
	if sel.Distinct && len(ops) > 0 {
		// DISTINCT over (begin_time, end_time, …) rows keeps value-equivalent
		// rows whose periods overlap: duplicates in every snapshot they share.
		return refuse(sel.Pos, "%w: sequenced DISTINCT requires constant periods", ErrNotTransformable)
	}

	// Prepend the result period and add overlap predicates.
	begin := intersectionBegin(ops, sc.pBegin)
	end := intersectionEnd(ops, sc.pEnd)
	if begin == nil { // no temporal operands: constant over the context
		begin = sqlast.CloneExpr(sc.pBegin)
		end = sqlast.CloneExpr(sc.pEnd)
	}
	sel.Items = append([]sqlast.SelectItem{
		{Expr: begin, Alias: "begin_time"},
		{Expr: end, Alias: "end_time"},
	}, sel.Items...)
	if cond := overlapConditions(ops, sc.pBegin, sc.pEnd); cond != nil {
		sel.Where = andExpr(sel.Where, cond)
	}
	// Tables carrying the orthogonal dimension are pinned to the
	// secondary-dimension context (the current instant by default).
	tr.addContextFilters(sel, sc.dim(), sc.ctxBegin, sc.ctxEnd)
	return nil
}
