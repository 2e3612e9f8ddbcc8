package engine

import (
	"fmt"
	"slices"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// The materialising evaluator the pipeline (pipeline.go) replaced, kept
// verbatim as the oracle's reference: every operator — scan, join,
// filter, lateral, project, group — builds a whole relation for the next.
// It runs the plans the program builds (selPlan: conjunct placement,
// access paths, join partitions, compiled expressions) and shares with
// the program only what both read: rel, allTrue, hashIndexFor,
// tableFuncRows, orderKeys, finishRows, the set operators. Sources are
// always loaded by scanning (the reference session is a LoadAfresh one);
// the queries nested in FROM (views, derived tables, set operands) are
// evaluated by the reference too, those nested in expressions by the
// program, as the expression walker of eval_reference_test.go does.

// refEvalQuery evaluates a query body with the reference evaluator, under
// the row-count hint of an EXISTS or scalar subquery (0 = unlimited).
func (db *DB) refEvalQuery(ctx *execCtx, q sqlast.QueryExpr, limitHint int) (*Result, error) {
	switch x := q.(type) {
	case *sqlast.SelectStmt:
		return db.refEvalSelect(ctx, x, limitHint)
	case *sqlast.SetOpExpr:
		return db.refEvalSetOp(ctx, x)
	}
	return db.evalQuery(ctx, q)
}

// refEvalSetOp evaluates both operands by reference and combines them
// with the program's set operator, handed the finished operands.
func (db *DB) refEvalSetOp(ctx *execCtx, so *sqlast.SetOpExpr) (*Result, error) {
	l, err := db.refEvalQuery(ctx, so.L, 0)
	if err != nil {
		return nil, err
	}
	r, err := db.refEvalQuery(ctx, so.R, 0)
	if err != nil {
		return nil, err
	}
	return db.refCombine(so, l, r)
}

func (db *DB) refEvalSelect(ctx *execCtx, sel *sqlast.SelectStmt, limitHint int) (*Result, error) {
	// FROM-less SELECT evaluates items once in the current scope.
	if len(sel.From) == 0 {
		res := &Result{}
		var row []types.Value
		for i, it := range sel.Items {
			if it.Star || it.TableStar != "" {
				return nil, fmt.Errorf("SELECT * requires a FROM clause")
			}
			v, err := db.rootExpr(ctx, it.Expr)(ctx)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			res.Cols = append(res.Cols, storage.ItemName(it, i))
		}
		if sel.Where != nil {
			t, err := db.rootCond(ctx, sel.Where)(ctx)
			if err != nil {
				return nil, err
			}
			if t != types.True {
				return res, nil
			}
		}
		res.Rows = append(res.Rows, row)
		return res, nil
	}

	// Everything that is a pure function of the statement and the
	// schema comes from the shared plan cache (built on miss); what
	// follows only executes it.
	p, err := db.selPlanFor(ctx, sel)
	if err != nil {
		return nil, err
	}
	defer db.popActs(db.acts.n)
	lctx := db.enter(ctx, p.metas)

	// Sequential join.
	var acc *rel
	for i, fp := range p.from {
		if _, ok := fp.ref.(*sqlast.TableFunc); ok {
			if acc, err = db.refLateral(lctx, acc, fp); err != nil {
				return nil, err
			}
			continue
		}
		loaded, err := db.refLoadSource(lctx, fp)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			acc = loaded
			continue
		}
		if acc, err = db.refJoinRels(lctx, acc, loaded, fp.join, false); err != nil {
			return nil, err
		}
	}
	if acc, err = db.refFilter(lctx, acc, p.residual); err != nil {
		return nil, err
	}

	var res *Result
	var keys [][]types.Value
	if len(p.groupBy) > 0 || len(p.aggs) > 0 {
		res, keys, err = db.refEvalGrouped(lctx, p, acc)
	} else {
		if len(p.order) > 0 || sel.Distinct {
			limitHint = 0 // every row takes part in ordering and deduplication
		}
		res, keys, err = db.refProject(lctx, p, acc, limitHint)
	}
	if err != nil {
		return nil, err
	}
	return db.refFinish(ctx, sel, res, keys)
}

// refFinish finishes the reference's projected rows with the program's
// finishRows, through the row stack.
func (db *DB) refFinish(ctx *execCtx, sel *sqlast.SelectStmt, res *Result, keys [][]types.Value) (*Result, error) {
	start := len(db.rowBuf)
	defer db.popRows(start)
	db.rowBuf = append(db.rowBuf, res.Rows...)
	if err := db.finishRows(ctx, sel, start, keys); err != nil {
		return nil, err
	}
	res.Rows = slices.Clone(db.rowBuf[start:])
	return res, nil
}

// lateral extends every row of acc with the rows a table function
// returns for it, keeping the combinations fp.push accepts.
func (db *DB) refLateral(ctx *execCtx, acc *rel, fp *fromPlan) (*rel, error) {
	if acc == nil {
		acc = &rel{n: 1} // first in FROM: it extends one row of no entries
	}
	sc := ctx.scope
	next := newRel(acc.base, len(acc.ents)+1)
	for i := 0; i < acc.n; i++ {
		sc.bind(acc, i)
		rows, err := db.tableFuncRows(ctx, fp)
		if err != nil {
			return nil, err
		}
		for _, frow := range rows {
			sc.rows[fp.base] = frow
			ok, err := db.allTrue(ctx, fp.push, -1)
			if err != nil {
				return nil, err
			}
			if ok {
				next.add(sc)
			}
		}
		sc.rows[fp.base] = nil
	}
	sc.unbind(next)
	return next, nil
}

// project evaluates the select list per row. The result's rows are in
// input order; keys holds each row's ORDER BY sort keys when the SELECT
// orders. stopAt > 0 ends the scan once that many rows exist (EXISTS
// and scalar subqueries need no more).
func (db *DB) refProject(ctx *execCtx, p *selPlan, acc *rel, stopAt int) (*Result, [][]types.Value, error) {
	n := acc.n
	if stopAt > 0 && stopAt < n {
		n = stopAt
	}
	res := &Result{Cols: p.cols, Rows: make([][]types.Value, 0, n)}
	var keys [][]types.Value
	for i := 0; i < n; i++ {
		ctx.scope.bind(acc, i)
		vals := make([]types.Value, 0, len(p.cols))
		for _, it := range p.items {
			if it.expr == nil {
				for _, e := range it.ents {
					vals = append(vals, ctx.scope.rows[e]...)
				}
				continue
			}
			v, err := it.expr(ctx)
			if err != nil {
				return nil, nil, err
			}
			vals = append(vals, v)
		}
		res.Rows = append(res.Rows, vals)
		if len(p.order) > 0 {
			k, err := db.orderKeys(ctx, p, vals)
			if err != nil {
				return nil, nil, err
			}
			keys = append(keys, k)
		}
	}
	return res, keys, nil
}

// evalGrouped implements GROUP BY / HAVING / aggregate evaluation over
// the joined relation. Like project it returns the rows unordered, with
// their sort keys when the SELECT orders.
func (db *DB) refEvalGrouped(ctx *execCtx, p *selPlan, acc *rel) (*Result, [][]types.Value, error) {
	type group struct {
		rep    int // row of acc representing the group in group expressions
		states []aggState
	}
	var groups []group // in first-seen order
	var ids keyIDs
	sc := ctx.scope
	for i := 0; i < acc.n; i++ {
		sc.bind(acc, i)
		start := len(db.keyBuf)
		for _, g := range p.groupBy {
			v, err := g(ctx)
			if err != nil {
				db.keyBuf = db.keyBuf[:start]
				return nil, nil, err
			}
			db.keyBuf = appendKey(db.keyBuf, v)
		}
		id, fresh := ids.id(db.keyBuf[start:])
		db.keyBuf = db.keyBuf[:start]
		if fresh {
			groups = append(groups, group{rep: i, states: make([]aggState, len(p.aggs))})
		}
		for k, a := range p.aggs {
			v := types.Null
			if a.arg != nil {
				var err error
				if v, err = a.arg(ctx); err != nil {
					return nil, nil, err
				}
			}
			groups[id].states[k].add(a.fc, v)
		}
	}

	// Grand aggregate over an empty input still yields one row.
	if len(p.groupBy) == 0 && len(groups) == 0 {
		groups = append(groups, group{rep: -1, states: make([]aggState, len(p.aggs))})
	}

	for _, it := range p.items {
		if it.expr == nil {
			return nil, nil, fmt.Errorf("SELECT * cannot be combined with GROUP BY or aggregates")
		}
	}
	res := &Result{Cols: p.cols}
	var keys [][]types.Value
	aggs := make([]types.Value, len(p.aggs))
	sc.rows = append(sc.rows, aggs)
	for _, gr := range groups {
		if gr.rep >= 0 {
			sc.bind(acc, gr.rep)
		} else {
			// empty-input grand aggregate: bind NULL rows
			for e, m := range sc.metas {
				sc.rows[e] = make([]types.Value, len(m.Cols))
			}
		}
		for k, a := range p.aggs {
			aggs[k] = gr.states[k].result(a.fc)
		}
		if p.having != nil {
			hv, err := p.having(ctx)
			if err != nil {
				return nil, nil, err
			}
			if hv != types.True {
				continue
			}
		}
		vals := make([]types.Value, len(p.items))
		for i, it := range p.items {
			v, err := it.expr(ctx)
			if err != nil {
				return nil, nil, err
			}
			vals[i] = v
		}
		res.Rows = append(res.Rows, vals)
		if len(p.order) > 0 {
			k, err := db.orderKeys(ctx, p, vals)
			if err != nil {
				return nil, nil, err
			}
			keys = append(keys, k)
		}
	}
	return res, keys, nil
}

// filter keeps the rows of r on which every conjunct is TRUE.
func (db *DB) refFilter(ctx *execCtx, r *rel, cs []*conjunct) (*rel, error) {
	if len(cs) == 0 {
		return r, nil
	}
	out := newRel(r.base, len(r.ents))
	for i := 0; i < r.n; i++ {
		ctx.scope.bind(r, i)
		ok, err := db.allTrue(ctx, cs, -1)
		if err != nil {
			return nil, err
		}
		if ok {
			out.add(ctx.scope)
		}
	}
	ctx.scope.unbind(r)
	return out, nil
}

// loadSource materializes a non-lateral table reference as a relation,
// applying the pushdown filters its plan assigned to it.
func (db *DB) refLoadSource(ctx *execCtx, fp *fromPlan) (*rel, error) {
	switch r := fp.ref.(type) {
	case *sqlast.BaseTable:
		switch rel := db.resolve(ctx, &fp.rel); rel.kind {
		case relLocal, relTable, relSystem:
			return db.refScanTable(ctx, fp, rel.tab) // the reference session loads afresh
		case relView:
			if ctx.depth > maxRecursion {
				return nil, fmt.Errorf("view nesting too deep at %s", r.Name)
			}
			sub := ctx.outer()
			sub.depth++
			res, err := db.refEvalQuery(sub, rel.view.Query, 0)
			if err != nil {
				return nil, err
			}
			return db.refResultToRel(ctx, fp, res)
		}
		return nil, fmt.Errorf("table or view %s does not exist", r.Name)
	case *sqlast.DerivedTable:
		res, err := db.refEvalQuery(ctx.outer(), r.Query, 0)
		if err != nil {
			return nil, err
		}
		return db.refResultToRel(ctx, fp, res)
	case *sqlast.JoinExpr:
		left, err := db.refLoadSource(ctx, fp.l)
		if err != nil {
			return nil, err
		}
		right, err := db.refLoadSource(ctx, fp.r)
		if err != nil {
			return nil, err
		}
		joined, err := db.refJoinRels(ctx, left, right, fp.on, r.Type == "LEFT")
		if err != nil {
			return nil, err
		}
		// Pushdown conjuncts neither side could take apply post-join.
		return db.refFilter(ctx, joined, fp.rest)
	case *sqlast.TableFunc:
		// A table function inside a JOIN tree is evaluated with only
		// the outer scope (not lateral to the join's left side).
		rows, err := db.tableFuncRows(ctx, fp)
		if err != nil {
			return nil, err
		}
		out := newRel(fp.base, 1)
		out.ents[0], out.n = rows, len(rows)
		return db.refFilter(ctx, out, fp.push)
	}
	return nil, fmt.Errorf("engine: unsupported table reference %T", fp.ref)
}

// scanTable filters a stored table by the source's pushdown conjuncts,
// along the access path its plan chose: a hash-index lookup for an
// equality on a column, an interval-index stab for the point-overlap
// pair MAX slicing injects (t.begin_time <= X AND X < t.end_time, X
// constant w.r.t. this scan — typically a routine parameter or
// outer-query column), or a full scan. The stab candidates are a
// superset and every pushdown conjunct, the pair included, is still
// evaluated on them, so rows with non-date endpoints keep exact SQL
// semantics.
func (db *DB) refScanTable(ctx *execCtx, fp *fromPlan, t *storage.Table) (*rel, error) {
	out := newRel(fp.base, 1)
	out.tab = t
	var ords []int
	all, skip := true, -1
	// Stab candidates go on the session's ordinal stack: the scans nested
	// in this one's pushdown conjuncts push and pop above them.
	start := len(db.ordBuf)
	defer func() { db.ordBuf = db.ordBuf[:start] }()
	if !db.DisableIndexes {
		if fp.idxVal != nil {
			// An evaluation error leaves the conjunct to the scan, which
			// reports it if a row gets that far.
			if v, err := fp.idxVal(ctx); err == nil {
				if !v.IsNull() { // col = NULL is never true: no candidates
					ords = t.Lookup(fp.idxCol, v)
				}
				all, skip = false, fp.idxSkip
			}
		}
		if all && fp.stab != nil {
			if v, err := fp.stab(ctx); err == nil &&
				(v.Kind == types.KindDate || v.Kind == types.KindInt) {
				var ok bool
				if db.ordBuf, ok = t.AppendOverlapping(db.ordBuf, v.I, v.I); ok {
					db.Stats.IntervalProbes++
					ords, all = db.ordBuf[start:], false
				}
			}
		}
	}
	n := len(ords)
	if all {
		n = len(t.Rows)
	}
	// Only a hash probe picks its candidates without reading the instant.
	ctx.window().source(t, skip >= 0, ords)
	db.Stats.RowsScanned += int64(n)
	db.Proc.AddRowsScanned(int64(n))
	if err := db.Proc.Killed(); err != nil {
		return nil, err
	}
	out.ver = t.Version()
	sc := ctx.scope
	for k := 0; k < n; k++ {
		i := k
		if !all {
			i = ords[k]
		}
		sc.rows[fp.base] = t.Rows[i]
		ok, err := db.allTrue(ctx, fp.push, skip)
		if err != nil {
			return nil, err
		}
		if ok {
			out.ents[0] = append(out.ents[0], t.Rows[i])
			if fp.ords {
				out.ords = append(out.ords, i)
			}
		}
	}
	sc.rows[fp.base] = nil
	out.n = len(out.ents[0])
	return out, nil
}

// resultToRel wraps a materialized result as a relation, applying the
// source's pushdown filters.
func (db *DB) refResultToRel(ctx *execCtx, fp *fromPlan, res *Result) (*rel, error) {
	m := ctx.scope.metas[fp.base]
	if len(m.Cols) != len(res.Cols) && len(m.Cols) > 0 && len(res.Cols) > 0 {
		return nil, fmt.Errorf("correlation %s declares %d columns but query produces %d",
			m.Alias, len(m.Cols), len(res.Cols))
	}
	out := newRel(fp.base, 1)
	out.ents[0], out.n = res.Rows, len(res.Rows)
	return db.refFilter(ctx, out, fp.push)
}

// joinRels joins two relations as jp prescribes. The arms — hash join
// on the equality conjuncts, interval stab join (a per-row index probe)
// on the injected point-overlap pair, nested loop — differ only in
// which right rows they propose for a left row; every proposal is bound
// in place, tested against the remaining conjuncts, and only then added
// to the output. leftOuter preserves unmatched left rows with NULL
// extension.
func (db *DB) refJoinRels(ctx *execCtx, left, right *rel, jp *joinPlan, leftOuter bool) (*rel, error) {
	sc := ctx.scope
	out := newRel(left.base, len(left.ents)+len(right.ents))

	// cands proposes the right rows to test against left row i (bound
	// in sc): their indexes, or all=true for every one.
	cands := func(int) (js []int, all bool, err error) { return nil, true, nil }
	switch {
	case len(jp.lkeys) > 0:
		index, err := db.hashIndexFor(ctx, right, &rel{}, jp)
		if err != nil {
			return nil, err
		}
		cands = func(int) ([]int, bool, error) {
			start := len(db.keyBuf)
			null, err := db.keyOf(ctx, jp.lkeys)
			var js []int
			if !null && err == nil {
				js = index.get(db.keyBuf[start:])
			}
			db.keyBuf = db.keyBuf[:start]
			return js, false, err
		}
	case jp.stab != nil && right.tab != nil && len(right.ents) == 1 &&
		len(right.ords) == right.n && !db.DisableIndexes:
		// Interval stab join: the right side scanned a stored temporal
		// table and the join predicates contain t.begin <= X AND
		// X < t.end with X from the left side. The pair stays in jp.rest,
		// so semantics are exactly the nested loop's.
		cands = db.refProbeCands(ctx, right, jp)
	}

	var nulls [][]types.Value
	if leftOuter {
		for e := range right.ents {
			nulls = append(nulls, make([]types.Value, len(sc.metas[right.base+e].Cols)))
		}
	}
	for i := 0; i < left.n; i++ {
		sc.bind(left, i)
		js, all, err := cands(i)
		if err != nil {
			return nil, err
		}
		n := len(js)
		if all {
			n = right.n
		}
		matched := false
		for k := 0; k < n; k++ {
			j := k
			if !all {
				j = js[k]
			}
			sc.bind(right, j)
			ok, err := db.allTrue(ctx, jp.rest, -1)
			if err != nil {
				return nil, err
			}
			if ok {
				out.add(sc)
				matched = true
			}
		}
		if leftOuter && !matched {
			copy(sc.rows[right.base:], nulls)
			out.add(sc)
		}
	}
	sc.unbind(left)
	sc.unbind(right)
	return out, nil
}

// probeCands proposes, per left row, the right rows the right table's
// interval index returns for the row's stab point, intersected with the
// rows the right scan kept (both ascending). A left row whose X is not
// evaluable to a date gets the full inner iteration, and so does every
// row once the table has moved past the version the right rows were
// loaded at (overlapping's rule). One buffer serves
// the whole join: the index appends its ordinals to it and the
// intersection overwrites them in place (it never writes past the
// ordinal it is reading).
func (db *DB) refProbeCands(ctx *execCtx, right *rel, jp *joinPlan) func(int) ([]int, bool, error) {
	var buf []int
	return func(int) ([]int, bool, error) {
		v, err := jp.stab(ctx)
		if err != nil || (v.Kind != types.KindDate && v.Kind != types.KindInt) || right.tab.Version() != right.ver {
			return nil, true, nil
		}
		var ok bool
		if buf, ok = right.tab.AppendOverlapping(buf[:0], v.I, v.I); !ok {
			return nil, true, nil
		}
		db.Stats.IntervalProbes++
		n, j := 0, 0
		for _, o := range buf {
			for j < len(right.ords) && right.ords[j] < o {
				j++
			}
			if j < len(right.ords) && right.ords[j] == o {
				buf[n] = j
				n++
				j++
			}
		}
		return buf[:n], false, nil
	}
}
