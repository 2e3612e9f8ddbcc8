package engine

import (
	"fmt"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// A SELECT runs as one pipeline. The plan lays its FROM clause out as a
// first source and the steps a row of it passes (pipePlan); an execution
// (pipe) loads the right side of every join, then streams the first
// source: each candidate row is bound into the level's row scope in
// place, tested, and handed depth-first to the next step — the row order
// of the nested loops the steps stand for — until a sink takes it.
// Nothing between the scan and the sink is stored: the only relations an
// execution builds are the build sides of its joins (and what a source's
// memo keeps).

type stepKind uint8

const (
	stepProbe   stepKind = iota // join the rows of a build side: hash, interval stab or nested loop
	stepLateral                 // extend the row by the rows a table function returns for it
	stepFilter                  // keep the row when every conjunct is TRUE
)

// step is one stage between the first source and the sink. Immutable:
// part of the plan.
type step struct {
	kind  stepKind
	fp    *fromPlan       // probe: the build side; lateral: the function's source
	jp    *joinPlan       // probe
	outer bool            // probe: LEFT JOIN — a row without a match passes NULL-extended
	nulls [][]types.Value // probe, outer: the NULL rows of the build side's entries
	conds []*conjunct     // lateral, filter: what the extended row must satisfy
}

// pipePlan is a FROM clause (or a JOIN tree used as a build side) laid
// out for streaming: the leaf whose rows are scanned, and the steps each
// passes. first is nil when a lateral table function leads the FROM
// clause: the steps then run once, on a row of no entries.
type pipePlan struct {
	first *fromPlan
	steps []step
}

// add appends the layout of fp — a leaf, or a JOIN tree, whose leftmost
// leaf streams while every right side is a build side — to the plan.
func (pp *pipePlan) add(metas []storage.Binding, fp *fromPlan) {
	j, ok := fp.ref.(*sqlast.JoinExpr)
	if !ok {
		pp.first = fp
		return
	}
	pp.add(metas, fp.l)
	pp.probe(metas, fp.r, fp.on, j.Type == "LEFT")
	if len(fp.rest) > 0 {
		pp.steps = append(pp.steps, step{kind: stepFilter, conds: fp.rest})
	}
}

// probe appends the step joining build side right as jp prescribes. The
// build side gets its own layout: it is collected by a pipeline of its
// own (loadSource).
func (pp *pipePlan) probe(metas []storage.Binding, right *fromPlan, jp *joinPlan, outer bool) {
	right.pipePlan.add(metas, right)
	st := step{kind: stepProbe, fp: right, jp: jp, outer: outer}
	if outer {
		for _, m := range metas[right.base : right.base+right.n] {
			st.nulls = append(st.nulls, make([]types.Value, len(m.Cols)))
		}
	}
	pp.steps = append(pp.steps, st)
}

type sinkKind uint8

const (
	sinkProject sinkKind = iota // evaluate the select list, append the row to the result
	sinkGroup                   // find the row's group, accumulate its aggregates
	sinkCollect                 // append the bound rows to a relation: a build side
)

// build is what a probe step reads during one execution: the relation
// loaded for its right side and the way candidates are proposed.
type build struct {
	right *rel
	index *hashIdx // hash join on the plan's keys
	stab  bool     // interval stab join: one index probe per left row
}

// pipe is one execution of a pipePlan in a level's context: the loaded
// build sides and the sink's state. It lives for the call that runs it.
type pipe struct {
	db  *DB
	ctx *execCtx // of the level the plan's slots index
	pipePlan
	few  [4]build // by step; more, when there are more steps than that
	more []build

	sink sinkKind
	p    *selPlan // project, group: the select list, grouping and ordering

	// project, group: the rows go onto the session's row stack above start
	start  int
	keys   [][]types.Value // the rows' ORDER BY keys, when the SELECT orders
	stopAt int             // > 0: that many rows decide the caller (EXISTS, scalar subquery)

	// group: per group in first-seen order, the row each entry contributed
	// when the group was opened (len(p.metas) of them) and its aggregates.
	ids    keyIDs
	reps   [][]types.Value
	states [][]aggState

	// collect: the relation, made when the first row (or the scan's
	// table) is noted, over entries [base, base+width).
	out         *rel
	base, width int
}

// exec loads the build sides in step order, builds their hash tables,
// and streams the first source through the steps. The hash tables built
// as scratch are popped when it returns.
func (r *pipe) exec() error {
	defer r.db.popHashes(r.db.hashes.n)
	if n := len(r.steps); n > len(r.few) {
		r.more = make([]build, n)
	}
	for k := range r.steps {
		st := &r.steps[k]
		if st.kind != stepProbe {
			continue
		}
		b := r.build(k)
		var err error
		if b.right, err = r.db.loadSource(r.ctx, st.fp); err != nil {
			return err
		}
		switch {
		case len(st.jp.lkeys) > 0:
			if b.index, err = r.db.hashIndexFor(r.ctx, b.right, st.jp); err != nil {
				return err
			}
		case st.jp.stab != nil && b.right.tab != nil && len(b.right.ents) == 1 &&
			len(b.right.ords) == b.right.n && !r.db.DisableIndexes:
			// The right side scanned a stored temporal table and the join
			// predicates contain t.begin <= X AND X < t.end with X from the
			// left side. The pair stays in jp.rest, so semantics are
			// exactly the nested loop's.
			b.stab = true
		}
	}
	if r.first == nil {
		_, err := r.push(0)
		return err
	}
	return r.source(r.first)
}

// build returns step k's build side. (A slice of few would point into
// the pipe and move it to the heap.)
func (r *pipe) build(k int) *build {
	if r.more != nil {
		return &r.more[k]
	}
	return &r.few[k]
}

// source streams the rows of leaf fp that pass its pushdown filters into
// step 0.
func (r *pipe) source(fp *fromPlan) error {
	db, ctx := r.db, r.ctx
	switch ref := fp.ref.(type) {
	case *sqlast.BaseTable:
		switch rel := db.resolve(ctx.vars, ref.Name); rel.kind {
		case relLocal, relSystem:
			// A table-valued variable (the cp relation, a collection
			// parameter) holds per-execution contents, a system table is
			// built afresh: never memoized.
			return r.scan(fp, rel.tab)
		case relTable:
			return r.stored(fp, rel.tab)
		case relView:
			if ctx.depth > maxRecursion {
				return fmt.Errorf("view nesting too deep at %s", ref.Name)
			}
			sub := ctx.outer()
			sub.depth++
			return r.query(fp, sub, rel.view.Query)
		}
		return fmt.Errorf("table or view %s does not exist", ref.Name)
	case *sqlast.DerivedTable:
		return r.query(fp, ctx.outer(), ref.Query)
	case *sqlast.TableFunc:
		// A table function inside a JOIN tree is evaluated with only the
		// outer scope (not lateral to the join's left side).
		rows, err := db.tableFuncRows(ctx, fp)
		if err != nil {
			return err
		}
		_, err = r.feed(0, fp.base, rows, fp.push)
		return err
	}
	return fmt.Errorf("engine: unsupported table reference %T", fp.ref)
}

// query streams the result of a view or derived table, evaluated in the
// enclosing level's context: such sources are not lateral.
func (r *pipe) query(fp *fromPlan, outer *execCtx, q sqlast.QueryExpr) error {
	res, err := r.db.evalQuery(outer, q)
	if err != nil {
		return err
	}
	m := r.ctx.scope.metas[fp.base]
	if len(m.Cols) != len(res.Cols) && len(m.Cols) > 0 && len(res.Cols) > 0 {
		return fmt.Errorf("correlation %s declares %d columns but query produces %d",
			m.Alias, len(m.Cols), len(res.Cols))
	}
	_, err = r.feed(0, fp.base, res.Rows, fp.push)
	return err
}

// stored streams a catalog table behind its source's memo (srcMemo, which
// says what is remembered and why): the first load under a stamp streams
// and keeps only the stamp; the second collects the filtered relation,
// which the memo keeps, and every load from then on iterates it — or, as
// the build side of a join, is it: no step writes to a relation it was
// given.
func (r *pipe) stored(fp *fromPlan, t *storage.Table) error {
	db := r.db
	if !fp.closed || db.freshLoads {
		return r.scan(fp, t)
	}
	// The version is read before scanning, so a racing bump can only
	// make the stamp too old (a spurious rebuild), never too new.
	version := t.Version()
	m := fp.memo.Load()
	if m == nil || m.tab != t || m.version != version || m.now != db.Now {
		if err := r.scan(fp, t); err != nil {
			return err
		}
		fp.memo.Store(&srcMemo{tab: t, version: version, now: db.Now})
		return nil
	}
	kept := m.rel
	if kept != nil {
		r.ctx.window().source(t, false, nil) // as the scan that built it would have, at the least
		db.Stats.PlanReuseHits++
	} else {
		c := pipe{db: db, ctx: r.ctx, sink: sinkCollect, base: fp.base, width: 1}
		if err := c.scan(fp, t); err != nil {
			return err
		}
		kept = c.out
		fp.memo.Store(&srcMemo{tab: t, version: version, now: db.Now, rel: kept})
	}
	if r.sink == sinkCollect && r.width == 1 {
		r.out = kept
		return nil
	}
	_, err := r.feed(0, fp.base, kept.ents[0], nil)
	return err
}

// feed hands the rows that pass the conjuncts, as entry base, to step k.
func (r *pipe) feed(k, base int, rows [][]types.Value, conds []*conjunct) (stop bool, err error) {
	sc := r.ctx.scope
	for i := 0; i < len(rows) && !stop && err == nil; i++ {
		sc.rows[base] = rows[i]
		var ok bool
		if ok, err = r.db.allTrue(r.ctx, conds, -1); ok {
			stop, err = r.push(k)
		}
	}
	sc.rows[base] = nil
	return stop, err
}

// scan streams a table along the access path the source's plan chose: a
// hash-index lookup for an equality on a column, an interval-index stab
// for the point-overlap pair MAX slicing injects (t.begin_time <= X AND
// X < t.end_time, X constant w.r.t. this scan — typically a routine
// parameter or outer-query column), or a full scan. The stab candidates
// are a superset and every pushdown conjunct, the pair included, is still
// evaluated on them, so rows with non-date endpoints keep exact SQL
// semantics. The candidates are chosen, counted and their validity window
// reported before the first is tested: what a scan reports does not
// depend on how far the sink lets it run.
func (r *pipe) scan(fp *fromPlan, t *storage.Table) error {
	db, ctx := r.db, r.ctx
	var ords []int
	all, skip := true, -1
	// Stab candidates go on the session's ordinal stack: the scans nested
	// in this one's pushdown conjuncts, and in the steps its rows pass,
	// push and pop above them.
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
			if v, err := fp.stab(ctx); err == nil && v.IsInstant() {
				var ok bool
				if db.ordBuf, ok = t.AppendOverlapping(db.ordBuf, v.I, v.I); ok {
					db.Stats.IntervalProbes++
					ords, all = db.ordBuf[start:], false
				}
			}
		}
	}
	// The table's rows as they are now: a routine a later step runs may
	// replace the slice under the scan.
	rows := t.Rows
	n := len(ords)
	if all {
		n = len(rows)
	}
	// Only a hash probe picks its candidates without reading the instant.
	ctx.window().source(t, skip >= 0, ords)
	db.Stats.RowsScanned += int64(n)
	db.Proc.AddRowsScanned(int64(n))
	if err := db.Proc.Killed(); err != nil {
		return err
	}
	keep := r.sink == sinkCollect && r.width == 1 // the relation is this table, filtered
	if keep {
		r.collected().tab = t
	}
	sc, stop := ctx.scope, false
	var err error
	for k := 0; k < n && !stop && err == nil; k++ {
		i := k
		if !all {
			i = ords[k]
		}
		sc.rows[fp.base] = rows[i]
		var ok bool
		if ok, err = db.allTrue(ctx, fp.push, skip); ok {
			if keep && fp.ords {
				r.out.ords = append(r.out.ords, i)
			}
			stop, err = r.push(0)
		}
	}
	sc.rows[fp.base] = nil
	return err
}

// push hands the row the scope binds for the entries before step k to
// that step, and so on to the sink. stop reports that the sink has all
// it needs: every loop above unwinds.
func (r *pipe) push(k int) (stop bool, err error) {
	if k == len(r.steps) {
		return r.emit()
	}
	st := &r.steps[k]
	switch st.kind {
	case stepProbe:
		return r.probe(k, st)
	case stepLateral:
		rows, err := r.db.tableFuncRows(r.ctx, st.fp)
		if err != nil {
			return false, err
		}
		return r.feed(k+1, st.fp.base, rows, st.conds)
	}
	if ok, err := r.db.allTrue(r.ctx, st.conds, -1); !ok {
		return false, err
	}
	return r.push(k + 1)
}

// probe joins the bound row with the rows of step k's build side. The
// arms — hash join on the equality conjuncts, interval stab join (a
// per-row index probe) on the injected point-overlap pair, nested loop —
// differ only in which right rows they propose; every proposal is bound
// in place, tested against the remaining conjuncts, and only then passed
// on.
func (r *pipe) probe(k int, st *step) (stop bool, err error) {
	db, ctx, sc := r.db, r.ctx, r.ctx.scope
	b, jp := r.build(k), st.jp
	right := b.right
	var js []int // the right rows proposed, unless all are
	all := true
	mark := len(db.ordBuf)
	switch {
	case b.index != nil:
		start := len(db.keyBuf)
		null, err := db.keyOf(ctx, jp.lkeys)
		if !null && err == nil {
			js = b.index.get(db.keyBuf[start:])
		}
		db.keyBuf = db.keyBuf[:start]
		if err != nil {
			return false, err
		}
		all = false
	case b.stab:
		js, all = db.stabCands(ctx, right, jp)
	}
	n := len(js)
	if all {
		n = right.n
	}
	matched := false
	for i := 0; i < n && !stop && err == nil; i++ {
		j := i
		if !all {
			j = js[i]
		}
		sc.bind(right, j)
		var ok bool
		if ok, err = db.allTrue(ctx, jp.rest, -1); ok {
			matched = true
			stop, err = r.push(k + 1)
		}
	}
	if st.outer && !matched && err == nil {
		copy(sc.rows[right.base:], st.nulls)
		stop, err = r.push(k + 1)
	}
	sc.unbind(right)
	db.ordBuf = db.ordBuf[:mark]
	return stop, err
}

// stabCands proposes, for the bound left row, the right rows the right
// table's interval index returns for the row's stab point, intersected
// with the rows the right scan kept (both ascending). A left row whose X
// is not evaluable to a date gets the full inner iteration. The index
// appends its ordinals to the session's ordinal stack and the
// intersection overwrites them in place (it never writes past the ordinal
// it is reading); the caller pops them.
func (db *DB) stabCands(ctx *execCtx, right *rel, jp *joinPlan) (js []int, all bool) {
	v, err := jp.stab(ctx)
	if err != nil || !v.IsInstant() {
		return nil, true
	}
	start := len(db.ordBuf)
	var ok bool
	if db.ordBuf, ok = right.tab.AppendOverlapping(db.ordBuf, v.I, v.I); !ok {
		return nil, true
	}
	db.Stats.IntervalProbes++
	buf := db.ordBuf[start:]
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
	return buf[:n], false
}

// emit gives the bound row to the sink. The projecting sink writes the
// row's values onto the session's value stack and pushes it.
func (r *pipe) emit() (stop bool, err error) {
	switch r.sink {
	case sinkCollect:
		r.collected().add(r.ctx.scope)
		return false, nil
	case sinkGroup:
		return false, r.accumulate()
	}
	db, ctx := r.db, r.ctx
	a := len(db.valBuf)
	for _, it := range r.p.items {
		if it.expr == nil {
			for _, e := range it.ents {
				db.valBuf = append(db.valBuf, ctx.scope.rows[e]...)
			}
			continue
		}
		v, err := it.expr(ctx)
		if err != nil {
			return false, err
		}
		db.valBuf = append(db.valBuf, v)
	}
	if err := r.put(a); err != nil {
		return false, err
	}
	return len(db.rowBuf)-r.start == r.stopAt, nil
}

// put pushes the values above a on the value stack as a projected row,
// with its sort keys when the SELECT orders.
func (r *pipe) put(a int) error {
	row := r.db.pushRow(a)
	if len(r.p.order) > 0 {
		k, err := r.db.pushOrderKeys(r.ctx, r.p, row)
		if err != nil {
			return err
		}
		r.keys = append(r.keys, k)
	}
	return nil
}

// collected returns the relation a collecting pipe fills.
func (r *pipe) collected() *rel {
	if r.out == nil {
		r.out = newRel(r.base, r.width)
	}
	return r.out
}

// loadSource runs fp — a leaf, or a JOIN tree by its own layout — into a
// relation: the build side of a join.
func (db *DB) loadSource(ctx *execCtx, fp *fromPlan) (*rel, error) {
	r := pipe{db: db, ctx: ctx, pipePlan: fp.pipePlan, sink: sinkCollect, base: fp.base, width: fp.n}
	if err := r.exec(); err != nil {
		return nil, err
	}
	return r.collected(), nil
}
