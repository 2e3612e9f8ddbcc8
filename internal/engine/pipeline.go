package engine

import (
	"fmt"
	"math"
	"slices"

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
	stepRange                   // join the rows of a tiling table whose begin lies in the row's period
	stepLateral                 // extend the row by the rows a table function returns for it
	stepFilter                  // keep the row when every conjunct is TRUE
)

// step is one stage between the first source and the sink. Immutable:
// part of the plan.
type step struct {
	kind   stepKind
	fp     *fromPlan       // probe: the build side; range: the tiling table; lateral: the function's source
	jp     *joinPlan       // probe
	outer  bool            // probe: LEFT JOIN — a row without a match passes NULL-extended
	keyed  bool            // probe, step 0 of an inner join: every key is a column of the first source and of the build side (pipe.byKeys)
	nulls  [][]types.Value // probe, outer: the NULL rows of the build side's entries
	conds  []*conjunct     // range, lateral, filter: what the extended row must satisfy
	period [3]int          // range: the entry whose period bounds the begins to take, its begin and end columns

	// The tuple-major range step and a probe step after it: the conds (a
	// probe's jp.rest) whose verdict a run of periods may share (DB.share).
	share uint64
}

// pipePlan is a FROM clause (or a JOIN tree used as a build side) laid
// out for streaming: the leaf whose rows are scanned, and the steps each
// passes. first is nil when a lateral table function leads the FROM
// clause: the steps then run once, on a row of no entries. drive marks
// the tuple-major layout (planTupleMajor): first is loaded as the build
// side it is in FROM order, and streams the rows that overlap step 0's
// tiling table.
type pipePlan struct {
	first *fromPlan
	steps []step
	drive bool
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
	// An inner join of a stored first source on its columns alone, which
	// no key can raise on: the scan may take its candidates from key 0.
	first := pp.first
	st.keyed = len(pp.steps) == 0 && !outer && len(jp.lkeys) > 0 && first != nil && first.rel.name != ""
	for x, l := range jp.lkeys {
		st.keyed = st.keyed && l.kind == opCol && int(l.i) == first.base && jp.rkeys[x].kind == opCol
	}
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
	index *hashIdx       // hash join on the plan's keys
	stab  bool           // interval stab join: one index probe per left row
	tab   *storage.Table // range: the tiling table, bound in place
	drop  []bool         // range: the rows of tab its pushdown conjuncts reject
}

// pipe is one execution of a pipePlan in a level's context: the loaded
// build sides and the sink's state. It lives for the call that runs it.
type pipe struct {
	db  *DB
	ctx *execCtx // of the level the plan's slots index
	pipePlan
	few  [4]build // by step; more, when there are more steps than that
	more []build

	shares bool // the execution shares verdicts (pipe.test)
	held   int  // where the driving row's start on the session's verdicts

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

	// collect: the relation over entries [base, base+width): a build
	// side's own (loadSource), else made when the first row (or the
	// scan's table) is noted.
	out         *rel
	base, width int
}

// exec loads the build sides in step order, builds their hash tables,
// and streams the first source through the steps. The build sides loaded
// as scratch, with their hash tables, are popped when it returns.
func (r *pipe) exec() error {
	defer r.db.popSides(r.db.sides.n)
	if n := len(r.steps); n > len(r.few) {
		r.more = make([]build, n)
	}
	for k := range r.steps {
		st := &r.steps[k]
		if st.kind == stepRange {
			if err := r.tiling(k, st.fp); err != nil {
				return err
			}
			continue
		}
		if st.kind != stepProbe {
			continue
		}
		b := r.build(k)
		var own *rel
		var err error
		if b.right, own, err = r.db.loadSource(r.ctx, st.fp); err != nil {
			return err
		}
		switch {
		case len(st.jp.lkeys) > 0:
			if b.index, err = r.db.hashIndexFor(r.ctx, b.right, own, st.jp); err != nil {
				return err
			}
		case st.jp.stab != nil && b.right.stabbable() && !r.db.DisableIndexes:
			// The right side scanned a stored temporal table and the join
			// predicates contain t.begin <= X AND X < t.end with X from the
			// left side. The pair stays in jp.rest, so semantics are
			// exactly the nested loop's.
			b.stab = true
		}
	}
	switch {
	case r.first == nil:
		_, err := r.push(0)
		return err
	case r.drive:
		// Not in an invocation, whose window each shared call would narrow.
		r.shares = (r.steps[0].share != 0 || len(r.steps) > 1 && r.steps[1].share != 0) &&
			r.ctx.memo != nil && r.ctx.window() == nil && !r.db.noVerdicts
		return r.driving(r.first)
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
		switch rel := db.resolve(ctx, &fp.rel); rel.kind {
		case relLocal, relSystem:
			// A table-valued variable (the cp relation, a collection
			// parameter) holds per-execution contents, a system table is
			// built afresh: never memoized.
			return r.scan(fp, rel.tab, false)
		case relTable:
			return r.stored(fp, rel.tab)
		case relView:
			if ctx.depth > maxRecursion {
				return fmt.Errorf("view nesting too deep at %s", ref.Name)
			}
			sub := ctx.view()
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
		return r.scan(fp, t, true)
	}
	// The version is read before scanning, so a racing bump can only
	// make the stamp too old (a spurious rebuild), never too new.
	version := t.Version()
	m := fp.memo.Load()
	if m == nil || m.tab != t || m.version != version || m.now != db.Now {
		if err := r.scan(fp, t, true); err != nil {
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
		if err := c.scan(fp, t, false); err != nil {
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
// parameter or outer-query column), or a full scan; a stored table's
// (keyed) when fewer, the rows holding step 0's build keys (byKeys). Every
// pushdown conjunct is still evaluated on the candidates, so rows with
// non-date endpoints keep exact SQL semantics. The candidates are chosen,
// counted and their validity window reported before the first is tested:
// what a scan reports does not depend on how far the sink lets it run.
func (r *pipe) scan(fp *fromPlan, t *storage.Table, keyed bool) error {
	db, ctx := r.db, r.ctx
	var ords []int
	all, skip := true, -1
	// Candidates go on the session's ordinal stack: the scans nested in
	// this one's pushdown conjuncts, and in the steps its rows pass, push
	// and pop above them.
	start := len(db.ordBuf)
	defer func() { db.ordBuf = db.ordBuf[:start] }()
	probed := false // the candidates do not depend on the instant
	if !db.DisableIndexes {
		if fp.idxVal != nil {
			// An evaluation error leaves the conjunct to the scan, which
			// reports it if a row gets that far.
			if v, err := fp.idxVal(ctx); err == nil {
				ords, _ = db.lookup(t, fp.idxCol, 1, math.MaxInt, func(int) types.Value { return v })
				all, skip, probed = false, fp.idxSkip, true
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
	// The rows as they are now, after the values above (which may write t):
	// a routine a later step runs may replace the slice under the scan.
	rows := t.Rows
	n := len(ords)
	if all {
		n = len(rows)
	}
	if keyed && !db.DisableIndexes {
		if ks, ok := r.byKeys(fp, t, n); ok {
			ords, all, skip, probed, n = ks, false, -1, true, len(ks)
			db.keyedScans++
		}
	}
	ctx.window().source(t, probed, ords)
	db.Stats.RowsScanned += int64(n)
	db.Proc.AddRowsScanned(int64(n))
	if err := db.Proc.Killed(); err != nil {
		return err
	}
	keep := r.sink == sinkCollect && r.width == 1 // the relation is this table, filtered
	if keep {
		out := r.collected()
		out.tab, out.ver = t, t.Version()
		if all && len(fp.push) == 0 { // it keeps every row: the table's, read in place
			out.ents[0], out.n, out.whole = rows[:n:n], n, true
			return nil
		}
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

// byKeys proposes, when step 0 hash-joins the first source on its columns
// (step.keyed), the rows of t holding one of the build's keys in key 0's
// — if it has fewer keys than the scan's own path has rows, and they are
// fewer rows. Every conjunct is still tested on them, and none may raise
// on a row left out: each compares operands read in place, or names read
// past the level, the same on every row (asked once here). The rows depend
// on the keys, which carry the build's window, not on the instant.
func (r *pipe) byKeys(fp *fromPlan, t *storage.Table, n int) ([]int, bool) {
	if len(r.steps) == 0 || !r.steps[0].keyed || len(r.build(0).index.rows) >= n {
		return nil, false
	}
	for _, c := range fp.push {
		for _, o := range c.ops {
			switch o.kind {
			case opNear, opFn:
				return nil, false
			case opReach:
				if _, err := o.reach.eval(r.ctx); err != nil {
					return nil, false
				}
			}
		}
	}
	b, jp := r.build(0), r.steps[0].jp
	l, k, ix := jp.lkeys[0], jp.rkeys[0], b.index
	e := b.right.ents[int(k.i)-b.right.base]
	return r.db.lookup(t, int(l.j), len(ix.rows), n-1, func(id int) types.Value { return e[ix.rows[id][0]][k.j] })
}

// lookup pushes, ascending and once each, the ordinals of t's rows whose
// column col equals one of val(0) … val(n-1) onto the session's ordinal
// stack for the caller to pop; past most of them it pops them, false.
func (db *DB) lookup(t *storage.Table, col, n, most int, val func(int) types.Value) ([]int, bool) {
	start := len(db.ordBuf)
	for i := 0; i < n; i++ {
		if v := val(i); !v.IsNull() { // col = NULL is never true
			db.ordBuf = append(db.ordBuf, t.Lookup(col, v)...)
		}
		if len(db.ordBuf)-start > most {
			db.ordBuf = db.ordBuf[:start]
			return nil, false
		}
	}
	slices.Sort(db.ordBuf[start:])
	ords := slices.Compact(db.ordBuf[start:])
	db.ordBuf = db.ordBuf[:start+len(ords)]
	return ords, true
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
	case stepRange:
		return r.rangeStep(k, st)
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
		// A left row whose X is no date gets the full inner iteration.
		if v, err := jp.stab(ctx); err == nil && v.IsInstant() {
			js, all = db.overlapping(right, v.I, v.I)
		}
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
		if ok, err = r.test(st, jp.rest, r.held+len(r.steps[0].conds)+i*len(jp.rest), j); ok {
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

// stabbable reports whether a stab join may propose right's rows by its
// table's interval index: right is one stored table's rows, each with its
// ordinal.
func (r *rel) stabbable() bool {
	return r.tab != nil && len(r.ents) == 1 && (r.whole || len(r.ords) == r.n)
}

// overlapping proposes the rows of right whose period overlaps [lo, hi]:
// what right's table's interval index returns, intersected with the rows
// the right scan kept (both ascending). The index appends its ordinals to
// the session's ordinal stack and the intersection overwrites them in
// place (it never writes past the ordinal it is reading); the caller pops
// them. Once the table has moved past the version right was loaded at,
// the index numbers other rows, and every row is proposed.
func (db *DB) overlapping(right *rel, lo, hi int64) (js []int, all bool) {
	start := len(db.ordBuf)
	var ok bool
	if right.tab.Version() != right.ver {
		return nil, true
	}
	if db.ordBuf, ok = right.tab.AppendOverlapping(db.ordBuf, lo, hi); !ok {
		return nil, true
	}
	db.Stats.IntervalProbes++
	buf := db.ordBuf[start:]
	if right.whole { // row j is ordinal j; the rows appended since are not right's
		n, _ := slices.BinarySearch(buf, right.n)
		return buf[:n], false
	}
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

// tiling binds step k's tiling table for the execution: the relation
// variable fp names, read in place. Its rows count as scanned, and its
// pushdown conjuncts are tested on each of them once, as they would be
// leading the FROM-order layout; the rows they reject are noted.
func (r *pipe) tiling(k int, fp *fromPlan) error {
	db, sc := r.db, r.ctx.scope
	b := r.build(k)
	b.tab = db.resolve(r.ctx, &fp.rel).tab
	rows := b.tab.Rows
	db.Stats.RowsScanned += int64(len(rows))
	db.Proc.AddRowsScanned(int64(len(rows)))
	if err := db.Proc.Killed(); err != nil || len(fp.push) == 0 {
		return err
	}
	b.drop = make([]bool, len(rows))
	defer func() { sc.rows[fp.base] = nil }()
	for i, row := range rows {
		sc.rows[fp.base] = row
		ok, err := db.allTrue(r.ctx, fp.push, -1)
		if err != nil {
			return err
		}
		b.drop[i] = !ok
	}
	return nil
}

// driving streams the first source of the tuple-major layout. It is
// loaded as it is as a build side in FROM order — the same source memo,
// the same rows scanned — and only the rows whose period overlaps the
// span of step 0's tiling table, the begins of its first and last rows,
// are streamed: one interval probe. Every conjunct is still tested on
// every row the range step proposes for them.
func (r *pipe) driving(fp *fromPlan) error {
	db, sc := r.db, r.ctx.scope
	right, _, err := db.loadSource(r.ctx, fp)
	if err != nil {
		return err
	}
	mark := len(db.ordBuf)
	defer func() { db.ordBuf = db.ordBuf[:mark] }()
	var js []int
	all := true
	if rows := r.build(0).tab.Rows; len(rows) > 0 && right.stabbable() && !db.DisableIndexes {
		if lo, hi := rows[0][0], rows[len(rows)-1][0]; lo.IsInstant() && hi.IsInstant() {
			js, all = db.overlapping(right, lo.I, hi.I)
		}
	}
	n := len(js)
	if all {
		n = right.n
	}
	stop := false
	for i := 0; i < n && !stop && err == nil; i++ {
		j := i
		if !all {
			j = js[i]
		}
		sc.bind(right, j)
		stop, err = r.push(0)
	}
	sc.unbind(right)
	return err
}

// rangeStep joins the bound row with the rows of step k's tiling table
// whose begin lies in the period of the row's entry the step names: two
// binary searches. A bound that is not a date proposes every row. Every join
// conjunct, the pair the bounds come from included, is tested on every
// row proposed that the table's own conjuncts kept.
func (r *pipe) rangeStep(k int, st *step) (stop bool, err error) {
	db, sc := r.db, r.ctx.scope
	b := r.build(k)
	rows := b.tab.Rows
	i, j := 0, len(rows)
	bound := sc.rows[st.period[0]]
	if lo, hi := bound[st.period[1]], bound[st.period[2]]; lo.Kind == types.KindDate && hi.Kind == types.KindDate {
		i = firstBegin(rows, 0, lo.I)
		j = firstBegin(rows, i, hi.I)
	}
	if r.shares {
		// The driving row's verdicts go, with it, when the step returns.
		r.held = len(db.verdicts)
		defer func(v, c int) {
			clear(db.calls[c:])
			db.verdicts, db.calls = db.verdicts[:v], db.calls[:c]
		}(r.held, len(db.calls))
	}
	e := st.fp.base
	for ; i < j && !stop && err == nil; i++ {
		if b.drop != nil && b.drop[i] {
			continue
		}
		sc.rows[e] = rows[i]
		var ok bool
		if ok, err = r.test(st, st.conds, r.held, 0); ok {
			stop, err = r.push(k + 1)
		}
	}
	sc.rows[e] = nil
	return stop, err
}

// test is allTrue of conds on the bound row, but a conjunct st shares
// keeps its verdict — for candidate at — in slot i+x of the session's
// verdicts, x its place in conds, and the periods its window holds take
// it from there (reuse).
func (r *pipe) test(st *step, conds []*conjunct, i, at int) (bool, error) {
	db, ms := r.db, r.ctx.memo
	if !r.shares || st.share == 0 {
		return db.allTrue(r.ctx, conds, -1)
	}
	if m := len(db.verdicts); i+len(conds) > m { // the slots, zeroed
		db.verdicts = slices.Grow(db.verdicts, i+len(conds)-m)[:i+len(conds)]
		clear(db.verdicts[m:])
	}
	begin := r.ctx.scope.rows[r.steps[0].fp.base][0].I // the period's
	for x, c := range conds {
		if st.share&(1<<x) == 0 {
			if t, err := c.test(r.ctx); err != nil || t != types.True {
				return false, err
			}
			continue
		}
		v := &db.verdicts[i+x]
		if v.at == at && v.lo <= begin && begin < v.hi && v.era == ms.era(db) {
			db.reuse(v)
		} else {
			era, from := ms.era(db), len(db.calls)
			db.decided, db.deciding = window{lo: math.MinInt64, hi: math.MaxInt64, t: begin, sliced: true}, r.ctx.depth+1
			t, err := c.test(r.ctx)
			db.deciding = 0
			if err != nil {
				return false, err
			}
			*v = verdict{at: at, lo: db.decided.lo, hi: db.decided.hi, era: era, calls: [2]int{from, len(db.calls)}, ok: t == types.True}
		}
		if !v.ok {
			return false, nil
		}
	}
	return true, nil
}

// firstBegin returns the first row at or after from whose begin (column
// 0, ascending) is at or after t.
func firstBegin(rows [][]types.Value, from int, t int64) int {
	lo, hi := from, len(rows)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rows[m][0].I < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
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
// relation: the build side of a join. It collects into own, which it
// pushes onto the session's build sides for the calling pipe to pop
// (popSides), unless the source's memo serves the relation it keeps
// (stored); own holds the hash table built as scratch (hashIndexFor).
func (db *DB) loadSource(ctx *execCtx, fp *fromPlan) (right, own *rel, err error) {
	own = db.sides.push()
	if own.base = fp.base; cap(own.ents) < fp.n {
		own.ents = make([][][]types.Value, fp.n)
	}
	own.ents = own.ents[:fp.n]
	r := pipe{db: db, ctx: ctx, pipePlan: fp.pipePlan, sink: sinkCollect, base: fp.base, width: fp.n, out: own}
	if err := r.exec(); err != nil {
		return nil, nil, err
	}
	return r.out, own, nil
}
