package storage

import (
	"slices"
	"sort"

	"taupsm/internal/types"
)

// intervalIndex is a centered interval tree over the half-open
// [begin_time, end_time) periods of a temporal table's rows. It
// answers "which rows overlap [lo, hi]" — exactly the shape of the
// point predicates MAX slicing injects (begin_time <= P AND
// P < end_time is the stab query lo = hi = P) — in O(log n + k)
// instead of a full scan. Built on the first query, it follows the
// table's writes (moved, retain) until they have changed an eighth of
// the rows, plus 16 (trimIval); then the next query builds it afresh.
type intervalIndex struct {
	root *intervalNode
	// aside holds the periods filtered linearly: the odd ones, whose
	// endpoints are not plain DATE/INT values (NULLs, strings), returned
	// with every query so the caller's residual predicate evaluation —
	// which all index users perform — keeps exact SQL semantics for them;
	// the degenerate ones (end <= begin), on which the tree's recursion
	// would never shrink; and those the writes since the build gave rows.
	aside []asideInterval
	// stale[i]: row i's entry in the tree, if any, is skipped, as is a
	// removed row's, renumbered to -1; read once churn is not 0.
	stale []bool
	churn int // rows written since the build
}

// asideInterval is a period kept beside the tree.
type asideInterval struct {
	tableInterval
	odd bool
}

type intervalNode struct {
	center int64
	// The intervals containing center, sorted two ways: ascending by
	// begin (for queries entirely left of center) and descending by
	// end (for queries entirely right of center).
	byBegin []tableInterval
	byEnd   []tableInterval
	left    *intervalNode
	right   *intervalNode
}

type tableInterval struct {
	begin, end int64
	ord        int
}

// buildIntervalTree recursively builds a balanced centered tree.
func buildIntervalTree(ivs []tableInterval) *intervalNode {
	if len(ivs) == 0 {
		return nil
	}
	// Center on the median begin: cheap, and keeps the tree balanced
	// for the clustered period data temporal tables hold.
	begins := make([]int64, len(ivs))
	for i, iv := range ivs {
		begins[i] = iv.begin
	}
	sort.Slice(begins, func(i, j int) bool { return begins[i] < begins[j] })
	center := begins[len(begins)/2]

	node := &intervalNode{center: center}
	var left, right []tableInterval
	for _, iv := range ivs {
		switch {
		case iv.end <= center: // entirely left of center
			left = append(left, iv)
		case iv.begin > center: // entirely right of center
			right = append(right, iv)
		default: // contains center: begin <= center < end
			node.byBegin = append(node.byBegin, iv)
		}
	}
	node.byEnd = append([]tableInterval(nil), node.byBegin...)
	sort.Slice(node.byBegin, func(i, j int) bool { return node.byBegin[i].begin < node.byBegin[j].begin })
	sort.Slice(node.byEnd, func(i, j int) bool { return node.byEnd[i].end > node.byEnd[j].end })
	node.left = buildIntervalTree(left)
	node.right = buildIntervalTree(right)
	return node
}

// query appends to out the ordinals of intervals [b, e) satisfying
// b <= hi AND e > lo, i.e. overlapping the closed query range [lo, hi].
func (n *intervalNode) query(lo, hi int64, out []int) []int {
	if n == nil {
		return out
	}
	switch {
	case lo <= n.center && n.center <= hi:
		// The query range contains the center, which every interval at
		// this node contains too: all of them overlap.
		for _, iv := range n.byBegin {
			out = append(out, iv.ord)
		}
	case hi < n.center:
		// Every node interval has e > center > hi >= lo, so e > lo
		// holds; filter on b <= hi via the begin-ascending order.
		for _, iv := range n.byBegin {
			if iv.begin > hi {
				break
			}
			out = append(out, iv.ord)
		}
	default: // lo > n.center
		// Every node interval has b <= center < lo <= hi, so b <= hi
		// holds; filter on e > lo via the end-descending order.
		for _, iv := range n.byEnd {
			if iv.end <= lo {
				break
			}
			out = append(out, iv.ord)
		}
	}
	if lo < n.center {
		out = n.left.query(lo, hi, out)
	}
	if hi > n.center {
		out = n.right.query(lo, hi, out)
	}
	return out
}

// intervalIdx returns the table's interval index, building it when
// missing. Safe for concurrent readers. Returns nil when the table has no
// temporal period columns.
func (t *Table) intervalIdx() *intervalIndex {
	if !(t.ValidTime || t.TransactionTime) || len(t.Schema.Cols) < 2 {
		return nil
	}
	t.mu.RLock()
	idx := t.ival
	t.mu.RUnlock()
	if idx != nil {
		return idx
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ival == nil {
		t.ival = t.buildIntervalIdx()
	}
	return t.ival
}

// buildIntervalIdx constructs the index; caller holds the write lock.
func (t *Table) buildIntervalIdx() *intervalIndex {
	idx := &intervalIndex{}
	ivs := make([]tableInterval, 0, len(t.Rows))
	for i, row := range t.Rows {
		d := spanOf(row[t.BeginCol()], row[t.EndCol()], i)
		if d.odd || d.end <= d.begin {
			idx.aside = append(idx.aside, d)
			continue
		}
		ivs = append(ivs, d.tableInterval)
	}
	idx.root = buildIntervalTree(ivs)
	return idx
}

// spanOf is row i's period [b, e).
func spanOf(b, e types.Value, i int) asideInterval {
	return asideInterval{tableInterval{b.I, e.I, i}, !b.IsInstant() || !e.IsInstant()}
}

// span is row i's period when the interval index is built.
func (t *Table) span(i int) asideInterval {
	if t.ival == nil {
		return asideInterval{}
	}
	return spanOf(t.Rows[i][t.BeginCol()], t.Rows[i][t.EndCol()], i)
}

// moved gives row i's period, just appended or moved by a Set, to the
// interval index, if built: it goes aside, and the tree's entry is stale.
func (t *Table) moved(i int) {
	idx := t.ival
	if idx == nil {
		return
	}
	idx.churn++
	idx.stale = append(idx.stale, make([]bool, len(t.Rows)-len(idx.stale))...)
	k := slices.IndexFunc(idx.aside, func(d asideInterval) bool { return d.ord == i })
	if k < 0 {
		idx.stale[i], k = true, len(idx.aside)
		idx.aside = append(idx.aside, asideInterval{})
	}
	idx.aside[k] = t.span(i)
	t.trimIval()
}

// retain renumbers the index for the rows but those at removed
// (ascending), n of them left.
func (idx *intervalIndex) retain(removed []int, n int) {
	idx.churn += len(removed)
	idx.root.each(func(iv *tableInterval) { iv.ord = renumbered(iv.ord, removed) })
	aside, stale := idx.aside[:0], idx.stale[:0]
	for _, d := range idx.aside {
		if d.ord = renumbered(d.ord, removed); d.ord >= 0 {
			aside = append(aside, d)
		}
	}
	for i, s := range idx.stale {
		if renumbered(i, removed) >= 0 {
			stale = append(stale, s)
		}
	}
	idx.aside, idx.stale = aside, append(stale, make([]bool, n-len(stale))...)
}

// each calls f with every entry of the node and those below it.
func (n *intervalNode) each(f func(*tableInterval)) {
	if n == nil {
		return
	}
	for k := range n.byBegin {
		f(&n.byBegin[k])
		f(&n.byEnd[k])
	}
	n.left.each(f)
	n.right.each(f)
}

// trimIval drops the interval index once the rows written since its
// build exceed an eighth of the rows, plus 16 (measured: EXPERIMENTS.md,
// "PERF — indexes kept across writes").
func (t *Table) trimIval() {
	if t.ival.churn > len(t.Rows)/8+16 {
		t.ival = nil
	}
}

// AppendOverlapping appends to dst, in ascending row order, the
// ordinals of rows whose [begin_time, end_time) period satisfies
// begin <= hi AND end > lo — the rows overlapping the closed range
// [lo, hi] (a stab query when lo == hi). Rows with non-temporal
// endpoint values are always included, so callers re-checking the
// originating predicates on the returned candidates get exact SQL
// semantics. Returns ok=false when the table has no period columns to
// index.
func (t *Table) AppendOverlapping(dst []int, lo, hi int64) (ords []int, ok bool) {
	idx := t.intervalIdx()
	if idx == nil {
		return dst, false
	}
	start := len(dst)
	dst = idx.root.query(lo, hi, dst)
	if idx.churn > 0 {
		kept := dst[:start]
		for _, o := range dst[start:] {
			if o >= 0 && !idx.stale[o] {
				kept = append(kept, o)
			}
		}
		dst = kept
	}
	for _, d := range idx.aside {
		if d.odd || d.begin <= hi && d.end > lo {
			dst = append(dst, d.ord)
		}
	}
	sort.Ints(dst[start:])
	return dst, true
}

// Overlapping is AppendOverlapping into a fresh slice.
func (t *Table) Overlapping(lo, hi int64) (ords []int, ok bool) {
	return t.AppendOverlapping(nil, lo, hi)
}
