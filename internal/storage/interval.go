package storage

import "sort"

// intervalIndex is a centered interval tree over the half-open
// [begin_time, end_time) periods of a temporal table's rows. It
// answers "which rows overlap [lo, hi]" — exactly the shape of the
// point predicates MAX slicing injects (begin_time <= P AND
// P < end_time is the stab query lo = hi = P) — in O(log n + k)
// instead of a full scan. Like the hash indexes it is built lazily
// and invalidated by the table version counter.
type intervalIndex struct {
	version int64
	root    *intervalNode
	// odd holds ordinals of rows whose period endpoints are not plain
	// DATE/INT values (NULLs, strings). They are returned with every
	// query so the caller's residual predicate evaluation — which all
	// index users perform — keeps exact SQL semantics for them.
	odd []int
	// empt holds degenerate periods (end <= begin). They contain no
	// stab point but the index predicate begin <= hi AND end > lo can
	// still admit them for range queries — and the centered tree cannot
	// partition them (an empty interval can sit exactly on every
	// center, so the recursion would never shrink), so they are kept
	// aside and filtered linearly.
	empt []tableInterval
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
// missing or stale. Safe for concurrent readers. Returns nil when the
// table has no temporal period columns.
func (t *Table) intervalIdx() *intervalIndex {
	if !(t.ValidTime || t.TransactionTime) || len(t.Schema.Cols) < 2 {
		return nil
	}
	t.mu.RLock()
	idx := t.ival
	if idx != nil && idx.version == t.version {
		t.mu.RUnlock()
		return idx
	}
	t.mu.RUnlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ival == nil || t.ival.version != t.version {
		t.ival = t.buildIntervalIdx()
	}
	return t.ival
}

// buildIntervalIdx constructs the index; caller holds the write lock.
func (t *Table) buildIntervalIdx() *intervalIndex {
	bc, ec := t.BeginCol(), t.EndCol()
	idx := &intervalIndex{version: t.version}
	ivs := make([]tableInterval, 0, len(t.Rows))
	for i, row := range t.Rows {
		b, e := row[bc], row[ec]
		if !b.IsInstant() || !e.IsInstant() {
			idx.odd = append(idx.odd, i)
			continue
		}
		iv := tableInterval{begin: b.I, end: e.I, ord: i}
		if iv.end <= iv.begin {
			idx.empt = append(idx.empt, iv)
			continue
		}
		ivs = append(ivs, iv)
	}
	idx.root = buildIntervalTree(ivs)
	return idx
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
	for _, iv := range idx.empt {
		if iv.begin <= hi && iv.end > lo {
			dst = append(dst, iv.ord)
		}
	}
	dst = append(dst, idx.odd...)
	sort.Ints(dst[start:])
	return dst, true
}

// Overlapping is AppendOverlapping into a fresh slice.
func (t *Table) Overlapping(lo, hi int64) (ords []int, ok bool) {
	return t.AppendOverlapping(nil, lo, hi)
}
