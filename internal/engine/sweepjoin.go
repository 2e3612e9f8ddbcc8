package engine

import (
	"sort"

	"taupsm/internal/core"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// sweepCands is the sweep-line alternative to the per-row interval-stab
// probe in joinRels: instead of descending the right table's interval
// tree once per left row (allocating and re-sorting a candidate list
// each time), it sorts the left rows' stab points once, walks the
// right side's begin-sorted spans once, and maintains the set of open
// intervals in a min-heap on end. Every left row receives exactly the
// candidate set Overlapping would have returned — open spans plus the
// rows with non-temporal endpoints, in ascending row order — and
// joinRels still evaluates all rest conjuncts (the stab pair included)
// per candidate, so results and row order are bit-identical to the
// probe and nested-loop paths.
//
// Whether the sweep pays off is decided by core.ChooseJoin from the
// relation sizes and, when the table has been ANALYZEd, the overlap
// depth recorded by internal/stats — deep overlap makes per-probe
// candidate collection expensive and favors the shared sweep.
// Returns nil when the sweep was not chosen or spans are unavailable;
// the caller falls back to the probe path.
func (db *DB) sweepCands(ctx *execCtx, left, right *rel, jp *joinPlan) func(int) ([]int, bool, error) {
	if db.DisableSweepJoin {
		return nil
	}
	fullTable := right.n == len(right.tab.Rows)
	depth, analyzed := db.TabStats.OverlapDepth(right.tab)
	if !analyzed {
		depth = 0
	}
	sweep, _ := core.ChooseJoin(core.JoinFeatures{
		OuterRows:    int64(left.n),
		InnerRows:    int64(right.n),
		OverlapDepth: depth,
		SpansCached:  fullTable || right.prepEnt != nil,
	})
	if !sweep {
		return nil
	}
	spans, odd, ok := db.spansForRel(right, fullTable)
	if !ok {
		return nil
	}

	// Pass 1: evaluate the stab point of every left row. Rows where X
	// is not a plain date/int fall back to the full inner iteration,
	// exactly as in the probe path.
	type stabPt struct {
		p int64
		i int
	}
	pts := make([]stabPt, 0, left.n)
	evaluable := make([]bool, left.n)
	for i := 0; i < left.n; i++ {
		ctx.scope.bind(left, i)
		if v, err := db.evalExpr(ctx, jp.stab); err == nil &&
			(v.Kind == types.KindDate || v.Kind == types.KindInt) {
			pts = append(pts, stabPt{p: v.I, i: i})
			evaluable[i] = true
		}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].p < pts[b].p })

	// Pass 2: sweep. Spans with begin <= p enter the heap; spans with
	// end <= p leave (the half-open [begin, end) semantics of
	// Overlapping). All points with the same value share one candidate
	// slice.
	db.Stats.SweepJoins++
	cand := make([][]int, left.n)
	var h spanHeap
	si := 0
	for k := 0; k < len(pts); {
		p := pts[k].p
		for si < len(spans) && spans[si].Begin <= p {
			h.push(spans[si])
			si++
		}
		for len(h) > 0 && h[0].End <= p {
			h.pop()
		}
		js := make([]int, 0, len(h)+len(odd))
		for _, s := range h {
			js = append(js, s.Ord)
		}
		js = append(js, odd...)
		sort.Ints(js)
		for ; k < len(pts) && pts[k].p == p; k++ {
			cand[pts[k].i] = js
		}
	}

	// joinRels emits in the original left-row order.
	return func(i int) ([]int, bool, error) { return cand[i], !evaluable[i], nil }
}

// spansForRel returns the right relation's periods as begin-sorted
// spans whose Ord indexes right.rows, plus the row indexes with
// non-temporal endpoints. A full-table scan uses the spans cached on
// the storage interval index (row index == table ordinal there); a
// filtered relation builds them from its own rows, caching on the
// prepared entry when one is attached.
func (db *DB) spansForRel(right *rel, fullTable bool) (spans []storage.IntervalSpan, odd []int, ok bool) {
	if fullTable {
		return right.tab.SortedSpans()
	}
	if ent := right.prepEnt; ent != nil {
		if sp, od, built, valid := ent.cachedSpans(); built {
			return sp, od, valid
		}
	}
	spans, odd, ok = buildRelSpans(right)
	if ent := right.prepEnt; ent != nil {
		ent.putSpans(spans, odd, ok)
	}
	return spans, odd, ok
}

// buildRelSpans extracts [begin, end) spans from a filtered scan's
// rows, sorted ascending by begin (ties by row index).
func buildRelSpans(right *rel) (spans []storage.IntervalSpan, odd []int, ok bool) {
	t := right.tab
	if !(t.ValidTime || t.TransactionTime) || len(t.Schema.Cols) < 2 {
		return nil, nil, false
	}
	bc, ec := t.BeginCol(), t.EndCol()
	spans = make([]storage.IntervalSpan, 0, right.n)
	for j, row := range right.ents[0] {
		b, e := row[bc], row[ec]
		if (b.Kind == types.KindDate || b.Kind == types.KindInt) &&
			(e.Kind == types.KindDate || e.Kind == types.KindInt) {
			spans = append(spans, storage.IntervalSpan{Begin: b.I, End: e.I, Ord: j})
		} else {
			odd = append(odd, j)
		}
	}
	sort.Slice(spans, func(a, b int) bool {
		if spans[a].Begin != spans[b].Begin {
			return spans[a].Begin < spans[b].Begin
		}
		return spans[a].Ord < spans[b].Ord
	})
	return spans, odd, true
}

// spanHeap is a binary min-heap of open spans ordered by End.
type spanHeap []storage.IntervalSpan

func (h *spanHeap) push(s storage.IntervalSpan) {
	*h = append(*h, s)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].End <= q[i].End {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

func (h *spanHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && q[l].End < q[least].End {
			least = l
		}
		if r < n && q[r].End < q[least].End {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
}
