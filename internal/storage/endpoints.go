package storage

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Endpoints is the endpoint view of one period-column pair of a table:
// every row's period, the period ends in order, the distinct instants
// among begins and ends, and the sum of the period lengths. The constant
// periods of a context (§V-B), the rows a context overlaps and the
// statistics snapshots are all read off it. Unlike the indexes it is
// derived, never maintained: built on first use, rebuilt after the table
// version moves, which every write does. A view is immutable once built;
// callers must not modify its slices.
//
// An endpoint counts as its integer payload whatever its kind (a NULL as
// 0), which is how the stratum's fragment predicate reads it.
type Endpoints struct {
	version int64
	bc, ec  int

	periods []period // one per row, ascending by begin
	ends    []int64  // one per row, ascending
	// Points holds the distinct begins and ends, ascending.
	Points []int64
	// LenSum is the sum over the rows of end - begin.
	LenSum int64
	// ordered: every endpoint is a DATE or INT, the kinds whose payload
	// is their SQL order.
	ordered bool
	// inverted: some row ends before it begins. Only then can a row
	// both begin at or after a context and end at or before it.
	inverted bool
}

type period struct{ begin, end int64 }

// Endpoints returns the view of the period columns bc and ec, building
// it when missing or stale; nil when they are not columns of the table.
// Safe for concurrent readers.
func (t *Table) Endpoints(bc, ec int) *Endpoints {
	if n := len(t.Schema.Cols); bc < 0 || ec < 0 || bc >= n || ec >= n {
		return nil
	}
	t.mu.RLock()
	v := t.endpointsLocked(bc, ec)
	t.mu.RUnlock()
	if v != nil {
		return v
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v := t.endpointsLocked(bc, ec); v != nil {
		return v
	}
	v = t.buildEndpoints(bc, ec)
	for i, old := range t.ends {
		if old.bc == bc && old.ec == ec {
			t.ends[i] = v
			return v
		}
	}
	t.ends = append(t.ends, v)
	return v
}

// endpointsLocked returns the current view of (bc, ec), or nil; the
// caller holds t.mu. A table has at most two pairs, so a slice beats a map.
func (t *Table) endpointsLocked(bc, ec int) *Endpoints {
	for _, v := range t.ends {
		if v.bc == bc && v.ec == ec && v.version == t.version {
			return v
		}
	}
	return nil
}

func (t *Table) buildEndpoints(bc, ec int) *Endpoints {
	v := &Endpoints{version: t.version, bc: bc, ec: ec, ordered: true,
		periods: make([]period, len(t.Rows)), ends: make([]int64, len(t.Rows))}
	points := make([]int64, 0, 2*len(t.Rows))
	for i, row := range t.Rows {
		b, e := row[bc], row[ec]
		if !b.IsInstant() || !e.IsInstant() {
			v.ordered = false
		}
		v.periods[i] = period{b.I, e.I}
		v.ends[i] = e.I
		v.LenSum += e.I - b.I
		v.inverted = v.inverted || e.I < b.I
		points = append(points, b.I, e.I)
	}
	slices.SortFunc(v.periods, func(a, b period) int { return cmp.Compare(a.begin, b.begin) })
	slices.Sort(v.ends)
	slices.Sort(points)
	v.Points = slices.Compact(points)
	return v
}

// Inside returns the distinct endpoints strictly inside (b, e),
// ascending: the instants at which a context's constant periods split.
// The slice aliases the view.
func (v *Endpoints) Inside(b, e int64) []int64 {
	lo := sort.Search(len(v.Points), func(i int) bool { return v.Points[i] > b })
	hi := sort.Search(len(v.Points), func(i int) bool { return v.Points[i] >= e })
	if hi < lo {
		return nil
	}
	return v.Points[lo:hi]
}

// Overlapping returns the number of rows whose period meets the context
// (b, e) under the fragment predicate begin < e AND b < end: all rows
// but those beginning at or after e and those ending at or before b.
// A row can be both only when it ends before it begins or the context
// does, and then the rows are counted one by one.
func (v *Endpoints) Overlapping(b, e int64) int64 {
	if v.inverted || e <= b {
		n := int64(0)
		for _, p := range v.periods {
			if p.begin < e && b < p.end {
				n++
			}
		}
		return n
	}
	late := len(v.periods) - sort.Search(len(v.periods), func(i int) bool { return v.periods[i].begin >= e })
	early := sort.Search(len(v.ends), func(i int) bool { return v.ends[i] > b })
	return int64(len(v.periods) - late - early)
}

// Sweep walks the points left to right and calls depth with the
// number of rows covering each interval between neighbouring points.
func (v *Endpoints) Sweep(depth func(int64)) {
	var d int64
	bi, ei := 0, 0
	for i := 0; i+1 < len(v.Points); i++ {
		p := v.Points[i]
		for ; bi < len(v.periods) && v.periods[bi].begin == p; bi++ {
			d++
		}
		for ; ei < len(v.ends) && v.ends[ei] == p; ei++ {
			d--
		}
		depth(d)
	}
}

// ConstantPeriod returns the table's constant period [lo, hi) around the
// instant at: the greatest endpoint of any period column of any row that
// is <= at, and the least > at (the extremes of int64 when there is
// none); only [at, at+1) when the endpoints do not all order.
func (t *Table) ConstantPeriod(at int64) (lo, hi int64) {
	if !(t.ValidTime || t.TransactionTime) {
		return at, at + 1
	}
	lo, hi = math.MinInt64, math.MaxInt64
	for bc := t.BeginCol(); bc < len(t.Schema.Cols); bc += 2 { // both pairs of a bitemporal table
		v := t.Endpoints(bc, bc+1)
		if v == nil || !v.ordered {
			return at, at + 1
		}
		i := sort.Search(len(v.Points), func(i int) bool { return v.Points[i] > at })
		if i > 0 {
			lo = max(lo, v.Points[i-1])
		}
		if i < len(v.Points) {
			hi = min(hi, v.Points[i])
		}
	}
	return lo, hi
}
