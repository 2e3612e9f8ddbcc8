// Package temporal implements the SQL/Temporal period algebra the
// stratum relies on: half-open valid-time periods, overlap and
// intersection, coalescing, timeslicing, and the constant-period
// computation at the heart of maximally-fragmented slicing (paper §V-A).
package temporal

import (
	"fmt"
	"slices"
	"sort"

	"taupsm/internal/types"
)

// Period is a half-open valid-time period [Begin, End) in epoch days.
// The half-open convention matches the paper's predicates
// (begin_time <= p AND p < end_time).
type Period struct {
	Begin int64
	End   int64
}

// All is the period covering all of time.
var All = Period{Begin: -1 << 40, End: types.Forever}

// Valid reports whether the period is non-empty.
func (p Period) Valid() bool { return p.Begin < p.End }

// Contains reports whether instant t lies within the period.
func (p Period) Contains(t int64) bool { return p.Begin <= t && t < p.End }

// Duration returns the number of granules (days) in the period.
func (p Period) Duration() int64 {
	if !p.Valid() {
		return 0
	}
	return p.End - p.Begin
}

// String renders the period as [YYYY-MM-DD, YYYY-MM-DD).
func (p Period) String() string {
	return fmt.Sprintf("[%s, %s)", types.FormatDate(p.Begin), types.FormatDate(p.End))
}

// FIRST_INSTANCE and LAST_INSTANCE are the stored helper functions the
// paper's Figure 4 relies on ("return the earlier or later,
// respectively, of the two argument times").

// FirstInstance returns the earlier of two instants.
func FirstInstance(a, b int64) int64 { return min(a, b) }

// LastInstance returns the later of two instants.
func LastInstance(a, b int64) int64 { return max(a, b) }

// ConstantPeriods computes the constant periods of a set of timestamped
// rows (paper §V-A): collect every begin and end time, restrict to the
// temporal context, and return the adjacent pairs of the sorted distinct
// time points. Within each returned period, no input row starts or
// stops being valid, so any sequenced evaluation is constant there.
//
// points is the multiset of begin/end instants of every row of every
// reachable temporal table; context delimits the query's temporal
// context (min_time/max_time in Figure 8).
func ConstantPeriods(points []int64, context Period) []Period {
	if !context.Valid() {
		return nil
	}
	// Sort + dedup, clamping to the context. The context bounds
	// themselves are modification points (the slice must not leak
	// outside the requested period).
	ps := make([]int64, 0, len(points)+2)
	for _, t := range points {
		if t > context.Begin && t < context.End {
			ps = append(ps, t)
		}
	}
	ps = append(ps, context.Begin, context.End)
	slices.Sort(ps)
	ps = slices.Compact(ps)
	out := make([]Period, len(ps)-1)
	for i := range out {
		out[i] = Period{Begin: ps[i], End: ps[i+1]}
	}
	return out
}

// TimestampedRow pairs an arbitrary row key with its validity period;
// it is the currency of Coalesce.
type TimestampedRow struct {
	Key    string
	Period Period
}

// Coalesce merges value-equivalent rows with adjacent or overlapping
// periods into maximal periods, the canonical form used when comparing
// sequenced results for equivalence (paper §VII-B commutativity tests).
// The input order is not preserved; output is sorted by (Key, Begin).
func Coalesce(rows []TimestampedRow) []TimestampedRow {
	sorted := make([]TimestampedRow, len(rows))
	copy(sorted, rows)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Key != sorted[j].Key {
			return sorted[i].Key < sorted[j].Key
		}
		if sorted[i].Period.Begin != sorted[j].Period.Begin {
			return sorted[i].Period.Begin < sorted[j].Period.Begin
		}
		return sorted[i].Period.End < sorted[j].Period.End
	})
	out := make([]TimestampedRow, 0, len(sorted))
	for _, r := range sorted {
		if !r.Period.Valid() {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Key == r.Key && out[n-1].Period.End >= r.Period.Begin {
			if r.Period.End > out[n-1].Period.End {
				out[n-1].Period.End = r.Period.End
			}
			continue
		}
		out = append(out, r)
	}
	return out
}
