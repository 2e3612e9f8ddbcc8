package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the samples
// at or below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median is the middle sample (mean of the two middle ones for an even
// count). It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive samples; zero and negative
// samples are skipped (a class with no samples has no latency).
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a metric with nothing to divide by
// reads 0 rather than NaN, which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one traced interval: a call into one layer on behalf of one
// statement. Parent is the index of the enclosing span in the recorder
// (-1 for a statement's root span).
type span struct {
	Name   string `json:"name"`
	Stmt   int    `json:"stmt"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children of one parent may
// overlap (parallel parts); the covered part is the union of their
// intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}
