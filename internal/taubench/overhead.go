package taubench

import (
	"fmt"
	"runtime"
	"time"

	"taupsm"
)

// OverheadStat quantifies the tracer's cost on one workload: the same
// statement sequence measured with trace sampling off (one atomic load
// per statement) and with every statement sampled into the span ring.
//
// OffRepeatNS is a second sampling-off pass; its delta from OffNS is
// the run-to-run measurement noise, which bounds from above whatever
// the disabled instrumentation costs (an A/A comparison — the
// instrumented-but-off binary is compared against itself, since the
// uninstrumented binary no longer exists).
type OverheadStat struct {
	Workload string
	Reps     int

	OffNS       int64 // min workload total, sampling off
	OffRepeatNS int64 // min of the second sampling-off pass (A/A)
	SampledNS   int64 // min workload total, sampling every statement

	// OffOverheadPct is the A/A delta (off-repeat vs. off): the
	// empirical bound on the tracer's cost when sampling is off.
	OffOverheadPct float64
	// SampledOverheadPct is the cost of tracing every statement into
	// the ring relative to sampling off.
	SampledOverheadPct float64
}

// String renders the comparison as the text taubench -exp overhead
// prints.
func (o OverheadStat) String() string {
	return fmt.Sprintf("tracer overhead: %s (reps=%d)\n"+
		"  sampling off        %12s\n"+
		"  sampling off (A/A)  %12s  %+6.1f%%  (noise bound)\n"+
		"  every statement     %12s  %+6.1f%%\n",
		o.Workload, o.Reps, time.Duration(o.OffNS),
		time.Duration(o.OffRepeatNS), o.OffOverheadPct,
		time.Duration(o.SampledNS), o.SampledOverheadPct)
}

// runWorkload executes every benchmark query once under MAX at the
// given context length and returns each query's elapsed time, indexed
// as Queries() (zero for statements the strategy cannot run — which
// fail identically in every pass, so the passes stay comparable).
func (r *Runner) runWorkload(contextDays int) []time.Duration {
	out := make([]time.Duration, len(Queries()))
	for i, q := range Queries() {
		m := r.RunSequenced(q, taupsm.Max, contextDays)
		if m.Err == nil {
			out[i] = m.Elapsed
		}
	}
	return out
}

// minInto folds one pass's per-query times into the per-query minima.
func minInto(best, pass []time.Duration) []time.Duration {
	if best == nil {
		return pass
	}
	for i, d := range pass {
		if d < best[i] {
			best[i] = d
		}
	}
	return best
}

func sum(ds []time.Duration) int64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return int64(t)
}

// MeasureOverhead compares the MAX workload at one context length
// across sampling modes: off, off again (the A/A noise bound), and
// every statement sampled. The three modes are interleaved within each
// round (so drift — GC debt, frequency scaling — hits all three alike)
// and each mode's workload total is the sum of per-query minima over
// all rounds: the standard best-case aggregation for overhead bounds,
// since every source of noise only ever adds time, and taking the
// minimum per query converges far faster than the minimum of whole-
// pass sums. A warm-up pass runs first so cache population is not
// billed to the first measured mode.
func (r *Runner) MeasureOverhead(contextDays, reps int) OverheadStat {
	if reps < 1 {
		reps = 1
	}
	o := OverheadStat{
		Workload: "MAX workload, context " + ContextLabel(contextDays),
		Reps:     reps,
	}
	r.DB.SetTraceSampling(0)
	r.runWorkload(contextDays) // warm-up: translation/CP caches, fnmemo
	// Collect before every pass, not just every round: the pass after a
	// GC otherwise runs on a fresh heap while the next pass inherits its
	// debt, which reads as phantom overhead on whichever mode runs later.
	pass := func(sampling int) []time.Duration {
		runtime.GC()
		r.DB.SetTraceSampling(sampling)
		return r.runWorkload(contextDays)
	}
	// The two off passes alternate order across rounds so neither is
	// always the one running right after the previous round's sampled
	// pass — position in the round is itself worth a percent or two.
	var off, offRepeat, sampled []time.Duration
	for i := 0; i < reps; i++ {
		a, b := pass(0), pass(0)
		if i%2 == 1 {
			a, b = b, a
		}
		off = minInto(off, a)
		offRepeat = minInto(offRepeat, b)
		sampled = minInto(sampled, pass(1))
	}
	r.DB.SetTraceSampling(0)

	o.OffNS = sum(off)
	o.OffRepeatNS = sum(offRepeat)
	o.SampledNS = sum(sampled)
	if o.OffNS > 0 {
		o.OffOverheadPct = 100 * float64(o.OffRepeatNS-o.OffNS) / float64(o.OffNS)
		o.SampledOverheadPct = 100 * float64(o.SampledNS-o.OffNS) / float64(o.OffNS)
	}
	return o
}
