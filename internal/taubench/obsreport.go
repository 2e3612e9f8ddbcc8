package taubench

import (
	"encoding/json"
	"io"
	"math"
	"runtime"
	"time"

	"taupsm"
)

// StageStat is the observed per-stage breakdown of one benchmark cell,
// taken from EXPLAIN ANALYZE: where the statement's wall-clock time
// went (translate, constant-period computation, execute, ...) plus the
// actual slicing counts the trace recorded.
type StageStat struct {
	Query       string `json:"query"`
	Strategy    string `json:"strategy"`
	ContextDays int    `json:"context_days"`

	TotalNS     int64 `json:"total_ns"`
	LintNS      int64 `json:"lint_ns,omitempty"`
	TranslateNS int64 `json:"translate_ns"`
	CPNS        int64 `json:"cp_ns,omitempty"`
	ExecuteNS   int64 `json:"execute_ns"`
	CommitNS    int64 `json:"commit_ns,omitempty"`
	FsyncNS     int64 `json:"fsync_ns,omitempty"`

	Rows            int    `json:"rows"`
	RoutineCalls    int64  `json:"routine_calls"`
	MemoHits        int64  `json:"memo_hits,omitempty"`
	ConstantPeriods int64  `json:"constant_periods,omitempty"`
	Fragments       int64  `json:"fragments,omitempty"`
	Workers         int    `json:"workers,omitempty"`
	Error           string `json:"error,omitempty"`
}

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
	Workload string `json:"workload"`
	Reps     int    `json:"reps"`

	OffNS       int64 `json:"off_ns"`        // min workload total, sampling off
	OffRepeatNS int64 `json:"off_repeat_ns"` // min of the second sampling-off pass (A/A)
	SampledNS   int64 `json:"sampled_ns"`    // min workload total, sampling every statement

	// OffOverheadPct is the A/A delta (off-repeat vs. off): the
	// empirical bound on the tracer's cost when sampling is off.
	OffOverheadPct float64 `json:"off_overhead_pct"`
	// SampledOverheadPct is the cost of tracing every statement into
	// the ring relative to sampling off.
	SampledOverheadPct float64 `json:"sampled_overhead_pct"`
}

// BatchQueryStat is one query's cell in the batched-execution
// comparison: best-of-rounds latency under each mode, plus the warm
// EXPLAIN ANALYZE evidence for the batched path — how many relation
// loads the shared prepared plan served and how many joins took the
// sweep-line algorithm during that statement.
type BatchQueryStat struct {
	Query       string  `json:"query"`
	BatchedNS   int64   `json:"batched_ns"`
	UnbatchedNS int64   `json:"unbatched_ns"`
	Speedup     float64 `json:"speedup"` // unbatched/batched, per query

	PlanReuseHits int64 `json:"plan_reuse_hits"`
	SweepJoins    int64 `json:"sweep_joins"`
}

// BatchStat quantifies the batched-execution features on one workload:
// the MAX statement sequence measured with the shared prepared plan and
// the sweep-line interval join enabled (the default) versus both
// ablated. The methodology is MeasureOverhead's: modes interleave
// within each round, each mode's total is the sum of per-query minima,
// and a second batched pass (A/A) bounds the measurement noise so the
// reported speedup can be read against it.
type BatchStat struct {
	Workload string `json:"workload"`
	Reps     int    `json:"reps"`

	BatchedNS       int64 `json:"batched_ns"`
	BatchedRepeatNS int64 `json:"batched_repeat_ns"` // A/A noise bound
	UnbatchedNS     int64 `json:"unbatched_ns"`

	// NoiseBoundPct is the A/A delta between the two batched passes.
	NoiseBoundPct float64 `json:"noise_bound_pct"`
	// SpeedupPct is the workload-total speedup of batched over
	// unbatched, percent (positive = batched faster).
	SpeedupPct float64 `json:"speedup_pct"`
	// GeomeanSpeedup is the geometric mean of the per-query
	// unbatched/batched ratios (>1 = batched faster).
	GeomeanSpeedup float64 `json:"geomean_speedup"`

	Queries []BatchQueryStat `json:"queries"`
}

// ObsReport is the observability benchmark artifact (BENCH_3.json,
// BENCH_4.json): per-query span-stage breakdowns from EXPLAIN ANALYZE,
// the tracer-overhead comparison, and (since BENCH_4) the
// batched-execution A/B on the MAX one-month and one-year workloads.
type ObsReport struct {
	Dataset   string         `json:"dataset"`
	Size      string         `json:"size"`
	Reps      int            `json:"reps"`
	Generated string         `json:"generated"`
	Stages    []StageStat    `json:"stages"`
	Overhead  []OverheadStat `json:"overhead"`
	Batch     []BatchStat    `json:"batch,omitempty"`
}

// StageBreakdown measures one cell with EXPLAIN ANALYZE and returns
// the statement record's stage durations and counts. The analyzed
// execution is traced, so its absolute total includes span delivery;
// the Overhead stats quantify that cost separately.
func (r *Runner) StageBreakdown(q Query, strategy taupsm.Strategy, contextDays int) StageStat {
	s := StageStat{Query: q.Name, Strategy: strategy.String(), ContextDays: contextDays}
	r.DB.SetStrategy(strategy)
	defer r.DB.SetStrategy(taupsm.Auto)
	e, err := r.DB.ExplainAnalyze(sequencedSQL(q, contextDays))
	if err != nil {
		s.Error = err.Error()
		return s
	}
	a := e.Analyzed
	s.TotalNS = a.ElapsedNS
	s.LintNS = a.StageNS("lint")
	s.TranslateNS = a.StageNS("translate")
	s.CPNS = a.StageNS("cp")
	s.ExecuteNS = a.StageNS("execute")
	s.CommitNS = a.StageNS("commit")
	s.FsyncNS = a.FsyncNS
	s.Rows = int(a.Rows)
	s.RoutineCalls = a.RoutineCalls
	s.MemoHits = a.MemoHits
	s.ConstantPeriods = a.CPTotal
	s.Fragments = a.Fragments
	s.Workers = int(a.Workers)
	return s
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
		Workload: "MAX sweep, context " + ContextLabel(contextDays),
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

// MeasureBatch compares the MAX workload at one context length with
// the batched-execution features (shared prepared plan + sweep-line
// join) on versus off, using MeasureOverhead's interleaved per-query-
// minimum methodology. A warm-up pass populates the translation cache
// and the prepared plans first — the plan-once/execute-many scenario
// the features target — then each round runs batched, batched again
// (the A/A noise bound) and unbatched, alternating the order of the
// two batched passes. After measurement, one EXPLAIN ANALYZE per query
// records the warm batched path's plan-reuse hits and sweep-join
// count.
func (r *Runner) MeasureBatch(contextDays, reps int) BatchStat {
	if reps < 1 {
		reps = 1
	}
	b := BatchStat{
		Workload: "MAX sweep, context " + ContextLabel(contextDays),
		Reps:     reps,
	}
	eng := r.DB.Engine()
	setBatched := func(on bool) {
		eng.DisablePlanReuse, eng.DisableSweepJoin = !on, !on
	}
	setBatched(true)
	r.runWorkload(contextDays) // warm-up: caches and prepared plans
	pass := func(on bool) []time.Duration {
		runtime.GC()
		setBatched(on)
		return r.runWorkload(contextDays)
	}
	var batched, batchedRepeat, unbatched []time.Duration
	for i := 0; i < reps; i++ {
		// Rotate the slot each mode occupies within a round: CPU
		// frequency and cache state drift over a round, so a fixed
		// order would systematically favor whichever mode runs last.
		var a, c, u []time.Duration
		switch i % 3 {
		case 0:
			a, c, u = pass(true), pass(true), pass(false)
		case 1:
			u, a, c = pass(false), pass(true), pass(true)
		case 2:
			c, u, a = pass(true), pass(false), pass(true)
		}
		if i%2 == 1 {
			a, c = c, a
		}
		batched = minInto(batched, a)
		batchedRepeat = minInto(batchedRepeat, c)
		unbatched = minInto(unbatched, u)
	}
	setBatched(true)

	var logSum float64
	ratios := 0
	for i, q := range Queries() {
		qs := BatchQueryStat{
			Query:       q.Name,
			BatchedNS:   int64(batched[i]),
			UnbatchedNS: int64(unbatched[i]),
		}
		if qs.BatchedNS > 0 && qs.UnbatchedNS > 0 {
			qs.Speedup = float64(qs.UnbatchedNS) / float64(qs.BatchedNS)
			logSum += math.Log(qs.Speedup)
			ratios++
		}
		r.DB.SetStrategy(taupsm.Max)
		if e, err := r.DB.ExplainAnalyze(sequencedSQL(q, contextDays)); err == nil {
			qs.PlanReuseHits = e.Analyzed.PlanReuseHits
			qs.SweepJoins = e.Analyzed.SweepJoins
		}
		r.DB.SetStrategy(taupsm.Auto)
		b.Queries = append(b.Queries, qs)
	}

	b.BatchedNS = sum(batched)
	b.BatchedRepeatNS = sum(batchedRepeat)
	b.UnbatchedNS = sum(unbatched)
	if b.BatchedNS > 0 {
		b.NoiseBoundPct = math.Abs(100 * float64(b.BatchedRepeatNS-b.BatchedNS) / float64(b.BatchedNS))
		b.SpeedupPct = 100 * float64(b.UnbatchedNS-b.BatchedNS) / float64(b.BatchedNS)
	}
	if ratios > 0 {
		b.GeomeanSpeedup = math.Exp(logSum / float64(ratios))
	}
	return b
}

// BuildObsReport sweeps the stage breakdown of every query at every
// context length under both strategies, then measures tracer overhead
// on the MAX one-month workload.
func (r *Runner) BuildObsReport(contexts []int, reps int) *ObsReport {
	rep := &ObsReport{
		Dataset:   r.Stats.Spec.Name,
		Size:      r.Stats.Spec.Size.String(),
		Reps:      reps,
		Generated: time.Now().UTC().Format(time.RFC3339),
	}
	for _, q := range Queries() {
		for _, c := range contexts {
			for _, s := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
				if strategyEnabled(s) {
					rep.Stages = append(rep.Stages, r.StageBreakdown(q, s, c))
				}
			}
		}
	}
	rep.Overhead = append(rep.Overhead, r.MeasureOverhead(30, reps))
	// Batched-execution A/B: the one-month workload shows the prepared
	// plan's reuse wins; the one-year workload additionally gives the
	// cost model enough constant periods to choose the sweep-line join.
	rep.Batch = append(rep.Batch, r.MeasureBatch(30, reps), r.MeasureBatch(365, reps))
	return rep
}

// WriteJSON renders the observability report as indented JSON.
func (rep *ObsReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
