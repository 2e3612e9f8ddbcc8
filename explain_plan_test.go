package taupsm_test

import (
	"errors"
	"testing"

	"taupsm"
	"taupsm/internal/enginetest"
	"taupsm/internal/taubench"
)

// EXPLAIN renders the plan that runs: for every corpus query, under each
// strategy setting, cold and warm, what Explain says beforehand is what
// the record of the execution that follows says happened — strategy,
// constant periods, workers, and whether the plan and its constant
// periods were already there. Under Auto the reason EXPLAIN prints is
// the one the execution counts when it decides, and a warm execution
// decides nothing.
func TestExplainIsThePlanThatRuns(t *testing.T) {
	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}
	hitMiss := func(hit bool) string {
		if hit {
			return "hit"
		}
		return "miss"
	}
	for _, strategy := range []taupsm.Strategy{taupsm.Auto, taupsm.Max, taupsm.PerStatement} {
		db := taupsm.Open()
		enginetest.LoadCorpus(t, db, spec)
		db.SetStrategy(strategy)
		db.SetParallelism(2)
		m := db.Metrics()
		for _, q := range taubench.Queries() {
			sql := taubench.SequencedSQL(q, 30)
			for _, state := range []string{"cold", "warm"} {
				e, err := db.Explain(sql)
				if err != nil {
					if strategy == taupsm.PerStatement && errors.Is(err, taupsm.ErrNotTransformable) {
						if _, qerr := db.Query(sql); !errors.Is(qerr, taupsm.ErrNotTransformable) {
							t.Errorf("%s/%s %s: EXPLAIN says not transformable, execution says %v", strategy, q.Name, state, qerr)
						}
						continue
					}
					t.Fatalf("%s/%s %s: explain: %v", strategy, q.Name, state, err)
				}
				reason := "stratum.auto.reason." + e.AutoReason + "_total"
				decided := m.Value(reason)
				ea, err := db.ExplainAnalyze(sql)
				if err != nil {
					t.Fatalf("%s/%s %s: %v", strategy, q.Name, state, err)
				}
				a := ea.Analyzed
				wantCP := ""
				if e.Strategy == taupsm.Max {
					wantCP = hitMiss(e.CPCacheHit)
				}
				if e.Strategy.String() != a.Strategy || int64(e.ConstantPeriods) != a.CPTotal ||
					int64(e.Parallelism) != max(a.Workers, 1) ||
					hitMiss(e.TranslationCacheHit) != a.TranslationCache || wantCP != a.CPCache {
					t.Errorf("%s/%s %s: EXPLAIN (%s, cp %d, workers %d, plan %s, cp %q) but ran (%s, cp %d, workers %d, plan %s, cp %q)",
						strategy, q.Name, state,
						e.Strategy, e.ConstantPeriods, e.Parallelism, hitMiss(e.TranslationCacheHit), wantCP,
						a.Strategy, a.CPTotal, max(a.Workers, 1), a.TranslationCache, a.CPCache)
				}
				if e.TranslationCacheHit != (state == "warm") {
					t.Errorf("%s/%s %s: translation_cache %s", strategy, q.Name, state, hitMiss(e.TranslationCacheHit))
				}
				if (e.AutoReason != "") != (strategy == taupsm.Auto) {
					t.Errorf("%s/%s %s: auto_reason %q", strategy, q.Name, state, e.AutoReason)
				}
				if strategy == taupsm.Auto {
					want := decided
					if state == "cold" {
						want++
					}
					if got := m.Value(reason); got != want {
						t.Errorf("%s/%s %s: %s = %d, want %d", strategy, q.Name, state, reason, got, want)
					}
				}
			}
		}
	}
}
