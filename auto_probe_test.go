package taupsm_test

import (
	"errors"
	"fmt"
	"testing"

	"taupsm"
	"taupsm/internal/core"
	"taupsm/internal/enginetest"
	"taupsm/internal/taubench"
)

// Auto chooses what the PERST probe would have chosen. Over the corpus,
// contexts of 1, 3, 7, 8, 30 and 365 days and none, on the running
// example's small database and on DS1-SMALL, before and after ANALYZE,
// EXPLAIN's strategy equals core.Choose over the features read off an
// explicit PERST translation (MAX where that translation fails). Auto
// now decides clause (c) before it translates, so the reason it gives
// may differ from the probe's only where (c) holds, and there it is
// short_context.
func TestAutoChoosesWhatTheProbeChose(t *testing.T) {
	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}
	ds1 := taupsm.Open()
	enginetest.LoadCorpus(t, ds1, spec)
	for _, c := range []struct {
		name string
		db   *taupsm.DB
	}{{"paper", taupsm.PaperDB(t)}, {"DS1-SMALL", ds1}} {
		for _, analyzed := range []bool{false, true} {
			if analyzed {
				c.db.MustExec(`ANALYZE`)
			}
			for _, q := range taubench.Queries() {
				for _, days := range []int{1, 3, 7, 8, 30, 365, 0} {
					src := "VALIDTIME " + q.Text
					if days > 0 {
						src = taubench.SequencedSQL(q, days)
					}
					where := fmt.Sprintf("%s (analyzed %v) %s/%dd", c.name, analyzed, q.Name, days)
					e, err := c.db.Explain(src)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					f, perr, err := c.db.ProbedFeatures(src)
					if err != nil {
						t.Fatal(err)
					}
					want, reason := core.ChooseExplained(f, nil)
					if perr != nil && !errors.Is(perr, taupsm.ErrNotTransformable) {
						want, reason = core.StrategyMax, core.ReasonProbeError
					}
					if f.TemporalRows <= core.SmallRowsThreshold && f.ContextDays <= core.ShortContextDays {
						reason = core.ReasonShortContext
					}
					if e.Strategy != want || e.AutoReason != string(reason) {
						t.Errorf("%s: Auto says (%v, %s), the probe (%v, %s)", where, e.Strategy, e.AutoReason, want, reason)
					}
				}
			}
		}
	}
}

// q17b's non-nested FETCH is beyond PERST. At a 1-day context on
// DS1-SMALL the probe would have said perst_not_transformable; Auto no
// longer translates it, says short_context, notes no PERST fallback,
// and returns MAX's rows.
func TestShortContextDecidesBeforeTheProbe(t *testing.T) {
	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}
	db := taupsm.Open()
	enginetest.LoadCorpus(t, db, spec)
	q, _ := taubench.QueryByName("q17b")
	src := taubench.SequencedSQL(q, 1)
	if _, err := db.Translate(src, taupsm.PerStatement); !errors.Is(err, taupsm.ErrNotTransformable) {
		t.Fatalf("PERST says %v, want not transformable", err)
	}
	e, err := db.Explain(src)
	if err != nil {
		t.Fatal(err)
	}
	if e.Strategy != taupsm.Max || e.AutoReason != string(core.ReasonShortContext) {
		t.Fatalf("Auto says (%v, %s), want (MAX, short_context)", e.Strategy, e.AutoReason)
	}
	auto, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if note := db.LastFallbackNote(); note != "" {
		t.Errorf("fallback note %q after a short-context decision", note)
	}
	db.SetStrategy(taupsm.Max)
	max, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if a, m := enginetest.RenderRows(auto), enginetest.RenderRows(max); a != m || len(auto.Rows) == 0 {
		t.Errorf("Auto returns\n%s\nMAX\n%s", a, m)
	}
}
