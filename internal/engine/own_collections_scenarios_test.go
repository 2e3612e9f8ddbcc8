package engine_test

import (
	"fmt"
	"testing"

	"taupsm"
	"taupsm/internal/engine"
	"taupsm/internal/enginetest"
	"taupsm/internal/taubench"
)

// The scenario half of TestOwnCollectionsDieWithTheCall: the enginetest
// scenarios and the 16-query corpus return under MAX and PERST, with the
// session's emptied scratch poisoned (engine.SetPoisonSpares) — the arenas
// of reused collection tables before their next carve, the key arenas of
// the function memo and of hash tables when their maps are cleared, the
// row lists of build sides when they are popped — exactly the rows,
// errors and engine counters they return with it off. A row an INSERT
// does not write in full, a value read past the rows of a reused table, a
// key read after its map was cleared or a build side read after its pop
// shows the poison.
func TestPoisonedSparesAreInvisible(t *testing.T) {
	// outcomes runs every statement of the workload on a fresh database
	// and renders what each returned and the counters it moved.
	outcomes := func(poison bool, load func(db *taupsm.DB, do func(label, src string, query bool))) []string {
		engine.SetPoisonSpares(poison)
		defer engine.SetPoisonSpares(false)
		db := taupsm.Open()
		defer db.Close()
		var out []string
		load(db, func(label, src string, query bool) {
			before := db.Engine().Stats
			var got string
			if query {
				got = outcome(db.Query(src))
			} else {
				got = outcome(db.Exec(src))
			}
			after := db.Engine().Stats
			out = append(out, fmt.Sprintf("%s: %s\n%s\ncalls %d hits %d reused %d scanned %d returned %d statements %d writes %d probes %d plan hits %d",
				label, src, got, after.RoutineCalls-before.RoutineCalls, after.RoutineMemoHits-before.RoutineMemoHits,
				after.ReusedCalls-before.ReusedCalls, after.RowsScanned-before.RowsScanned, after.RowsReturned-before.RowsReturned,
				after.Statements-before.Statements, after.LogWrites-before.LogWrites, after.IntervalProbes-before.IntervalProbes,
				after.PlanReuseHits-before.PlanReuseHits))
		})
		return out
	}
	compare := func(t *testing.T, load func(db *taupsm.DB, do func(label, src string, query bool))) int {
		off, on := outcomes(false, load), outcomes(true, load)
		if len(off) != len(on) {
			t.Fatalf("%d statements ran with poison off, %d with it on", len(off), len(on))
		}
		for i := range off {
			if off[i] != on[i] {
				t.Errorf("poison off:\n%s\npoison on:\n%s", off[i], on[i])
			}
		}
		return len(off)
	}
	strategies := []taupsm.Strategy{taupsm.Max, taupsm.PerStatement}

	compared := 0
	for _, sc := range enginetest.Scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			compared += compare(t, func(db *taupsm.DB, do func(label, src string, query bool)) {
				now := sc.Now
				if now == (enginetest.Clock{}) {
					now = enginetest.Clock{Year: 2011, Month: 1, Day: 1}
				}
				db.SetNow(now.Year, now.Month, now.Day)
				for i, st := range append(append([]enginetest.Step{}, sc.Setup...), sc.Steps...) {
					if st.SetNow != nil {
						db.SetNow(st.SetNow.Year, st.SetNow.Month, st.SetNow.Day)
					}
					switch {
					case st.Exec != "":
						do(fmt.Sprintf("step %d", i), st.Exec, false)
					case st.Query != "":
						for _, s := range strategies {
							db.SetStrategy(s)
							do(fmt.Sprintf("step %d [%s]", i, s), st.Query, true)
						}
					}
				}
			})
		})
	}
	t.Run("corpus", func(t *testing.T) {
		spec, err := taubench.SpecByName("DS1", taubench.Small)
		if err != nil {
			t.Fatal(err)
		}
		compared += compare(t, func(db *taupsm.DB, do func(label, src string, query bool)) {
			enginetest.LoadCorpus(t, db, spec)
			for _, q := range taubench.Queries() {
				for _, s := range strategies {
					db.SetStrategy(s)
					// Twice each: the second run's calls reuse the tables
					// the first run's left.
					for run := range 2 {
						do(fmt.Sprintf("%s 1y [%s] run %d", q.Name, s, run), taubench.SequencedSQL(q, 365), true)
						do(fmt.Sprintf("%s current [%s] run %d", q.Name, s, run), q.Text, true)
					}
				}
			}
		})
	})
	if compared < 400 {
		t.Errorf("only %d statements compared", compared)
	}
	t.Logf("%d statements compared", compared)
}
