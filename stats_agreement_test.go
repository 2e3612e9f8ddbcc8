package taupsm_test

// Agreement tests on the 16-query benchmark corpus. Estimates: after
// ANALYZE, EXPLAIN's registry estimates must track the actual slicing
// numbers — est_rows exactly (the endpoint multisets are exact), and
// est_constant_periods as a tight upper bound that collapses to
// equality for single-table statements. Surfaces: every way of looking
// at one statement renders the one record it filled, and looking does
// not change what runs.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"taupsm"
	"taupsm/internal/taubench"
)

func TestExplainEstimateAgreementOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the DS1/SMALL benchmark dataset")
	}
	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}
	r, err := taubench.NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer r.DB.Close()
	r.DB.MustExec(`ANALYZE`)
	r.DB.SetStrategy(taupsm.Max) // actual ConstantPeriods is a MAX-plan number

	checked := 0
	for _, q := range taubench.Queries() {
		for _, days := range []int{7, 30} {
			e, err := r.DB.Explain(taubench.SequencedSQL(q, days))
			if err != nil {
				t.Fatalf("%s/%dd: %v", q.Name, days, err)
			}
			if e.Kind != "sequenced" || len(e.TemporalTables) == 0 {
				continue
			}
			if !e.HasStats {
				t.Fatalf("%s/%dd: estimates missing after ANALYZE (tables %v)", q.Name, days, e.TemporalTables)
			}
			if int(e.EstRows) != e.Fragments {
				t.Errorf("%s/%dd: est_rows %d != fragments %d", q.Name, days, e.EstRows, e.Fragments)
			}
			if int(e.EstConstantPeriods) < e.ConstantPeriods {
				t.Errorf("%s/%dd: est_constant_periods %d under-estimates actual %d",
					q.Name, days, e.EstConstantPeriods, e.ConstantPeriods)
			}
			if len(e.TemporalTables) == 1 && int(e.EstConstantPeriods) != e.ConstantPeriods {
				t.Errorf("%s/%dd: single-table estimate %d != actual %d",
					q.Name, days, e.EstConstantPeriods, e.ConstantPeriods)
			}
			checked++
		}
	}
	if checked < 16 {
		t.Fatalf("only %d corpus cells checked; the corpus should yield at least 16", checked)
	}
}

// surfaceFacts is what every surface must agree on for one statement.
type surfaceFacts struct {
	Rows, RowsScanned, RoutineCalls, MemoHits, ConstantPeriods, Fragments int64
	Stages                                                                string
}

func factsOf(t *testing.T, where string, s *taupsm.ProcessSnapshot) surfaceFacts {
	t.Helper()
	var names []string
	var sum int64
	for _, st := range s.Stages {
		names = append(names, st.Name)
		sum += st.NS
	}
	if sum > s.ElapsedNS {
		t.Errorf("%s: stages overlap: they sum to %d ns of %d elapsed (%+v)", where, sum, s.ElapsedNS, s.Stages)
	}
	return surfaceFacts{s.Rows, s.RowsScanned, s.RoutineCalls, s.MemoHits, s.CPTotal, s.Fragments, strings.Join(names, ",")}
}

// TestSurfaceAgreement runs one warm corpus statement four ways —
// unobserved, with only the slow log armed, sampled with the slow log
// armed, and under EXPLAIN ANALYZE — and requires identical counts and
// stage names from every surface, with disjoint stage durations. It is
// the test that fails when a surface drifts from the statement record,
// or when observing a statement changes the plan it executes (a trace
// used to switch the function-result memo off).
func TestSurfaceAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the DS1/SMALL benchmark dataset")
	}
	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}
	r, err := taubench.NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	db := r.DB
	defer db.Close()
	m := db.Metrics()
	counters := []string{"engine.rows_scanned_total", "engine.routine_calls_total",
		"engine.routine_memo_hits_total", "stratum.constant_periods_total", "stratum.fragments_total"}

	for _, name := range []string{"q2", "q7"} {
		q, ok := taubench.QueryByName(name)
		if !ok {
			t.Fatalf("no corpus query %s", name)
		}
		for _, strategy := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
			t.Run(fmt.Sprintf("%s-%s", name, strategy), func(t *testing.T) {
				db.SetStrategy(strategy)
				defer db.SetStrategy(taupsm.Auto)
				sql := taubench.SequencedSQL(q, 365)
				for i := 0; i < 2; i++ { // warm: translation, cp, plan
					if _, err := db.Query(sql); err != nil {
						t.Fatal(err)
					}
				}

				// (i) Unobserved: nothing renders the record, so read the
				// counters finish published and the engine's own journal.
				before := make([]int64, len(counters))
				for i, c := range counters {
					before[i] = m.Value(c)
				}
				base := db.Engine().Stats
				res, err := db.Query(sql)
				if err != nil {
					t.Fatal(err)
				}
				delta := make([]int64, len(counters))
				for i, c := range counters {
					delta[i] = m.Value(c) - before[i]
				}
				work := db.Engine().Stats
				want := surfaceFacts{Rows: int64(len(res.Rows)), RowsScanned: delta[0], RoutineCalls: delta[1],
					MemoHits: delta[2], ConstantPeriods: delta[3]}
				if work.RowsScanned-base.RowsScanned != want.RowsScanned || work.RoutineCalls-base.RoutineCalls != want.RoutineCalls ||
					work.RoutineMemoHits-base.RoutineMemoHits != want.MemoHits {
					t.Errorf("metric deltas %+v disagree with the engine journal %+v -> %+v", want, base, work)
				}
				if delta[4] != 0 {
					t.Errorf("an unobserved run counted %d fragments; no consumer was armed", delta[4])
				}

				// (ii) slow log only, (iii) sampled too: one JSON line each.
				slowLine := func(sample int) taupsm.ProcessSnapshot {
					t.Helper()
					var buf bytes.Buffer
					db.SetSlowLog(&buf, time.Nanosecond)
					db.SetTraceSampling(sample)
					_, err := db.Query(sql)
					db.SetTraceSampling(0)
					db.SetSlowLog(nil, 0)
					if err != nil {
						t.Fatal(err)
					}
					var ent taupsm.ProcessSnapshot
					if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &ent); err != nil {
						t.Fatalf("slow log line: %v\n%s", err, buf.String())
					}
					if (ent.TraceID != "") != (sample == 1) {
						t.Errorf("sampling %d: trace_id = %q", sample, ent.TraceID)
					}
					return ent
				}
				slow, sampled := slowLine(0), slowLine(1)
				got := factsOf(t, "slow log", &slow)
				want.Fragments, want.Stages = got.Fragments, "translate,execute"
				if want.Fragments == 0 {
					t.Error("slow log armed, yet no fragments counted")
				}
				if got != want {
					t.Errorf("slow log line      %+v\nunobserved run was %+v", got, want)
				}
				if got := factsOf(t, "sampled slow log", &sampled); got != want {
					t.Errorf("sampled slow log line %+v\nunobserved run was    %+v", got, want)
				}

				// (iv) EXPLAIN ANALYZE: the record, and its rendering.
				e, err := db.ExplainAnalyze(sql)
				if err != nil {
					t.Fatal(err)
				}
				if got := factsOf(t, "EXPLAIN ANALYZE", e.Analyzed); got != want {
					t.Errorf("EXPLAIN ANALYZE  %+v\nunobserved run was %+v", got, want)
				}
				if int64(e.Fragments) != want.Fragments {
					t.Errorf("plan predicts %d fragments, every execution counted %d", e.Fragments, want.Fragments)
				}
				rendered := map[string]string{}
				for _, row := range e.Result().Rows {
					rendered[row[0].String()] = row[1].String()
				}
				for prop, n := range map[string]int64{"actual_rows": want.Rows, "actual_rows_scanned": want.RowsScanned,
					"actual_routine_calls": want.RoutineCalls, "actual_memo_hits": want.MemoHits,
					"actual_routine_executions": want.RoutineCalls - want.MemoHits} {
					if n > 0 && rendered[prop] != fmt.Sprint(n) {
						t.Errorf("EXPLAIN ANALYZE renders %s = %q, want %d", prop, rendered[prop], n)
					}
				}
				if name == "q2" && want.MemoHits == 0 {
					t.Error("q2 at one year answers no call from the memo")
				}

				// The process list serves the same record while it runs:
				// a statement reading tau_stat_activity sees itself.
				self, err := db.QueryContext(context.Background(), `SELECT stage, statement FROM tau_stat_activity`)
				if err != nil || len(self.Rows) != 1 || self.Rows[0][0].String() != "execute" {
					t.Errorf("tau_stat_activity self-view = %v, %v; want one row in stage execute", self, err)
				}
			})
		}
	}
}
