package taupsm_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"taupsm"
	"taupsm/internal/engine"
	"taupsm/internal/enginetest"
	"taupsm/internal/taubench"
)

// reuseOutcome is what one run of a statement shows: its rows in order
// or its error, the engine counters it moved, and — for an EXPLAIN
// ANALYZE — the counts its actual_* rows render.
type reuseOutcome struct {
	rows, err string
	stats     engine.Stats
	actual    map[string]string
}

// runReuse runs sql on db, as a query or — explain — under EXPLAIN
// ANALYZE, with verdict sharing on or off.
func runReuse(db *taupsm.DB, sql string, on, explain bool) reuseOutcome {
	db.SetVerdictReuse(on)
	defer db.SetVerdictReuse(true)
	before := db.Engine().Stats
	var o reuseOutcome
	if explain {
		e, err := db.ExplainAnalyze(sql)
		if err != nil {
			o.err = err.Error()
		} else {
			o.actual = map[string]string{}
			for _, row := range e.Result().Rows {
				prop, val := row[0].String(), row[1].String()
				if _, timing := time.ParseDuration(val); strings.HasPrefix(prop, "actual_") && timing != nil {
					o.actual[prop] = val
				}
			}
		}
	} else {
		res, err := db.Query(sql)
		if err != nil {
			o.err = err.Error()
		} else {
			o.rows = enginetest.RenderRows(res)
		}
	}
	// Every counter, by reflection: a field added later is compared too.
	after, d := reflect.ValueOf(db.Engine().Stats), reflect.ValueOf(&o.stats).Elem()
	for i := 0; i < d.NumField(); i++ {
		d.Field(i).SetInt(after.Field(i).Int() - reflect.ValueOf(before).Field(i).Int())
	}
	return o
}

// diffReuse describes how the run that shared verdicts (on) departs
// from the one that did not (off), "" when it does not: the calls it
// answered by a shared verdict are the only counter allowed to differ,
// and the run that shared nothing must count none.
func diffReuse(off, on reuseOutcome) string {
	if off.stats.ReusedCalls != 0 {
		return fmt.Sprintf("sharing off, yet %d calls were answered by a shared verdict", off.stats.ReusedCalls)
	}
	reused, offCalls := on.stats.ReusedCalls, off.actual["actual_reused_calls"]
	on.stats.ReusedCalls = 0
	if on.actual != nil {
		if want := fmt.Sprint(reused); reused > 0 && on.actual["actual_reused_calls"] != want {
			return fmt.Sprintf("EXPLAIN ANALYZE renders actual_reused_calls = %q, the engine counted %s", on.actual["actual_reused_calls"], want)
		}
		delete(on.actual, "actual_reused_calls")
	}
	switch {
	case offCalls != "":
		return "sharing off, yet EXPLAIN ANALYZE renders actual_reused_calls = " + offCalls
	case off.err != on.err:
		return fmt.Sprintf("error\noff: %s\non:  %s", off.err, on.err)
	case off.rows != on.rows:
		return fmt.Sprintf("rows\n--- off ---\n%s--- on ---\n%s", off.rows, on.rows)
	case off.stats != on.stats:
		return fmt.Sprintf("counters\noff: %+v\non:  %+v", off.stats, on.stats)
	case !reflect.DeepEqual(off.actual, on.actual):
		return fmt.Sprintf("EXPLAIN ANALYZE\noff: %v\non:  %v", off.actual, on.actual)
	}
	return ""
}

// TestVerdictReuseIsInvisible is the oracle of verdict sharing (the
// engine's pipe.test): a MAX statement returns the rows, in order, the
// error text, every engine counter and every count EXPLAIN ANALYZE
// renders that it returns when each conjunct is tested on every constant
// period — but the calls a shared verdict answered — over the 16 corpus
// queries on weekly- and daily-changing data at four context lengths,
// and over every enginetest scenario. Both sides are warmed alike: a
// statement's first two runs fill the source memos its later runs read.
func TestVerdictReuseIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the DS1 and DS3 SMALL benchmark datasets")
	}
	var reused int64
	for _, ds := range []string{"DS1", "DS3"} {
		spec, err := taubench.SpecByName(ds, taubench.Small)
		if err != nil {
			t.Fatal(err)
		}
		r, err := taubench.NewRunner(spec)
		if err != nil {
			t.Fatal(err)
		}
		db := r.DB
		defer db.Close()
		db.SetStrategy(taupsm.Max)
		for _, q := range taubench.Queries() {
			for _, days := range []int{365, 30, 7, 2} {
				t.Run(fmt.Sprintf("%s/%s/%s", ds, q.Name, taubench.ContextLabel(days)), func(t *testing.T) {
					sql := taubench.SequencedSQL(q, days)
					for range 2 {
						runReuse(db, sql, true, false)
					}
					for _, explain := range []bool{false, true} {
						off, on := runReuse(db, sql, false, explain), runReuse(db, sql, true, explain)
						if d := diffReuse(off, on); d != "" {
							t.Errorf("explain=%v: %s\n%s", explain, d, sql)
						}
						reused += on.stats.ReusedCalls
					}
				})
			}
		}
	}

	// A scenario's statements may write: each side runs every step on a
	// database of its own, in lockstep.
	for _, sc := range enginetest.Scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			ax := enginetest.Axis{Strategy: taupsm.Max}
			if sc.Skip != nil && sc.Skip(ax) != "" {
				t.Skip(sc.Skip(ax))
			}
			now := sc.Now
			if now == (enginetest.Clock{}) {
				now = enginetest.Clock{Year: 2011, Month: 1, Day: 1}
			}
			var dbs [2]*taupsm.DB // off, on
			for i := range dbs {
				dbs[i] = taupsm.Open()
				defer dbs[i].Close()
				dbs[i].SetNow(now.Year, now.Month, now.Day)
				dbs[i].SetStrategy(taupsm.Max)
			}
			for _, st := range append(append([]enginetest.Step{}, sc.Setup...), sc.Steps...) {
				if st.Skip != nil && st.Skip(ax) != "" {
					continue
				}
				var outs [2]reuseOutcome
				for i, db := range dbs {
					if st.SetNow != nil {
						db.SetNow(st.SetNow.Year, st.SetNow.Month, st.SetNow.Day)
					}
					switch {
					case st.Exec != "":
						db.SetVerdictReuse(i == 1)
						_, err := db.Exec(st.Exec)
						db.SetVerdictReuse(true)
						if err != nil {
							outs[i].err = err.Error()
						}
					case st.Query != "":
						for range 2 {
							runReuse(db, st.Query, i == 1, false)
						}
						outs[i] = runReuse(db, st.Query, i == 1, false)
					}
				}
				if d := diffReuse(outs[0], outs[1]); d != "" {
					t.Errorf("%s%s: %s", st.Exec, st.Query, d)
				}
				reused += outs[1].stats.ReusedCalls
			}
		})
	}
	if reused == 0 {
		t.Error("no call was answered by a shared verdict; the oracle exercised nothing")
	}
}
