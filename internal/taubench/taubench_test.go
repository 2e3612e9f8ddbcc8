package taubench

import (
	"errors"
	"strings"
	"testing"

	"taupsm"
)

// tinySpec is a fast dataset for tests: few entities, few slices, but
// exercising every change kind.
func tinySpec() Spec {
	return Spec{Name: "DS1", Size: Small,
		Items: 30, Authors: 20, Publishers: 8,
		Slices: 10, StepDays: 7, ChangesPerStep: 6, Seed: 7}
}

var tinyRunner *Runner

func getRunner(t testing.TB) *Runner {
	t.Helper()
	if tinyRunner == nil {
		r, err := NewRunner(tinySpec())
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		tinyRunner = r
	}
	return tinyRunner
}

func TestLoadProducesHistory(t *testing.T) {
	r := getRunner(t)
	if r.Stats.Rows <= 30+20+8 {
		t.Fatalf("expected version history beyond initial rows, got %d rows", r.Stats.Rows)
	}
	if r.Stats.Changes == 0 {
		t.Fatal("no changes simulated")
	}
	// every temporal table must have valid periods
	for _, name := range []string{"item", "author", "publisher", "related_items", "item_author", "item_publisher"} {
		res, err := r.DB.Query(`NONSEQUENCED VALIDTIME SELECT COUNT(*) FROM ` + name + ` WHERE begin_time >= end_time`)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Rows[0][0].Int() != 0 {
			t.Fatalf("table %s has empty or inverted periods", name)
		}
	}
}

// Every query must run under current semantics.
func TestAllQueriesCurrent(t *testing.T) {
	r := getRunner(t)
	for _, q := range Queries() {
		if _, err := r.RunCurrent(q); err != nil {
			t.Errorf("%s current: %v", q.Name, err)
		}
	}
}

// Every query must run sequenced under MAX.
func TestAllQueriesSequencedMax(t *testing.T) {
	r := getRunner(t)
	for _, q := range Queries() {
		m := r.RunSequenced(q, taupsm.Max, 30)
		if m.Err != nil {
			t.Errorf("%s MAX: %v", q.Name, m.Err)
		}
	}
}

// Every query except q17b must run sequenced under PERST; q17b must
// fail with the non-nested FETCH error.
func TestAllQueriesSequencedPerst(t *testing.T) {
	r := getRunner(t)
	for _, q := range Queries() {
		m := r.RunSequenced(q, taupsm.PerStatement, 30)
		if q.PerstOK {
			if m.Err != nil {
				t.Errorf("%s PERST: %v", q.Name, m.Err)
			}
		} else {
			if m.Err == nil {
				t.Errorf("%s: expected PERST to be inapplicable", q.Name)
			} else if !errors.Is(m.Err, taupsm.ErrNotTransformable) {
				t.Errorf("%s: expected ErrNotTransformable, got %v", q.Name, m.Err)
			} else if !strings.Contains(m.Err.Error(), "non-nested FETCH") {
				t.Errorf("%s: expected non-nested FETCH diagnosis, got %v", q.Name, m.Err)
			}
		}
	}
}

// Commutativity (§VII-B) for both strategies on every query.
func TestCommutativityMax(t *testing.T) {
	r := getRunner(t)
	days := SampleDays(61)
	for _, q := range Queries() {
		if err := r.CheckCommutativity(q, taupsm.Max, days); err != nil {
			t.Errorf("%v", err)
		}
	}
}

func TestCommutativityPerst(t *testing.T) {
	r := getRunner(t)
	days := SampleDays(61)
	for _, q := range Queries() {
		if !q.PerstOK {
			continue
		}
		if err := r.CheckCommutativity(q, taupsm.PerStatement, days); err != nil {
			t.Errorf("%v", err)
		}
	}
}

func TestStrategiesAgree(t *testing.T) {
	r := getRunner(t)
	days := SampleDays(61)
	for _, q := range Queries() {
		if !q.PerstOK {
			continue
		}
		if err := r.CheckStrategiesAgree(q, days); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// Every benchmark query must return rows on the benchmark datasets —
// the paper adjusted q2 precisely because an empty result set lets the
// DBMS shortcut and invalidates the measurement (§VII-B).
func TestQueriesNonEmptyOnBenchmarkData(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping dataset generation in -short mode")
	}
	r, err := NewRunner(DS1(Small))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range Queries() {
		cur, err := r.RunCurrent(q)
		if err != nil {
			t.Errorf("%s current: %v", q.Name, err)
			continue
		}
		if len(cur.Rows) == 0 {
			t.Errorf("%s: current result is empty on DS1-SMALL", q.Name)
		}
		m := r.RunSequenced(q, taupsm.Max, 365)
		if m.Err != nil {
			t.Errorf("%s sequenced: %v", q.Name, m.Err)
		} else if m.Rows == 0 {
			t.Errorf("%s: sequenced result is empty on DS1-SMALL", q.Name)
		}
	}
}

func TestCodeExpansion(t *testing.T) {
	r := getRunner(t)
	es, err := CodeExpansion(r.DB)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 16 {
		t.Fatalf("expected 16 queries, got %d", len(es))
	}
	var to, tm, tp int
	for _, e := range es {
		if e.MaxLoC <= e.OriginalLoC {
			t.Errorf("%s: MAX translation (%d LoC) should exceed original (%d LoC)", e.Query, e.MaxLoC, e.OriginalLoC)
		}
		to += e.OriginalLoC
		tm += e.MaxLoC
		tp += e.PerstLoC
	}
	// The paper reports ~3.2x (MAX) and ~4x (PERST) total expansion.
	// Our MAX totals include the per-query Figure-8 cp setup, so the
	// robust directional claims are: both expand at least 2x, and the
	// complex (cursor/loop) routines expand more under PERST than MAX.
	if tm < 2*to {
		t.Errorf("MAX expansion ratio %.1fx below expectation", float64(tm)/float64(to))
	}
	_ = tp
	for _, e := range es {
		switch e.Query {
		case "q7", "q7b", "q11", "q17":
			if e.PerstLoC <= e.MaxLoC {
				t.Errorf("%s: PERST (%d LoC) should exceed MAX (%d LoC) for cursor-based routines",
					e.Query, e.PerstLoC, e.MaxLoC)
			}
		}
	}
}

func TestClassify(t *testing.T) {
	// synthetic measurements: PERST always faster => class A
	ms := []Measurement{
		{Query: "qx", Strategy: taupsm.Max, Context: 1, Elapsed: 10},
		{Query: "qx", Strategy: taupsm.PerStatement, Context: 1, Elapsed: 5},
		{Query: "qx", Strategy: taupsm.Max, Context: 7, Elapsed: 10},
		{Query: "qx", Strategy: taupsm.PerStatement, Context: 7, Elapsed: 5},
	}
	if c := Classify(ms, "qx"); c != "A" {
		t.Fatalf("want class A, got %s", c)
	}
	// MAX first, PERST later => B
	ms = []Measurement{
		{Query: "qy", Strategy: taupsm.Max, Context: 1, Elapsed: 5},
		{Query: "qy", Strategy: taupsm.PerStatement, Context: 1, Elapsed: 10},
		{Query: "qy", Strategy: taupsm.Max, Context: 365, Elapsed: 20},
		{Query: "qy", Strategy: taupsm.PerStatement, Context: 365, Elapsed: 10},
	}
	if c := Classify(ms, "qy"); c != "B" {
		t.Fatalf("want class B, got %s", c)
	}
}

func TestCollectHeuristicPoints(t *testing.T) {
	r := getRunner(t)
	ms := []Measurement{
		{Dataset: "DS1", Size: Small, Query: "q2", Strategy: taupsm.Max, Context: 365, Elapsed: 100},
		{Dataset: "DS1", Size: Small, Query: "q2", Strategy: taupsm.PerStatement, Context: 365, Elapsed: 10},
		{Dataset: "DS1", Size: Small, Query: "q17b", Strategy: taupsm.Max, Context: 365, Elapsed: 50},
		{Dataset: "DS1", Size: Small, Query: "q17b", Strategy: taupsm.PerStatement, Context: 365,
			Err: taupsm.ErrNotTransformable},
	}
	pts := CollectHeuristicPoints(ms, func(Measurement) *Runner { return r })
	if len(pts) != 2 {
		t.Fatalf("expected 2 points, got %d", len(pts))
	}
	if pts[0].Winner != taupsm.PerStatement {
		t.Fatalf("q2 winner: %v", pts[0].Winner)
	}
	// q17b: PERST inapplicable, so MAX wins and the heuristic must
	// choose MAX (clause a).
	if pts[1].Winner != taupsm.Max || pts[1].Chosen != taupsm.Max {
		t.Fatalf("q17b point: winner=%v chosen=%v", pts[1].Winner, pts[1].Chosen)
	}
	out := HeuristicEval(pts)
	if !strings.Contains(out, "data points:          2") {
		t.Fatalf("eval rendering: %s", out)
	}
}

func TestContextLabel(t *testing.T) {
	for days, want := range map[int]string{1: "1d", 7: "1w", 30: "1m", 365: "1y", 90: "90d"} {
		if got := ContextLabel(days); got != want {
			t.Errorf("ContextLabel(%d) = %q, want %q", days, got, want)
		}
	}
}

func TestSpecByName(t *testing.T) {
	for _, name := range []string{"DS1", "DS2", "DS3"} {
		spec, err := SpecByName(name, Medium)
		if err != nil || spec.Name != name || spec.Size != Medium {
			t.Errorf("SpecByName(%s): %+v, %v", name, spec, err)
		}
	}
	if _, err := SpecByName("DS4", Small); err == nil {
		t.Error("expected error for unknown dataset")
	}
	if DS3(Small).Slices != 693 || DS1(Small).Slices != 104 {
		t.Error("slice counts must match the paper")
	}
	// DS3 keeps roughly DS1's total change count with ~6.7x the slices
	d1 := DS1(Small).Slices * DS1(Small).ChangesPerStep
	d3 := DS3(Small).Slices * DS3(Small).ChangesPerStep
	ratio := float64(d3) / float64(d1)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("DS3 total changes (%d) should approximate DS1's (%d)", d3, d1)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	spec := tinySpec()
	r1, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Rows != r2.Stats.Rows || r1.Stats.Changes != r2.Stats.Changes {
		t.Fatalf("generation must be deterministic: %+v vs %+v", r1.Stats, r2.Stats)
	}
	a, _ := r1.DB.Query(`NONSEQUENCED VALIDTIME SELECT COUNT(*) FROM item`)
	b, _ := r2.DB.Query(`NONSEQUENCED VALIDTIME SELECT COUNT(*) FROM item`)
	if a.Rows[0][0].Int() != b.Rows[0][0].Int() {
		t.Fatal("row counts differ across identical seeds")
	}
}

func TestHotSpotSkew(t *testing.T) {
	// DS2's Gaussian targeting must concentrate item versions near the
	// middle of the id space relative to DS1.
	countMiddleVersions := func(spec Spec) int64 {
		r, err := NewRunner(spec)
		if err != nil {
			t.Fatal(err)
		}
		mid := spec.Items / 2
		res, err := r.DB.Query(`NONSEQUENCED VALIDTIME SELECT COUNT(*) FROM item
			WHERE item_id = 'i` + itoa(mid) + `' OR item_id = 'i` + itoa(mid+1) + `' OR item_id = 'i` + itoa(mid-1) + `'`)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Int()
	}
	uniform := countMiddleVersions(DS1(Small))
	skewed := countMiddleVersions(DS2(Small))
	if skewed <= uniform {
		t.Fatalf("hot-spot dataset should version middle items more: DS1=%d DS2=%d", uniform, skewed)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// RunCurrent executes the query's current (unmodified) variant.
func (r *Runner) RunCurrent(q Query) (*taupsm.Result, error) {
	return r.DB.Query(q.Text)
}
