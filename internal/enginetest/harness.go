// Package enginetest is the declarative cross-axis test harness: a
// scenario is data — setup SQL, steps with queries and expected rows
// or errors — and one runner executes every scenario across the full
// axis grid: sequenced-slicing strategy (MAX × PERST) × parallelism
// (serial × parallel) × durability (in-memory × persistent ×
// crash-recovered). Every query step's row multiset is additionally
// checked for cross-axis agreement, so a scenario written once is born
// covered on every execution path the stratum has.
//
// To add coverage, append a Scenario to Scenarios in scenarios.go; the
// runner does the rest. Use Skip predicates to carve out axis points a
// scenario cannot run on (with the reason as the return value), and
// Coalesce on steps whose sequenced results fragment differently
// between strategies.
package enginetest

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"taupsm"
	"taupsm/internal/wal"
)

// Durability is the persistence axis of the grid.
type Durability int

const (
	// Memory runs against a purely in-memory database.
	Memory Durability = iota
	// Persistent runs against a database backed by an in-memory WAL
	// filesystem, so every statement flows through the effect journal.
	Persistent
	// Recovered runs the setup against a persistent database, then
	// checkpoints, simulates a crash, and runs the steps against the
	// database recovered from snapshot + WAL.
	Recovered
)

func (d Durability) String() string {
	switch d {
	case Persistent:
		return "persist"
	case Recovered:
		return "recovered"
	}
	return "mem"
}

// Axis is one point of the execution grid.
type Axis struct {
	Strategy    taupsm.Strategy
	Parallelism int
	Durability  Durability
}

// Name renders the axis as a subtest-name segment, ending in the
// durability token so CI can filter per durability axis
// (-run 'TestEngineScenarios/.*/.*-mem$' and friends).
func (a Axis) Name() string {
	s := "max"
	if a.Strategy == taupsm.PerStatement {
		s = "perst"
	}
	p := "serial"
	if a.Parallelism > 1 {
		p = "parallel"
	}
	return s + "-" + p + "-" + a.Durability.String()
}

// Grid returns every axis combination the runner covers.
func Grid() []Axis {
	var out []Axis
	for _, st := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
		for _, par := range []int{1, 4} {
			for _, d := range []Durability{Memory, Persistent, Recovered} {
				out = append(out, Axis{Strategy: st, Parallelism: par, Durability: d})
			}
		}
	}
	return out
}

// Clock is a calendar date for SetNow.
type Clock struct{ Year, Month, Day int }

// Step is one statement of a scenario.
type Step struct {
	// Exec is a statement executed for effect.
	Exec string
	// Query is a statement whose rows are checked — against Expect when
	// given, and for cross-axis agreement always. Mutually exclusive
	// with Exec.
	Query string
	// Expect is the expected rows, each rendered "v1|v2|...". Compared
	// as a multiset unless Ordered.
	Expect []string
	// Ordered makes Expect (and the cross-axis check) order-sensitive.
	Ordered bool
	// ExpectErr requires the statement to fail with an error containing
	// this substring.
	ExpectErr string
	// ExpectExplain lists substrings EXPLAIN of this statement must
	// contain on every axis — keep expectations axis-independent
	// (table names, dimension facts), not strategy- or cache-dependent.
	ExpectExplain []string
	// Coalesce evaluates the query with CoalesceResults on, so MAX's
	// per-constant-period rows and PERST's per-fragment rows converge
	// to the same canonical periods.
	Coalesce bool
	// Auto runs the statement (and its ExpectExplain) under the auto
	// strategy on every axis, in place of the axis's own.
	Auto bool
	// SetNow advances the database clock before the statement runs.
	SetNow *Clock
	// Skip returns a non-empty reason to skip this step on an axis.
	Skip func(Axis) string
}

// Scenario is one named, self-contained test case.
type Scenario struct {
	Name string
	// Now is the initial clock (defaults to 2011-01-01, the benchmark
	// runner's fixed date).
	Now Clock
	// Setup steps create the schema and initial data (usually Exec
	// statements, with SetNow shifts to build temporal history). On the
	// Recovered axis they run before the simulated crash; Steps run
	// after recovery.
	Setup []Step
	// Steps run in order on every axis.
	Steps []Step
	// Skip returns a non-empty reason to skip an entire axis.
	Skip func(Axis) string
}

// Run executes every scenario over the full axis grid. Subtests are
// named <scenario>/<strategy>-<parallelism>-<durability>.
func Run(t *testing.T, scenarios []Scenario) {
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) { runScenario(t, sc) })
	}
}

func setNow(db *taupsm.DB, c Clock) {
	if c == (Clock{}) {
		c = Clock{2011, 1, 1}
	}
	db.SetNow(c.Year, c.Month, c.Day)
}

// finalClock is the clock the setup leaves the database at; the
// Recovered axis restores it after the crash (session state is not
// durable).
func finalClock(sc Scenario) Clock {
	c := sc.Now
	if c == (Clock{}) {
		c = Clock{2011, 1, 1}
	}
	for _, st := range sc.Setup {
		if st.SetNow != nil {
			c = *st.SetNow
		}
	}
	return c
}

// openAxis builds the database for one axis point, with the scenario's
// setup applied (pre-crash on the Recovered axis).
func openAxis(t *testing.T, sc Scenario, ax Axis) *taupsm.DB {
	t.Helper()
	apply := func(db *taupsm.DB) {
		setNow(db, sc.Now)
		for i, st := range sc.Setup {
			runStep(t, db, i, st, ax)
		}
	}
	var db *taupsm.DB
	switch ax.Durability {
	case Memory:
		db = taupsm.Open()
		apply(db)
	case Persistent:
		d, err := taupsm.OpenFS(wal.NewMemFS())
		if err != nil {
			t.Fatalf("open persistent: %v", err)
		}
		apply(d)
		db = d
	case Recovered:
		fs := wal.NewMemFS()
		pre, err := taupsm.OpenFS(fs)
		if err != nil {
			t.Fatalf("open pre-crash: %v", err)
		}
		apply(pre)
		if err := pre.Checkpoint(); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		pre.Close()
		rec, err := taupsm.OpenFS(fs.CrashImage())
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		// The clock is session state, not durable state.
		setNow(rec, finalClock(sc))
		db = rec
	}
	db.SetStrategy(ax.Strategy)
	db.SetParallelism(ax.Parallelism)
	return db
}

// runScenario executes the scenario on every axis and then checks that
// each query step returned the same rows everywhere it ran.
func runScenario(t *testing.T, sc Scenario) {
	type axisRows struct {
		axis string
		rows string
	}
	agreement := map[int][]axisRows{}
	for _, ax := range Grid() {
		ax := ax
		t.Run(ax.Name(), func(t *testing.T) {
			if sc.Skip != nil {
				if why := sc.Skip(ax); why != "" {
					t.Skip(why)
				}
			}
			db := openAxis(t, sc, ax)
			defer db.Close()
			for i, st := range sc.Steps {
				rows, ok := runStep(t, db, i, st, ax)
				if ok {
					agreement[i] = append(agreement[i], axisRows{ax.Name(), rows})
				}
			}
		})
	}
	for i, results := range agreement {
		for _, r := range results[1:] {
			if r.rows != results[0].rows {
				t.Errorf("step %d: axis %s disagrees with %s\n--- %s\n%s\n--- %s\n%s",
					i, r.axis, results[0].axis, results[0].axis, results[0].rows, r.axis, r.rows)
			}
		}
	}
}

// runStep executes one step; for a successful query it returns the
// canonical row rendering for the cross-axis agreement check.
func runStep(t *testing.T, db *taupsm.DB, i int, st Step, ax Axis) (string, bool) {
	t.Helper()
	if st.SetNow != nil {
		db.SetNow(st.SetNow.Year, st.SetNow.Month, st.SetNow.Day)
	}
	if st.Skip != nil {
		if why := st.Skip(ax); why != "" {
			return "", false
		}
	}
	src := st.Exec
	isQuery := st.Query != ""
	if isQuery {
		src = st.Query
	}
	if src == "" {
		return "", false
	}
	if st.Coalesce {
		db.CoalesceResults = true
		defer func() { db.CoalesceResults = false }()
	}
	if st.Auto {
		db.SetStrategy(taupsm.Auto)
		defer db.SetStrategy(ax.Strategy)
	}
	if len(st.ExpectExplain) > 0 {
		e, err := db.Explain(src)
		if err != nil {
			t.Fatalf("step %d EXPLAIN (%s): %v", i, src, err)
		}
		plan := strings.Join(Rows(e.Result()), "\n")
		for _, want := range st.ExpectExplain {
			if !strings.Contains(plan, want) {
				t.Errorf("step %d (%s): EXPLAIN missing %q:\n%s", i, src, want, plan)
			}
		}
	}
	var res *taupsm.Result
	var err error
	if isQuery {
		res, err = db.Query(src)
	} else {
		_, err = db.Exec(src)
	}
	if st.ExpectErr != "" {
		if err == nil {
			t.Errorf("step %d (%s): expected error containing %q, got none", i, src, st.ExpectErr)
		} else if !strings.Contains(err.Error(), st.ExpectErr) {
			t.Errorf("step %d (%s): error %q does not contain %q", i, src, err, st.ExpectErr)
		}
		return "", false
	}
	if err != nil {
		t.Fatalf("step %d (%s): %v", i, src, err)
	}
	if !isQuery {
		return "", false
	}
	rows := Rows(res)
	if !st.Ordered {
		sort.Strings(rows)
	}
	if st.Expect != nil {
		want := append([]string(nil), st.Expect...)
		if !st.Ordered {
			sort.Strings(want)
		}
		if strings.Join(rows, "\n") != strings.Join(want, "\n") {
			t.Errorf("step %d (%s):\ngot  %v\nwant %v", i, src, rows, want)
		}
	}
	return strings.Join(rows, "\n"), true
}

// Rows renders a result one line per row, values joined with "|".
func Rows(res *taupsm.Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		var b strings.Builder
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		out = append(out, b.String())
	}
	return out
}

// RenderRows renders a result in result order, one line per row —
// the order-sensitive canonical form.
func RenderRows(res *taupsm.Result) string {
	var b strings.Builder
	for _, r := range Rows(res) {
		b.WriteString(r)
		b.WriteByte('\n')
	}
	return b.String()
}

// SortedRows canonicalizes a result as an order-insensitive multiset.
func SortedRows(res *taupsm.Result) string {
	rows := Rows(res)
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// date renders a Clock as a SQL DATE literal — a convenience for
// scenario authors.
func date(y, m, d int) string { return fmt.Sprintf("DATE '%04d-%02d-%02d'", y, m, d) }
