package taupsm

import (
	"strings"
	"testing"

	"taupsm/internal/obs"
)

// EXPLAIN on a sequenced query reports the plan and the exact slicing
// statistics without executing anything.
func TestExplainSequencedWithoutExecuting(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	engBase := db.Metrics().Value("engine.statements_total")
	e, err := db.Explain(`VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT title FROM item`)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != "sequenced" {
		t.Fatalf("kind = %q, want sequenced", e.Kind)
	}
	if e.Strategy != Max {
		t.Fatalf("strategy = %v, want MAX", e.Strategy)
	}
	if len(e.TemporalTables) != 1 || e.TemporalTables[0] != "item" {
		t.Fatalf("temporal tables = %v, want [item]", e.TemporalTables)
	}
	if e.ContextBegin != "2010-01-01" || e.ContextEnd != "2011-01-01" {
		t.Fatalf("context = [%s, %s), want [2010-01-01, 2011-01-01)", e.ContextBegin, e.ContextEnd)
	}
	// item holds 3 rows, all overlapping the context.
	if e.Fragments != 3 {
		t.Fatalf("fragments = %d, want 3", e.Fragments)
	}
	// item's instants inside the context — 01-01, 03-01, 05-01, 09-01,
	// 2011-01-01 — yield 4 constant periods.
	if e.ConstantPeriods != 4 {
		t.Fatalf("constant periods = %d, want 4", e.ConstantPeriods)
	}
	if e.SQL == "" {
		t.Fatal("empty plan SQL")
	}
	// Nothing executed: the engine never saw a statement.
	if n := db.Metrics().Value("engine.statements_total") - engBase; n != 0 {
		t.Fatalf("EXPLAIN executed %d engine statements, want 0", n)
	}
	if n := db.Metrics().Value("stratum.explain_total"); n != 1 {
		t.Fatalf("stratum.explain_total = %d, want 1", n)
	}
}

// The acceptance criterion: EXPLAIN's constant-period and fragment
// counts match what execution then reports through DB.Metrics.
func TestExplainMatchesExecution(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	db.SetTracer(&obs.Collector{}) // fragment accounting is detailed-mode
	const q = `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01')
		SELECT i.title FROM item i, item_author ia
		WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`

	m := db.Metrics()
	engBase := m.Value("engine.statements_total")
	e, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if e.ConstantPeriods == 0 || e.Fragments == 0 {
		t.Fatalf("trivial explanation: %+v", e)
	}
	if n := m.Value("engine.statements_total") - engBase; n != 0 {
		t.Fatalf("EXPLAIN executed %d engine statements, want 0", n)
	}

	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if got := m.Value("stratum.constant_periods"); got != int64(e.ConstantPeriods) {
		t.Fatalf("execution computed %d constant periods, EXPLAIN said %d", got, e.ConstantPeriods)
	}
	if got := m.Value("stratum.fragments"); got != int64(e.Fragments) {
		t.Fatalf("execution evaluated %d fragments, EXPLAIN said %d", got, e.Fragments)
	}
	if got := m.Value("stratum.strategy.max_total"); got != 1 {
		t.Fatalf("stratum.strategy.max_total = %d, want 1", got)
	}
}

// The SQL-level EXPLAIN statement returns the explanation as a
// two-column result set (golden test).
func TestExplainStatementGolden(t *testing.T) {
	db := Open()
	db.SetNow(2010, 6, 15)
	db.SetStrategy(Max)
	db.SetParallelism(4) // pin: the default degree is machine-dependent
	db.MustExec(`
CREATE TABLE author (author_id CHAR(10), first_name CHAR(50)) AS VALIDTIME;
NONSEQUENCED VALIDTIME INSERT INTO author VALUES
  ('a1', 'Ben', DATE '2010-01-01', DATE '2010-07-01'),
  ('a2', 'Amy', DATE '2010-03-01', DATE '2010-05-01');
`)
	res, err := db.Query(`EXPLAIN VALIDTIME (DATE '2010-01-01', DATE '2010-07-01') SELECT first_name FROM author`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"kind|sequenced",
		"strategy|MAX",
		"context|[2010-01-01, 2010-07-01)",
		"temporal_tables|author",
		"reads|author[validtime]",
		"constant_periods|3",
		"fragments|2",
		"parallelism|3",
		"translation_cache|miss",
		"cp_cache|miss",
		"plan|DROP TABLE IF EXISTS taupsm_ts;",
		"|DROP TABLE IF EXISTS taupsm_cp;",
		"|CREATE TEMPORARY TABLE taupsm_ts (time_point DATE);",
		"|INSERT INTO taupsm_ts SELECT begin_time AS time_point FROM author UNION SELECT end_time AS time_point FROM author UNION VALUES (DATE '2010-01-01'), (DATE '2010-07-01');",
		"|CREATE TEMPORARY TABLE taupsm_cp AS (SELECT ts1.time_point AS begin_time, ts2.time_point AS end_time FROM taupsm_ts AS ts1, taupsm_ts AS ts2 WHERE ts1.time_point < ts2.time_point AND DATE '2010-01-01' <= ts1.time_point AND ts1.time_point < DATE '2010-07-01' AND ts2.time_point <= DATE '2010-07-01' AND NOT EXISTS (SELECT time_point FROM taupsm_ts AS ts3 WHERE ts1.time_point < ts3.time_point AND ts3.time_point < ts2.time_point)) WITH DATA;",
		"|SELECT cp.begin_time AS begin_time, cp.end_time AS end_time, first_name FROM taupsm_cp AS cp, author WHERE author.begin_time <= cp.begin_time AND cp.begin_time < author.end_time;",
		"|DROP TABLE IF EXISTS taupsm_ts;",
		"|DROP TABLE IF EXISTS taupsm_cp;",
	}
	if cols := strings.Join(res.Columns, "|"); cols != "property|value" {
		t.Fatalf("columns = %q, want property|value", cols)
	}
	var got []string
	for _, row := range res.Rows {
		got = append(got, row[0].String()+"|"+row[1].String())
	}
	if len(got) != len(want) {
		t.Fatalf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}

// EXPLAIN reports the planned parallelism degree and whether the
// translation and constant-period caches would hit, without touching
// either cache or its counters; after an execution warms the caches
// the same EXPLAIN reports hits, and DML on a referenced table turns
// them back into misses.
func TestExplainCacheAndParallelism(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	db.SetParallelism(4)
	m := db.Metrics()
	const q = `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT title FROM item`

	counters := func() [4]int64 {
		return [4]int64{
			m.Value("stratum.cache.translation_hits_total"),
			m.Value("stratum.cache.translation_misses_total"),
			m.Value("stratum.cache.cp_hits_total"),
			m.Value("stratum.cache.cp_misses_total"),
		}
	}

	before := counters()
	e, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if e.TranslationCacheHit || e.CPCacheHit {
		t.Fatalf("cold caches reported as hits: %+v", e)
	}
	if want := min(4, e.ConstantPeriods); e.Parallelism != want {
		t.Fatalf("parallelism = %d, want %d (degree 4, %d periods)", e.Parallelism, want, e.ConstantPeriods)
	}
	if counters() != before {
		t.Fatalf("EXPLAIN moved cache counters: %v -> %v", before, counters())
	}

	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	e, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !e.TranslationCacheHit || !e.CPCacheHit {
		t.Fatalf("warm caches reported as misses: %+v", e)
	}
	if m.Value("stratum.parallel.statements_total") == 0 {
		t.Fatal("parallel path not taken despite EXPLAIN planning it")
	}

	// DML on a referenced table invalidates both caches (the Auto
	// heuristic and the constant periods depend on the rows).
	db.MustExec(`NONSEQUENCED VALIDTIME INSERT INTO item VALUES ('i9', 'New', DATE '2010-02-01', DATE '2010-04-01')`)
	e, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if e.TranslationCacheHit || e.CPCacheHit {
		t.Fatalf("caches survived DML on a referenced table: %+v", e)
	}

	// Serial settings plan a degree of 1.
	db.SetParallelism(1)
	e, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if e.Parallelism != 1 {
		t.Fatalf("parallelism = %d with a serial setting, want 1", e.Parallelism)
	}
}

// EXPLAIN of a current statement reports the kind and plan, no slicing
// stats.
func TestExplainCurrentStatement(t *testing.T) {
	db := paperDB(t)
	e, err := db.Explain(`SELECT title FROM item`)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != "current" {
		t.Fatalf("kind = %q, want current", e.Kind)
	}
	if e.ConstantPeriods != 0 || e.Fragments != 0 {
		t.Fatalf("current statement has slicing stats: %+v", e)
	}
	if e.SQL == "" {
		t.Fatal("empty plan SQL")
	}
}

// EXPLAIN cannot nest.
func TestExplainNested(t *testing.T) {
	if _, err := paperDB(t).Exec(`EXPLAIN EXPLAIN SELECT title FROM item`); err == nil {
		t.Fatal("nested EXPLAIN accepted")
	}
}

// With the Auto strategy, EXPLAIN reports the §VII-F clause that
// decided, and execution records the same decision in the metrics.
func TestAutoStrategyMetrics(t *testing.T) {
	db := paperDB(t) // 9 temporal rows: a small database
	m := db.Metrics()

	// Short context on a small database: clause (c) picks MAX.
	short := `VALIDTIME (DATE '2010-06-01', DATE '2010-06-05') SELECT title FROM item`
	e, err := db.Explain(short)
	if err != nil {
		t.Fatal(err)
	}
	if e.Strategy != Max || e.AutoReason != "short_context" {
		t.Fatalf("short context: (%v, %q), want (MAX, short_context)", e.Strategy, e.AutoReason)
	}
	if _, err := db.Query(short); err != nil {
		t.Fatal(err)
	}

	// Year-long context: no clause fires, PERST by default.
	long := `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT title FROM item`
	e, err = db.Explain(long)
	if err != nil {
		t.Fatal(err)
	}
	if e.Strategy != PerStatement || e.AutoReason != "perst_default" {
		t.Fatalf("long context: (%v, %q), want (PERST, perst_default)", e.Strategy, e.AutoReason)
	}
	if _, err := db.Query(long); err != nil {
		t.Fatal(err)
	}

	// EXPLAIN resolves Auto but only executions record decisions, so
	// the decision counters reflect actual statement runs.
	for name, want := range map[string]int64{
		"stratum.auto.decisions_total":            2,
		"stratum.auto.reason.short_context_total": 1,
		"stratum.auto.reason.perst_default_total": 1,
		"stratum.strategy.max_total":              1,
		"stratum.strategy.perst_total":            1,
		"stratum.statements.sequenced_total":      2,
		"stratum.explain_total":                   2,
	} {
		if got := m.Value(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// Statement kinds, engine work, and phase latencies all land in the
// metrics registry; spans arrive at an attached tracer.
func TestStatementMetricsAndSpans(t *testing.T) {
	db := paperDB(t)
	col := &obs.Collector{}
	db.SetTracer(col)
	m := db.Metrics()
	base := map[string]int64{}
	for _, name := range []string{
		"stratum.statements_total",
		"stratum.statements.current_total",
		"stratum.statements.sequenced_total",
		"stratum.statements.nonsequenced_total",
	} {
		base[name] = m.Value(name)
	}

	if _, err := db.Query(`SELECT title FROM item`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`VALIDTIME SELECT title FROM item`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`NONSEQUENCED VALIDTIME SELECT title FROM item`); err != nil {
		t.Fatal(err)
	}

	for name, want := range map[string]int64{
		"stratum.statements_total":              3,
		"stratum.statements.current_total":      1,
		"stratum.statements.sequenced_total":    1,
		"stratum.statements.nonsequenced_total": 1,
	} {
		if got := m.Value(name) - base[name]; got != want {
			t.Errorf("%s delta = %d, want %d", name, got, want)
		}
	}
	if m.Value("engine.rows_returned_total") == 0 {
		t.Error("engine.rows_returned_total = 0, want > 0")
	}
	if m.Value("engine.rows_scanned_total") == 0 {
		t.Error("engine.rows_scanned_total = 0, want > 0")
	}
	for _, span := range []string{"stratum.parse", "stratum.translate", "stratum.execute"} {
		if len(col.SpansNamed(span)) < 3 {
			t.Errorf("%s spans = %d, want >= 3", span, len(col.SpansNamed(span)))
		}
	}
	// The exposition renders every recorded series.
	text := m.String()
	for _, name := range []string{
		"stratum.statements_total", "stratum.parse_ns", "engine.rows_scanned_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metrics exposition missing %s:\n%s", name, text)
		}
	}
}

// Routine invocations are counted always and timed when a tracer is
// attached: one engine.routine span per execution, none for the
// invocations the function-result memo answers.
func TestRoutineObservability(t *testing.T) {
	db := paperDB(t)
	col := &obs.Collector{}
	db.SetTracer(col)
	if _, err := db.Query(`
		SELECT i.title FROM item i, item_author ia
		WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	calls := m.Value("engine.routine_calls_total")
	if calls == 0 {
		t.Fatal("engine.routine_calls_total = 0, want > 0")
	}
	hits := m.Value("engine.routine_memo_hits_total")
	if hits == 0 {
		t.Fatal("engine.routine_memo_hits_total = 0 under a tracer; a1 wrote two items")
	}
	spans := col.SpansNamed("engine.routine")
	if int64(len(spans)) != calls-hits {
		t.Fatalf("engine.routine spans = %d, routine_calls_total - routine_memo_hits_total = %d - %d",
			len(spans), calls, hits)
	}
	if got := m.Histogram("engine.routine_ns").Count(); got != calls-hits {
		t.Fatalf("engine.routine_ns count = %d, want %d", got, calls-hits)
	}
}

// Regression test for EXPLAIN ANALYZE counter drift under plan reuse:
// actual_plan_reuse reports the statement's own execution, not a
// lifetime total — so repeated runs of the same statement show a stable
// value, not a growing sum. The sources keep their relations on their
// second load, so by the third execution every one is served. There is no
// static plan_reuse row: EXPLAIN reports what was reused, not that
// something could be.
func TestExplainAnalyzeCountersPerStatement(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	const q = `EXPLAIN ANALYZE VALIDTIME (DATE '2010-01-01', DATE '2011-01-01')
		SELECT i.title FROM item i, item_author ia WHERE i.id = ia.item_id`

	run := func() (hits string) {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			switch row[0].String() {
			case "plan_reuse":
				t.Fatalf("EXPLAIN ANALYZE still emits a static plan_reuse row: %v", row)
			case "actual_plan_reuse":
				hits = row[1].String()
			}
		}
		if hits == "" {
			t.Fatal("EXPLAIN ANALYZE emitted no actual_plan_reuse row")
		}
		return hits
	}

	run()
	run()
	third := run()
	if third == "0" {
		t.Fatal("third execution reported actual_plan_reuse = 0; the plan served nothing")
	}
	// The drift this guards against: counters accumulated over the plan's
	// lifetime would make every repeat larger than the last.
	if fourth := run(); fourth != third {
		t.Fatalf("actual_plan_reuse drifted across identical runs: %s then %s (cumulative counters?)",
			third, fourth)
	}
}

// EXPLAIN says, per reachable function, whether the function-result
// memo may serve it and, if not, why — and the engine, asked about the
// same routines once they are registered, gives the same verdicts and
// counts hits for exactly the memoizable ones.
func TestExplainRoutineMemoAgreesWithEngine(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(PerStatement)
	db.MustExec(`
CREATE TABLE audit (aid CHAR(10));
CREATE FUNCTION noisy_name (aid CHAR(10))
RETURNS CHAR(50)
MODIFIES SQL DATA
LANGUAGE SQL
BEGIN
  INSERT INTO audit VALUES (aid);
  RETURN (SELECT first_name FROM author WHERE author_id = aid);
END;
CREATE FUNCTION scratch_name (aid CHAR(10))
RETURNS CHAR(50)
READS SQL DATA
LANGUAGE SQL
BEGIN
  CREATE TABLE scratch (n INTEGER);
  RETURN 'x';
END;
CREATE FUNCTION helper (aid CHAR(10)) RETURNS CHAR(50) LANGUAGE SQL
BEGIN
  RETURN aid;
END;
CREATE FUNCTION lost_name (aid CHAR(10))
RETURNS CHAR(50)
READS SQL DATA
LANGUAGE SQL
BEGIN
  RETURN helper(aid);
END;
DROP FUNCTION helper;
`)
	for _, tc := range []struct {
		fn, verdict string
		hits        bool
	}{
		{"get_author_name", "ps_get_author_name: memoizable", true},
		{"noisy_name", "ps_noisy_name: not memoizable (writes audit)", false},
	} {
		q := `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01')
			SELECT ia.item_id FROM item_author ia WHERE ` + tc.fn + `(ia.author_id) = 'Ben'`
		e, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.RoutineMemo) != 1 || e.RoutineMemo[0] != tc.verdict {
			t.Errorf("%s: routine_memo = %q, want [%s]", tc.fn, e.RoutineMemo, tc.verdict)
		}
		if !strings.Contains(e.String(), "routine_memo") {
			t.Errorf("%s: EXPLAIN output has no routine_memo row:\n%s", tc.fn, e)
		}
		// a1 wrote two of the three item_author rows: one repeated call.
		base := db.Engine().Stats
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
		hits := db.Engine().Stats.RoutineMemoHits - base.RoutineMemoHits
		if (hits > 0) != tc.hits {
			t.Errorf("%s: %d memo hits, EXPLAIN said %q", tc.fn, hits, tc.verdict)
		}
		if pure := db.Engine().RoutinePure("ps_" + tc.fn); pure != tc.hits {
			t.Errorf("%s: engine purity of the clone %v, EXPLAIN said %q", tc.fn, pure, tc.verdict)
		}
	}
	// A MAX clone's entries answer every instant of their validity window.
	db.SetStrategy(Max)
	e, err := db.Explain(`VALIDTIME (DATE '2010-01-01', DATE '2011-01-01')
		SELECT ia.item_id FROM item_author ia WHERE get_author_name(ia.author_id) = 'Ben'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.RoutineMemo) != 1 || e.RoutineMemo[0] != "max_get_author_name: memoizable (windowed)" {
		t.Errorf("MAX: routine_memo = %q", e.RoutineMemo)
	}
	db.SetStrategy(PerStatement)
	// Nontemporal routines are reached as they are, not through clones.
	for fn, verdict := range map[string]string{
		"scratch_name": "scratch_name: not memoizable (ddl)",
		"lost_name":    "lost_name: not memoizable (unknown callee)",
	} {
		e, err := db.Explain(`SELECT ` + fn + `('a1') FROM audit`)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.RoutineMemo) != 1 || e.RoutineMemo[0] != verdict {
			t.Errorf("%s: routine_memo = %q, want [%s]", fn, e.RoutineMemo, verdict)
		}
		if db.Engine().RoutinePure(fn) {
			t.Errorf("%s: the engine calls it memoizable, EXPLAIN %q", fn, verdict)
		}
	}
}

// EXPLAIN ANALYZE executes what an unobserved run executes: the forced
// trace does not turn the function-result memo off, so the hit count it
// reports is the unobserved run's.
func TestExplainAnalyzeRunsWhatAnUnobservedRunDoes(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(PerStatement)
	const q = `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01')
		SELECT ia.item_id FROM item_author ia WHERE get_author_name(ia.author_id) = 'Ben'`
	base := db.Engine().Stats
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	work := db.Engine().Stats
	hits, calls := work.RoutineMemoHits-base.RoutineMemoHits, work.RoutineCalls-base.RoutineCalls
	if hits != 1 || calls != 3 {
		t.Fatalf("unobserved run: %d memo hits of %d calls, want 1 of 3 (a1 wrote two items)", hits, calls)
	}
	e, err := db.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if a := e.Analyzed; a.MemoHits != hits || a.RoutineCalls != calls {
		t.Errorf("EXPLAIN ANALYZE: %d memo hits of %d calls, the unobserved run had %d of %d",
			a.MemoHits, a.RoutineCalls, hits, calls)
	}
	if d := db.Engine().Stats.RoutineMemoHits - work.RoutineMemoHits; d != hits {
		t.Errorf("EXPLAIN ANALYZE moved the engine's memo hits by %d, want %d", d, hits)
	}
	if out := e.String(); !strings.Contains(out, "ps_get_author_name: memoizable") || !strings.Contains(out, "actual_memo_hits") {
		t.Errorf("EXPLAIN ANALYZE should carry the routine_memo verdict and the hit count:\n%s", out)
	}
}
