package taupsm

import (
	"reflect"
	"strings"
	"testing"

	"taupsm/internal/types"
)

// Repeated execution of the same sequenced statement hits the
// translation and constant-period caches; DML on a referenced table
// invalidates both (the constant periods and the Auto heuristic read
// the rows), and DDL invalidates the translation cache.
func TestCachesHitAndInvalidate(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	m := db.Metrics()
	const q = `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT title FROM item`

	run := func() {
		t.Helper()
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	run() // cold: miss + fill
	if hits, misses := m.Value("stratum.cache.translation_hits_total"), m.Value("stratum.cache.translation_misses_total"); hits != 0 || misses != 1 {
		t.Fatalf("after cold run: translation hits=%d misses=%d, want 0/1", hits, misses)
	}
	if hits, misses := m.Value("stratum.cache.cp_hits_total"), m.Value("stratum.cache.cp_misses_total"); hits != 0 || misses != 1 {
		t.Fatalf("after cold run: cp hits=%d misses=%d, want 0/1", hits, misses)
	}

	run() // warm: both hit
	run()
	if hits := m.Value("stratum.cache.translation_hits_total"); hits != 2 {
		t.Fatalf("translation hits = %d, want 2", hits)
	}
	if hits := m.Value("stratum.cache.cp_hits_total"); hits != 2 {
		t.Fatalf("cp hits = %d, want 2", hits)
	}

	// DML on the referenced table: both caches must recompute.
	db.MustExec(`NONSEQUENCED VALIDTIME INSERT INTO item VALUES ('i9', 'New', DATE '2010-02-01', DATE '2010-04-01')`)
	run()
	if misses := m.Value("stratum.cache.translation_misses_total"); misses != 2 {
		t.Fatalf("translation misses after DML = %d, want 2", misses)
	}
	if misses := m.Value("stratum.cache.cp_misses_total"); misses != 2 {
		t.Fatalf("cp misses after DML = %d, want 2", misses)
	}

	// DDL on an unrelated table: the catalog version moved, but the
	// entry's dependency set — the routines, tables, and views the
	// statement can reach — is untouched, so the entry revalidates and
	// re-pins instead of recomputing. The constant periods only depend
	// on the unchanged item table and stay cached too.
	db.MustExec(`CREATE TABLE unrelated (x CHAR(5))`)
	run()
	if hits, misses := m.Value("stratum.cache.translation_hits_total"), m.Value("stratum.cache.translation_misses_total"); hits != 3 || misses != 2 {
		t.Fatalf("after unrelated DDL: translation hits=%d misses=%d, want 3/2 (dep revalidation re-pins)", hits, misses)
	}
	if misses := m.Value("stratum.cache.cp_misses_total"); misses != 2 {
		t.Fatalf("cp misses after DDL = %d, want 2 (stamps still valid)", misses)
	}

	// Dropping the unrelated table moves the version again; the entry
	// keeps re-pinning as long as its own dependencies hold.
	db.MustExec(`DROP TABLE unrelated`)
	run()
	if hits, misses := m.Value("stratum.cache.translation_hits_total"), m.Value("stratum.cache.translation_misses_total"); hits != 4 || misses != 2 {
		t.Fatalf("after unrelated DROP: translation hits=%d misses=%d, want 4/2", hits, misses)
	}
}

// The translation cache's dependency revalidation distinguishes DDL by
// reachability: redefining a routine the statement calls invalidates
// its entry, while creating unrelated objects merely re-pins it.
func TestTranslationCacheDepInvalidation(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	m := db.Metrics()
	db.MustExec(`CREATE FUNCTION twice (n INTEGER) RETURNS INTEGER RETURN n + n`)
	const q = `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT twice(2) FROM item`

	run := func() {
		t.Helper()
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	run()
	run()
	if hits, misses := m.Value("stratum.cache.translation_hits_total"), m.Value("stratum.cache.translation_misses_total"); hits != 1 || misses != 1 {
		t.Fatalf("warmup: translation hits=%d misses=%d, want 1/1", hits, misses)
	}

	// Unrelated routine DDL: version bump, dependency set unchanged.
	db.MustExec(`CREATE FUNCTION thrice (n INTEGER) RETURNS INTEGER RETURN n * 3`)
	run()
	if hits, misses := m.Value("stratum.cache.translation_hits_total"), m.Value("stratum.cache.translation_misses_total"); hits != 2 || misses != 1 {
		t.Fatalf("after unrelated routine DDL: hits=%d misses=%d, want 2/1", hits, misses)
	}

	// Redefining the called routine: the original name is in the
	// dependency set (even though the translation calls a clone), so the
	// stale entry must not survive.
	db.MustExec(`CREATE OR REPLACE FUNCTION twice (n INTEGER) RETURNS INTEGER RETURN n * 3`)
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if misses := m.Value("stratum.cache.translation_misses_total"); misses != 2 {
		t.Fatalf("translation misses after redefining twice = %d, want 2", misses)
	}
	if len(res.Rows) == 0 || res.Rows[0][len(res.Rows[0])-1].String() != "6" {
		t.Fatalf("redefined routine result = %v, want trailing column 6", res.Rows)
	}
}

// The MAX point predicates (table.begin <= cp.begin < table.end) run
// through the storage layer's sorted-interval index: executing a
// sequenced MAX query must record interval probes.
func TestMaxSlicingUsesIntervalIndex(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	m := db.Metrics()
	if _, err := db.Query(`VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT title FROM item`); err != nil {
		t.Fatal(err)
	}
	if probes := m.Value("engine.interval_probes_total"); probes == 0 {
		t.Fatal("engine.interval_probes_total = 0; MAX slicing scanned instead of probing the interval index")
	}
}

// The two strategies cache independently: the translation key includes
// the strategy setting.
func TestTranslationCacheKeyedByStrategy(t *testing.T) {
	db := paperDB(t)
	m := db.Metrics()
	const q = `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT title FROM item`

	db.SetStrategy(Max)
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	db.SetStrategy(PerStatement)
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if misses := m.Value("stratum.cache.translation_misses_total"); misses != 2 {
		t.Fatalf("translation misses = %d, want 2 (one per strategy)", misses)
	}
	db.SetStrategy(Max)
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if hits := m.Value("stratum.cache.translation_hits_total"); hits != 1 {
		t.Fatalf("translation hits = %d, want 1 (MAX entry still valid)", hits)
	}
}

// A context written with CURRENT_DATE moves with the clock: the plan is
// still good (a translation hit), but the constant periods it holds were
// computed for the old window, so they are recomputed (a cp miss) and
// the rows are those of the new window.
func TestContextMovesWithNow(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	m := db.Metrics()
	const q = `VALIDTIME (CURRENT_DATE, CURRENT_DATE + 20) SELECT first_name FROM author WHERE author_id = 'a1'`
	query := func() []string {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return sortedRows(res)
	}
	if got, want := query(), []string{"2010-06-15|2010-07-01|Ben", "2010-07-01|2010-07-05|Benjamin"}; strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("first window: %v, want %v", got, want)
	}
	query()
	if hits := m.Value("stratum.cache.cp_hits_total"); hits != 1 {
		t.Fatalf("cp hits on an unmoved clock = %d, want 1", hits)
	}
	db.SetNow(2010, 8, 1)
	if got, want := query(), []string{"2010-08-01|2010-08-21|Benjamin"}; strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("window after SetNow: %v, want %v", got, want)
	}
	if hits, misses := m.Value("stratum.cache.translation_hits_total"), m.Value("stratum.cache.translation_misses_total"); hits != 2 || misses != 1 {
		t.Fatalf("translation hits=%d misses=%d, want 2/1 (the plan does not depend on the clock)", hits, misses)
	}
	if hits, misses := m.Value("stratum.cache.cp_hits_total"), m.Value("stratum.cache.cp_misses_total"); hits != 1 || misses != 2 {
		t.Fatalf("cp hits=%d misses=%d, want 1/2 (the evaluated context moved)", hits, misses)
	}
}

// Auto probes the statement it was given: the PERST probe keeps the
// statement's dimension and secondary context, so a statement PERST
// cannot transform is decided by clause (a) — not first decided
// perst_default and then caught by a failing second translation — and
// EXPLAIN prints the reason of the strategy it prints.
func TestAutoProbesTheStatementItWasGiven(t *testing.T) {
	db := Open()
	db.SetNow(2010, 6, 15)
	db.MustExec(`
CREATE TABLE a (k INTEGER) AS TRANSACTIONTIME;
CREATE TABLE b (k INTEGER) AS TRANSACTIONTIME;
CREATE TABLE bt (k INTEGER) AS VALIDTIME AS TRANSACTIONTIME;
INSERT INTO a VALUES (1), (2);
INSERT INTO b VALUES (2);
INSERT INTO bt VALUES (1);`)
	m := db.Metrics()
	for _, q := range []string{
		`TRANSACTIONTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT k FROM a EXCEPT SELECT k FROM b`,
		`VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') AND TRANSACTIONTIME (DATE '2010-06-15', DATE '2010-06-16') SELECT COUNT(*) FROM bt`,
	} {
		e, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if e.Strategy != Max || e.AutoReason != "perst_not_transformable" {
			t.Errorf("EXPLAIN %s: (%v, %q), want (MAX, perst_not_transformable)", q, e.Strategy, e.AutoReason)
		}
		before := [2]int64{m.Value("stratum.auto.reason.perst_default_total"), m.Value("stratum.auto.reason.perst_not_transformable_total")}
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
		after := [2]int64{m.Value("stratum.auto.reason.perst_default_total"), m.Value("stratum.auto.reason.perst_not_transformable_total")}
		if after != [2]int64{before[0], before[1] + 1} {
			t.Errorf("%s: (perst_default, perst_not_transformable) %v -> %v, want only the second to move", q, before, after)
		}
	}
	if n := m.Value("stratum.perst_fallback_total"); n != 0 {
		t.Errorf("stratum.perst_fallback_total = %d, want 0: a chosen PERST translation cannot fail any more", n)
	}
}

// A source's memo lives on the SELECT plan node, so every execution path
// is served by it, not only MAX's native one: a PERST statement (Setup,
// main, Teardown through plain engine statements) and a current SELECT
// that reaches a routine body record hits once repeated, with the rows
// of the first execution.
func TestSourceMemoServesPerstAndCurrentStatements(t *testing.T) {
	for _, c := range []struct {
		name     string
		strategy Strategy
		sql      string
	}{
		{"PERST", PerStatement, `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01')
			SELECT i.title FROM item i, item_author ia WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`},
		{"current", Auto, `SELECT a.first_name, items_by(a.author_id) FROM author a`},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := paperDB(t)
			// item's filter reads no parameter: a source the memo may keep.
			db.MustExec(`CREATE FUNCTION items_by (aid CHAR(10)) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
				BEGIN RETURN (SELECT COUNT(*) FROM item i, item_author ia WHERE i.id = ia.item_id AND ia.author_id = aid); END`)
			db.SetStrategy(c.strategy)
			hits := func() int64 { return db.Metrics().Value("engine.plan_reuse_hits_total") }
			var first string
			for i := 0; i < 4; i++ {
				res, err := db.Query(c.sql)
				if err != nil {
					t.Fatal(err)
				}
				got := res.String()
				if i == 0 {
					first = got
				} else if got != first {
					t.Fatalf("execution %d diverges from the first\n--- first\n%s--- now\n%s", i, first, got)
				}
			}
			if len(first) == 0 || hits() == 0 {
				t.Fatalf("four executions recorded %d plan-reuse hits over a result of %d bytes; want both non-zero", hits(), len(first))
			}
		})
	}
}

// A context whose bounds are string literals is read as dates, as the
// translated statement reads them: MAX and the auto choice used to take
// the strings' integer value, day 0, and returned no rows, and PERST
// returned a clipped row's bound as the string itself.
func TestStringContextBoundsAreDates(t *testing.T) {
	db := Open()
	db.SetNow(2010, 6, 15)
	if _, err := db.Exec(`
CREATE TABLE p (k INTEGER, v INTEGER) AS VALIDTIME;
NONSEQUENCED VALIDTIME INSERT INTO p VALUES (1, 10, DATE '2010-01-01', DATE '2010-06-01');
NONSEQUENCED VALIDTIME INSERT INTO p VALUES (2, 20, DATE '2010-06-01', DATE '2011-01-01');
NONSEQUENCED VALIDTIME INSERT INTO p VALUES (3, 30, DATE '2010-08-01', DATE '2010-08-15');
NONSEQUENCED VALIDTIME INSERT INTO p VALUES (4, 40, DATE '2010-10-01', DATE '2010-11-01');`); err != nil {
		t.Fatal(err)
	}
	// The per-day answer: (day, v) for every day of the context a row
	// holds on.
	begin, end := int64(14669), int64(14853) // 2010-03-01, 2010-09-01
	want := map[[2]int64]int{}
	for _, r := range [][3]int64{{10, 14610, 14761}, {20, 14761, 14975}, {30, 14822, 14836}, {40, 14883, 14914}} {
		for d := max(r[1], begin); d < min(r[2], end); d++ {
			want[[2]int64{d, r[0]}]++
		}
	}
	const q = `VALIDTIME ('2010-03-01', '2010-09-01') SELECT v FROM p`
	for _, s := range []Strategy{Max, PerStatement, Auto} {
		db.SetStrategy(s)
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got := map[[2]int64]int{}
		for _, row := range res.Rows {
			if row[0].inner.Kind != types.KindDate || row[1].inner.Kind != types.KindDate {
				t.Fatalf("%v: period [%v, %v) is no date", s, row[0], row[1])
			}
			for d := row[0].Int(); d < row[1].Int(); d++ {
				got[[2]int64{d, row[2].Int()}]++
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: %d (day, v) pairs from %d rows, want %d", s, len(got), len(res.Rows), len(want))
		}
	}
	e, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if e.ContextBegin != "2010-03-01" || e.ContextEnd != "2010-09-01" {
		t.Errorf("EXPLAIN context = [%s, %s), want [2010-03-01, 2010-09-01)", e.ContextBegin, e.ContextEnd)
	}
	// The same context inside a routine a NONSEQUENCED statement calls:
	// the FOR row's clipped begin_time is a DATE there too.
	if _, err := db.Exec(`CREATE FUNCTION firstday () RETURNS DATE READS SQL DATA
BEGIN
  DECLARE r DATE;
  FOR x AS VALIDTIME ('2010-03-01', '2010-09-01') SELECT v FROM p WHERE k = 1 DO
    SET r = x.begin_time + 1;
  END FOR;
  RETURN r;
END`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`NONSEQUENCED VALIDTIME SELECT firstday() FROM p WHERE k = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0]; got.inner.Kind != types.KindDate || got.String() != "2010-03-02" {
		t.Errorf("inner context: firstday() = %v, want DATE 2010-03-02", got)
	}
}
