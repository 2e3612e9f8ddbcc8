package taupsm_test

import (
	"slices"
	"testing"

	"taupsm"
	"taupsm/internal/sqlparser"
)

// A view is a node of the call graph for effects: what its query writes
// through a routine it calls is a write of every statement and routine
// that reads the view. These tests fail when the effect summary stops
// at the view's name: the function memo then skips the writes of all
// but the first call, and EXPLAIN omits them.

const viewEffectsSchema = `
CREATE TABLE t (a INTEGER);
CREATE TABLE s (a INTEGER);
CREATE TABLE log (x INTEGER);
CREATE TABLE e (a INTEGER) AS VALIDTIME;
INSERT INTO t VALUES (1), (2), (3);
INSERT INTO s VALUES (1), (2), (3);
NONSEQUENCED VALIDTIME INSERT INTO e VALUES
  (1, DATE '2010-01-01', DATE '2010-02-01'),
  (2, DATE '2010-02-01', DATE '2010-03-01');
CREATE FUNCTION bump (x INTEGER) RETURNS INTEGER
BEGIN
  INSERT INTO log VALUES (x);
  RETURN x;
END;
CREATE FUNCTION quiet (x INTEGER) RETURNS INTEGER
BEGIN
  RETURN x;
END;
CREATE VIEW v AS SELECT bump(a) AS b FROM s;
CREATE FUNCTION viaview (x INTEGER) RETURNS INTEGER
BEGIN
  RETURN (SELECT COUNT(*) FROM v);
END;
`

const viewSequenced = `VALIDTIME SELECT a, (SELECT COUNT(*) FROM v) FROM e`

func viewEffectsDB(t *testing.T) *taupsm.DB {
	t.Helper()
	db := taupsm.Open()
	db.SetNow(2010, 3, 5)
	db.MustExec(viewEffectsSchema)
	return db
}

func logCount(t *testing.T, db *taupsm.DB) int64 {
	t.Helper()
	res, err := db.Query(`SELECT COUNT(*) FROM log`)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].Int()
}

// logAfter runs src on a fresh database and returns how many rows it
// left in log.
func logAfter(t *testing.T, src string, memo bool) int64 {
	t.Helper()
	db := viewEffectsDB(t)
	db.Engine().DisableFnMemo = !memo
	db.SetStrategy(taupsm.Max)
	if _, err := db.Query(src); err != nil {
		t.Fatal(err)
	}
	return logCount(t, db)
}

func TestViewWritesReachTheFunctionMemo(t *testing.T) {
	const src = `SELECT viaview(1) FROM t`
	if got, want := logAfter(t, src, true), logAfter(t, src, false); got != want {
		t.Errorf("log holds %d rows with the function memo, %d without", got, want)
	}
	db := viewEffectsDB(t)
	if db.Engine().RoutinePure("viaview") {
		t.Error("viaview reads a view whose query writes log, and is judged pure")
	}
	ex, err := db.Explain(src)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ex.RoutineMemo, []string{"viaview: not memoizable (writes log)"}) || !slices.Equal(ex.Writes, []string{"log[snapshot]"}) {
		t.Errorf("EXPLAIN: routine memo %v, writes %v", ex.RoutineMemo, ex.Writes)
	}
	// What the view's query reads (s) stays behind its name.
	if !slices.Equal(ex.Reads, []string{"t[snapshot]", "v[snapshot]"}) {
		t.Errorf("EXPLAIN: reads %v", ex.Reads)
	}
}

// mainWrites is the write list of the summary of sql's MAX translation:
// what the plan records of the statement that runs.
func mainWrites(t *testing.T, db *taupsm.DB, sql string) []string {
	t.Helper()
	stmt, err := sqlparser.ParseStatement(sql)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := db.TranslateStmt(stmt, taupsm.Max)
	if err != nil {
		t.Fatal(err)
	}
	return db.MainSummary(tr).WriteList()
}

func TestViewWritesReachTheSummary(t *testing.T) {
	db := viewEffectsDB(t)
	db.SetStrategy(taupsm.Max)
	if w := mainWrites(t, db, viewSequenced); !slices.Equal(w, []string{"log"}) {
		t.Errorf("summary of a statement reading a view whose query writes log: writes %v", w)
	}
	ex, err := db.Explain(viewSequenced)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ex.Writes, []string{"log[snapshot]"}) {
		t.Errorf("EXPLAIN: writes %v", ex.Writes)
	}
	if got, want := logAfter(t, viewSequenced, true), logAfter(t, viewSequenced, false); got != want {
		t.Errorf("log holds %d rows with the function memo, %d without", got, want)
	}
}

// Redefining a view, or a routine behind it, changes what the readers
// of the view write: the purity verdict and the cached plan that rested
// on the old definition must go.
func TestRedefinedViewInvalidatesVerdictAndPlan(t *testing.T) {
	db := viewEffectsDB(t)
	db.MustExec(`CREATE OR REPLACE VIEW v AS SELECT quiet(a) AS b FROM s`)
	db.SetStrategy(taupsm.Max)
	misses := func() int64 { return db.Metrics().Value("stratum.cache.translation_misses_total") }
	writes := func() []string {
		ex, err := db.Explain(viewSequenced)
		if err != nil {
			t.Fatal(err)
		}
		return ex.Writes
	}

	for _, redefine := range []string{
		`CREATE OR REPLACE VIEW v AS SELECT bump(a) AS b FROM s`,
		`CREATE OR REPLACE FUNCTION quiet (x INTEGER) RETURNS INTEGER BEGIN INSERT INTO log VALUES (x); RETURN x; END`,
	} {
		db.MustExec(`CREATE OR REPLACE VIEW v AS SELECT quiet(a) AS b FROM s`)
		db.MustExec(`CREATE OR REPLACE FUNCTION quiet (x INTEGER) RETURNS INTEGER BEGIN RETURN x; END`)
		if !db.Engine().RoutinePure("viaview") {
			t.Fatal("viaview over a pure view is judged impure")
		}
		if _, err := db.Query(viewSequenced); err != nil {
			t.Fatal(err)
		}
		if w := writes(); len(w) != 0 {
			t.Fatalf("the statement over a pure view writes %v", w)
		}
		before := misses()
		db.MustExec(redefine)
		if db.Engine().RoutinePure("viaview") {
			t.Errorf("after %q viaview keeps its pure verdict", redefine)
		}
		if w := writes(); !slices.Equal(w, []string{"log[snapshot]"}) {
			t.Errorf("after %q EXPLAIN shows writes %v", redefine, w)
		}
		if _, err := db.Query(viewSequenced); err != nil {
			t.Fatal(err)
		}
		if misses() != before+1 {
			t.Errorf("after %q the statement kept its cached plan", redefine)
		}
	}
}

// TestCalleeSharedWriteReachesCallerSummary is the regression test of
// a lost write in the effect summary: a routine the query calls inserts
// into a non-temporal table, whose access carries the empty dimension
// mask, and Summary.merge used to drop such accesses on the way from
// the callee's summary to the caller's. The caller's summary and EXPLAIN
// must name the write, the callee must not be memoized, and the INSERT
// must run once per constant period and row.
func TestCalleeSharedWriteReachesCallerSummary(t *testing.T) {
	db := taupsm.Open()
	db.SetNow(2010, 6, 15)
	db.MustExec(`
		CREATE TABLE emp (k INTEGER) AS VALIDTIME;
		CREATE TABLE audit (n INTEGER);
		NONSEQUENCED VALIDTIME INSERT INTO emp VALUES
		  (1, DATE '2010-01-01', DATE '2010-02-15'),
		  (2, DATE '2010-02-01', DATE '2010-03-15');
		CREATE FUNCTION noisy (kk INTEGER)
		RETURNS INTEGER
		MODIFIES SQL DATA
		LANGUAGE SQL
		BEGIN
		  INSERT INTO audit VALUES (kk);
		  RETURN kk;
		END;
	`)
	db.SetStrategy(taupsm.Max)
	const sql = `VALIDTIME (DATE '2010-01-01', DATE '2010-04-01') SELECT noisy(k) FROM emp`

	if w := mainWrites(t, db, sql); !slices.Equal(w, []string{"audit"}) {
		t.Errorf("summary of a statement that writes audit through a called routine: writes %v", w)
	}
	if db.Engine().RoutinePure("noisy") {
		t.Error("noisy writes audit, and is judged pure")
	}
	ex, err := db.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ex.Writes, []string{"audit[snapshot]"}) {
		t.Errorf("EXPLAIN: writes %v; want [audit[snapshot]]", ex.Writes)
	}

	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	// Constant periods: [01-01,02-01) {1}, [02-01,02-15) {1,2}, [02-15,03-15) {2}.
	audit, err := db.Query(`SELECT n FROM audit`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || len(audit.Rows) != 4 {
		t.Errorf("%d result rows and %d audit rows, want 4 and 4", len(res.Rows), len(audit.Rows))
	}
}
