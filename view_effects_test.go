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
// but the first call, and parallel MAX evaluation runs them on two
// workers at once.

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
func logAfter(t *testing.T, src string, memo bool, parallelism int) int64 {
	t.Helper()
	db := viewEffectsDB(t)
	db.Engine().DisableFnMemo = !memo
	db.SetStrategy(taupsm.Max)
	db.SetParallelism(parallelism)
	if _, err := db.Query(src); err != nil {
		t.Fatal(err)
	}
	return logCount(t, db)
}

func TestViewWritesReachTheFunctionMemo(t *testing.T) {
	const src = `SELECT viaview(1) FROM t`
	if got, want := logAfter(t, src, true, 1), logAfter(t, src, false, 1); got != want {
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

func TestViewWritesReachTheParallelGate(t *testing.T) {
	db := viewEffectsDB(t)
	db.SetStrategy(taupsm.Max)
	db.SetParallelism(2)
	stmt, err := sqlparser.ParseStatement(viewSequenced)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := db.TranslateStmt(stmt, taupsm.Max)
	if err != nil {
		t.Fatal(err)
	}
	if db.ParallelSafe(tr) {
		t.Error("a statement reading a view whose query writes log passed the parallel gate")
	}
	ex, err := db.Explain(viewSequenced)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Parallelism != 1 {
		t.Errorf("EXPLAIN plans parallelism %d over a view that writes", ex.Parallelism)
	}
	if got, want := logAfter(t, viewSequenced, true, 2), logAfter(t, viewSequenced, true, 1); got != want {
		t.Errorf("log holds %d rows after the run on 2 workers, %d after the serial run", got, want)
	}
}

// Redefining a view, or a routine behind it, changes what the readers
// of the view write: the purity verdict and the cached plan that rested
// on the old definition must go.
func TestRedefinedViewInvalidatesVerdictAndPlan(t *testing.T) {
	db := viewEffectsDB(t)
	db.MustExec(`CREATE OR REPLACE VIEW v AS SELECT quiet(a) AS b FROM s`)
	db.SetStrategy(taupsm.Max)
	db.SetParallelism(2)
	parallel := func() int64 { return db.Metrics().Value("stratum.parallel.statements_total") }

	if !db.Engine().RoutinePure("viaview") {
		t.Fatal("viaview over a pure view is judged impure")
	}
	if _, err := db.Query(viewSequenced); err != nil {
		t.Fatal(err)
	}
	if parallel() != 1 {
		t.Fatalf("the statement over a pure view did not run in parallel")
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
		before := parallel()
		db.MustExec(redefine)
		if db.Engine().RoutinePure("viaview") {
			t.Errorf("after %q viaview keeps its pure verdict", redefine)
		}
		if _, err := db.Query(viewSequenced); err != nil {
			t.Fatal(err)
		}
		if parallel() != before {
			t.Errorf("after %q the statement kept its parallel plan", redefine)
		}
	}
}
