package engine

import (
	"testing"

	"taupsm/internal/obs"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// memoDB is a database with a pure function over a mutable table and a
// driver procedure that calls it repeatedly in one statement.
func memoDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `
		CREATE TABLE counters (k INTEGER, v INTEGER);
		INSERT INTO counters VALUES (1, 100), (2, 200);
		CREATE FUNCTION get_v (kk INTEGER)
		RETURNS INTEGER
		READS SQL DATA
		LANGUAGE SQL
		BEGIN
		  DECLARE r INTEGER;
		  SET r = (SELECT v FROM counters WHERE k = kk);
		  RETURN r;
		END;
	`)
	return db
}

// A pure function called twice with the same argument in one statement
// executes once; the second call is a memo hit that still counts as a
// logical routine call.
func TestFnMemoHitCountsAsCall(t *testing.T) {
	db := memoDB(t)
	base := db.Stats
	res := mustExec(t, db, `SELECT get_v(1) + get_v(1) + get_v(2) FROM counters WHERE k = 1`)
	if got := res.Rows[0][0].Int(); got != 400 {
		t.Fatalf("result = %d, want 400", got)
	}
	if calls := db.Stats.RoutineCalls - base.RoutineCalls; calls != 3 {
		t.Fatalf("RoutineCalls delta = %d, want 3 (memo hits are logical calls)", calls)
	}
	if hits := db.Stats.RoutineMemoHits - base.RoutineMemoHits; hits != 1 {
		t.Fatalf("RoutineMemoHits delta = %d, want 1", hits)
	}
}

// The memo is scoped to one statement: a later statement re-executes
// the function and sees data changed between statements.
func TestFnMemoPerStatement(t *testing.T) {
	db := memoDB(t)
	r1 := mustExec(t, db, `SELECT get_v(1) FROM counters WHERE k = 1`)
	mustExec(t, db, `UPDATE counters SET v = 111 WHERE k = 1`)
	r2 := mustExec(t, db, `SELECT get_v(1) FROM counters WHERE k = 1`)
	if a, b := r1.Rows[0][0].Int(), r2.Rows[0][0].Int(); a != 100 || b != 111 {
		t.Fatalf("got %d then %d, want 100 then 111", a, b)
	}
}

// DML inside the statement wipes the memo: a procedure that reads,
// writes, and re-reads through the same pure function must observe the
// write.
func TestFnMemoInvalidatedByWriteInStatement(t *testing.T) {
	db := memoDB(t)
	mustExec(t, db, `
		CREATE TABLE probe (a INTEGER, b INTEGER);
		CREATE PROCEDURE read_write_read ()
		MODIFIES SQL DATA
		LANGUAGE SQL
		BEGIN
		  DECLARE before INTEGER;
		  DECLARE after INTEGER;
		  SET before = get_v(1);
		  UPDATE counters SET v = 999 WHERE k = 1;
		  SET after = get_v(1);
		  INSERT INTO probe VALUES (before, after);
		END;
	`)
	mustExec(t, db, `CALL read_write_read()`)
	res := mustExec(t, db, `SELECT a, b FROM probe`)
	if a, b := res.Rows[0][0].Int(), res.Rows[0][1].Int(); a != 100 || b != 999 {
		t.Fatalf("read-write-read saw %d then %d, want 100 then 999", a, b)
	}
}

// A DML statement whose own expressions call a memoized function must
// not leave the value it computed before (or between) its row changes
// for whatever is evaluated next. Each procedure stores what it saw in
// probe; the memo must be invisible, so the rows equal a DisableFnMemo
// run's.
func TestFnMemoInvalidatedByWriteOfCallingStatement(t *testing.T) {
	cases := []struct{ name, body string }{
		{"update-where", `
		  UPDATE counters SET v = v + 1 WHERE total(0) > 0 AND k = 2;
		  INSERT INTO probe VALUES (total(0));`},
		{"update-set-sees-earlier-rows", `
		  UPDATE counters SET v = total(0);
		  INSERT INTO probe SELECT v FROM counters;`},
		{"insert-source", `
		  INSERT INTO counters SELECT 3, total(0) FROM counters WHERE k = 1;
		  INSERT INTO probe VALUES (total(0));`},
		{"delete-where", `
		  DELETE FROM counters WHERE total(0) > 0 AND k = 2;
		  INSERT INTO probe VALUES (total(0));`},
		{"update-fails-midway-under-handler", `
		  DECLARE CONTINUE HANDLER FOR SQLEXCEPTION SET failed = 1;
		  UPDATE counters SET v = v + total(0) / (2 - k);
		  INSERT INTO probe VALUES (failed), (total(0));`},
	}
	run := func(body string, disable bool) [][]types.Value {
		db := memoDB(t)
		db.DisableFnMemo = disable
		mustExec(t, db, `
			CREATE TABLE probe (a INTEGER);
			CREATE FUNCTION total (z INTEGER)
			RETURNS INTEGER
			READS SQL DATA
			LANGUAGE SQL
			BEGIN
			  RETURN (SELECT SUM(v) FROM counters) + z;
			END;
			CREATE PROCEDURE p ()
			MODIFIES SQL DATA
			LANGUAGE SQL
			BEGIN
			  DECLARE failed INTEGER DEFAULT 0;`+body+`
			END;
		`)
		mustExec(t, db, `CALL p()`)
		return mustExec(t, db, `SELECT a FROM probe`).Rows
	}
	for _, c := range cases {
		memo, plain := run(c.body, false), run(c.body, true)
		if len(plain) == 0 || len(memo) != len(plain) {
			t.Fatalf("%s: %d rows with the memo, %d without", c.name, len(memo), len(plain))
		}
		for i := range plain {
			if memo[i][0].Int() != plain[i][0].Int() {
				t.Errorf("%s: row %d is %d with the memo, %d without", c.name, i, memo[i][0].Int(), plain[i][0].Int())
			}
		}
	}
}

// A function that writes a stored table is impure and never memoized —
// every call runs.
func TestFnMemoSkipsImpureFunctions(t *testing.T) {
	db := memoDB(t)
	mustExec(t, db, `
		CREATE TABLE audit (n INTEGER);
		CREATE FUNCTION noisy_v (kk INTEGER)
		RETURNS INTEGER
		MODIFIES SQL DATA
		LANGUAGE SQL
		BEGIN
		  INSERT INTO audit VALUES (kk);
		  RETURN (SELECT v FROM counters WHERE k = kk);
		END;
	`)
	mustExec(t, db, `SELECT noisy_v(1) + noisy_v(1) FROM counters WHERE k = 1`)
	res := mustExec(t, db, `SELECT n FROM audit`)
	if len(res.Rows) != 2 {
		t.Fatalf("impure function ran %d times, want 2", len(res.Rows))
	}
	if db.Stats.RoutineMemoHits != 0 {
		t.Fatalf("RoutineMemoHits = %d for an impure function, want 0", db.Stats.RoutineMemoHits)
	}
	// Transitively: a pure-looking wrapper around an impure callee is
	// impure too.
	mustExec(t, db, `
		CREATE FUNCTION wrapper (kk INTEGER)
		RETURNS INTEGER
		READS SQL DATA
		LANGUAGE SQL
		BEGIN
		  RETURN noisy_v(kk);
		END;
	`)
	mustExec(t, db, `SELECT wrapper(2) + wrapper(2) FROM counters WHERE k = 1`)
	res = mustExec(t, db, `SELECT n FROM audit`)
	if len(res.Rows) != 4 {
		t.Fatalf("impure wrapper ran %d audit inserts total, want 4", len(res.Rows))
	}
}

// DisableFnMemo turns the optimization off: repeated calls all execute
// and no memo hits are counted.
func TestFnMemoDisabled(t *testing.T) {
	db := memoDB(t)
	db.DisableFnMemo = true
	mustExec(t, db, `SELECT get_v(1) + get_v(1) FROM counters WHERE k = 1`)
	if db.Stats.RoutineMemoHits != 0 {
		t.Fatalf("RoutineMemoHits = %d with memo disabled, want 0", db.Stats.RoutineMemoHits)
	}
	if db.Stats.RoutineCalls != 2 {
		t.Fatalf("RoutineCalls = %d, want 2", db.Stats.RoutineCalls)
	}
}

// ---- collection results at the FROM site ----

// collDB extends memoDB with a collection-returning function over the
// same mutable table, and a results table for driver procedures.
func collDB(t *testing.T) *DB {
	t.Helper()
	db := memoDB(t)
	mustExec(t, db, `
		CREATE TABLE probe (a INTEGER, b INTEGER);
		CREATE FUNCTION vals (kk INTEGER)
		RETURNS ROW(k INTEGER, v INTEGER) ARRAY
		READS SQL DATA
		LANGUAGE SQL
		BEGIN
		  DECLARE acc ROW(k INTEGER, v INTEGER) ARRAY;
		  INSERT INTO TABLE acc SELECT k, v FROM counters WHERE k = kk;
		  RETURN acc;
		END;
	`)
	return db
}

// (a) Equal arguments at the FROM site hit: both invocations are
// counted as calls, one as a memo hit, and the rows are those of a run
// without the memo.
func TestFnMemoCollectionHitAtFromSite(t *testing.T) {
	const q = `SELECT c.k, f.v FROM counters c, TABLE(vals(1)) AS f ORDER BY c.k`
	db := collDB(t)
	base := db.Stats
	got := mustExec(t, db, q)
	if calls := db.Stats.RoutineCalls - base.RoutineCalls; calls != 2 {
		t.Errorf("RoutineCalls delta = %d, want 2", calls)
	}
	if hits := db.Stats.RoutineMemoHits - base.RoutineMemoHits; hits != 1 {
		t.Errorf("RoutineMemoHits delta = %d, want 1", hits)
	}
	off := collDB(t)
	off.DisableFnMemo = true
	want := mustExec(t, off, q)
	if off.Stats.RoutineMemoHits != 0 || off.Stats.RoutineCalls != 2 {
		t.Errorf("DisableFnMemo: %d hits, %d calls; want 0 and 2", off.Stats.RoutineMemoHits, off.Stats.RoutineCalls)
	}
	expectRows(t, got, "1,100", "2,100")
	expectRows(t, want, "1,100", "2,100")
	// Distinct arguments are distinct keys.
	base = db.Stats
	mustExec(t, db, `SELECT f.v FROM counters c, TABLE(vals(c.k)) AS f`)
	if hits := db.Stats.RoutineMemoHits - base.RoutineMemoHits; hits != 0 {
		t.Errorf("distinct arguments hit the memo %d times", hits)
	}
}

// (b) Only a write to shared state wipes the memo: a stored-table
// UPDATE between two reads is seen by the second, and DDL on the
// catalog wipes as well, while writes to a collection variable or to a
// temporary table the routine created for itself leave the entry in
// place.
func TestFnMemoCollectionWipedBySharedWritesOnly(t *testing.T) {
	for _, tc := range []struct {
		name, write string
		after       int64 // value the second read sees
		hits        int64
	}{
		{"stored table", `UPDATE counters SET v = 999 WHERE k = 1;`, 999, 0},
		{"catalog DDL", `CREATE VIEW vv AS SELECT k FROM counters; DROP VIEW vv;`, 100, 0},
		{"DDL that changes nothing", `DROP TABLE IF EXISTS nothing;`, 100, 1},
		{"collection variable", `INSERT INTO TABLE scratch VALUES (7, 7); UPDATE TABLE scratch SET v = 8; DELETE FROM TABLE scratch;`, 100, 1},
		{"frame-local temp table", `CREATE TEMPORARY TABLE stage (n INTEGER); INSERT INTO stage VALUES (1); DELETE FROM stage; DROP TABLE stage;`, 100, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := collDB(t)
			mustExec(t, db, `
				CREATE PROCEDURE read_write_read ()
				MODIFIES SQL DATA
				LANGUAGE SQL
				BEGIN
				  DECLARE before INTEGER;
				  DECLARE after INTEGER;
				  DECLARE scratch ROW(k INTEGER, v INTEGER) ARRAY;
				  SET before = (SELECT f.v FROM TABLE(vals(1)) AS f);
				  `+tc.write+`
				  SET after = (SELECT f.v FROM TABLE(vals(1)) AS f);
				  INSERT INTO probe VALUES (before, after);
				END;
			`)
			base := db.Stats
			mustExec(t, db, `CALL read_write_read()`)
			res := mustExec(t, db, `SELECT a, b FROM probe`)
			if a, b := res.Rows[0][0].Int(), res.Rows[0][1].Int(); a != 100 || b != tc.after {
				t.Errorf("read-write-read saw %d then %d, want 100 then %d", a, b, tc.after)
			}
			if hits := db.Stats.RoutineMemoHits - base.RoutineMemoHits; hits != tc.hits {
				t.Errorf("RoutineMemoHits delta = %d, want %d", hits, tc.hits)
			}
		})
	}
}

// (c) A collection function that writes a stored table runs every
// time, also when called through a wrapper that looks pure.
func TestFnMemoCollectionSkipsSharedWriters(t *testing.T) {
	db := collDB(t)
	mustExec(t, db, `
		CREATE TABLE audit (n INTEGER);
		CREATE FUNCTION noisy_vals (kk INTEGER)
		RETURNS ROW(k INTEGER, v INTEGER) ARRAY
		MODIFIES SQL DATA
		LANGUAGE SQL
		BEGIN
		  DECLARE acc ROW(k INTEGER, v INTEGER) ARRAY;
		  INSERT INTO audit VALUES (kk);
		  INSERT INTO TABLE acc SELECT k, v FROM counters WHERE k = kk;
		  RETURN acc;
		END;
		CREATE FUNCTION wrapped_vals (kk INTEGER)
		RETURNS ROW(k INTEGER, v INTEGER) ARRAY
		READS SQL DATA
		LANGUAGE SQL
		BEGIN
		  DECLARE acc ROW(k INTEGER, v INTEGER) ARRAY;
		  INSERT INTO TABLE acc SELECT f.k, f.v FROM TABLE(noisy_vals(kk)) AS f;
		  RETURN acc;
		END;
	`)
	mustExec(t, db, `SELECT f.v FROM counters c, TABLE(noisy_vals(1)) AS f`)
	if n := len(mustExec(t, db, `SELECT n FROM audit`).Rows); n != 2 {
		t.Errorf("writing collection function ran %d times, want 2", n)
	}
	mustExec(t, db, `SELECT f.v FROM counters c, TABLE(wrapped_vals(1)) AS f`)
	if n := len(mustExec(t, db, `SELECT n FROM audit`).Rows); n != 4 {
		t.Errorf("wrapper around a writing function left %d audit rows, want 4", n)
	}
	if db.Stats.RoutineMemoHits != 0 {
		t.Errorf("RoutineMemoHits = %d for functions that write shared state, want 0", db.Stats.RoutineMemoHits)
	}
}

// (d) Aliasing: a collection held by the memo is never reachable
// through a variable. SET v = f(1) is a real call whose table the
// caller owns; changing it in place — before or after the FROM site
// memoized f(1) — leaves what the FROM site returns untouched.
func TestFnMemoCollectionNotAliasedByVariables(t *testing.T) {
	db := collDB(t)
	mustExec(t, db, `
		CREATE PROCEDURE alias ()
		MODIFIES SQL DATA
		LANGUAGE SQL
		BEGIN
		  DECLARE v ROW(k INTEGER, v INTEGER) ARRAY;
		  DECLARE w ROW(k INTEGER, v INTEGER) ARRAY;
		  DECLARE first INTEGER;
		  SET first = (SELECT SUM(f.v) FROM TABLE(vals(1)) AS f);
		  SET v = vals(1);
		  INSERT INTO TABLE v VALUES (1, 5);
		  UPDATE TABLE v SET v = v + 1;
		  SET w = vals(1);
		  DELETE FROM TABLE w;
		  INSERT INTO probe VALUES (first, (SELECT SUM(f.v) FROM TABLE(vals(1)) AS f));
		  INSERT INTO probe VALUES ((SELECT SUM(x.v) FROM v AS x), (SELECT COUNT(*) FROM w AS x));
		END;
	`)
	base := db.Stats
	mustExec(t, db, `CALL alias()`)
	res := mustExec(t, db, `SELECT a, b FROM probe`)
	// The FROM site sees 100 both times; v holds 101 + 6, w no rows.
	expectRows(t, res, "100,100", "107,0")
	// vals ran for the first FROM site and for each SET.
	if hits := db.Stats.RoutineMemoHits - base.RoutineMemoHits; hits != 1 {
		t.Errorf("RoutineMemoHits delta = %d, want 1 (the second FROM site)", hits)
	}
}

// (e) A table-valued argument disables the memo: its contents are not
// part of the key.
func TestFnMemoCollectionTableArgumentDisables(t *testing.T) {
	db := collDB(t)
	mustExec(t, db, `
		CREATE FUNCTION pass (src ROW(k INTEGER, v INTEGER) ARRAY)
		RETURNS ROW(k INTEGER, v INTEGER) ARRAY
		READS SQL DATA
		LANGUAGE SQL
		BEGIN
		  DECLARE acc ROW(k INTEGER, v INTEGER) ARRAY;
		  INSERT INTO TABLE acc SELECT s.k, s.v FROM src AS s;
		  RETURN acc;
		END;
		CREATE PROCEDURE twice ()
		MODIFIES SQL DATA
		LANGUAGE SQL
		BEGIN
		  DECLARE t ROW(k INTEGER, v INTEGER) ARRAY;
		  DECLARE a INTEGER;
		  DECLARE b INTEGER;
		  INSERT INTO TABLE t VALUES (1, 10);
		  SET a = (SELECT SUM(f.v) FROM TABLE(pass(t)) AS f);
		  INSERT INTO TABLE t VALUES (2, 20);
		  SET b = (SELECT SUM(f.v) FROM TABLE(pass(t)) AS f);
		  INSERT INTO probe VALUES (a, b);
		END;
	`)
	mustExec(t, db, `CALL twice()`)
	expectRows(t, mustExec(t, db, `SELECT a, b FROM probe`), "10,30")
	if db.Stats.RoutineMemoHits != 0 {
		t.Errorf("RoutineMemoHits = %d with a table-valued argument, want 0", db.Stats.RoutineMemoHits)
	}
}

// (f) A tracer does not change what runs: the second call is still a
// hit, and only the execution emits an engine.routine span.
func TestFnMemoCollectionUnchangedUnderTracer(t *testing.T) {
	db := collDB(t)
	col := &obs.Collector{}
	db.Tracer = col
	mustExec(t, db, `SELECT f.v FROM counters c, TABLE(vals(1)) AS f`)
	if db.Stats.RoutineCalls != 2 || db.Stats.RoutineMemoHits != 1 {
		t.Errorf("calls = %d, memo hits = %d under a tracer, want 2 and 1", db.Stats.RoutineCalls, db.Stats.RoutineMemoHits)
	}
	if n := len(col.SpansNamed("engine.routine")); n != 1 {
		t.Errorf("%d engine.routine spans, want 1 (calls - hits)", n)
	}
}

// The memo's bound counts the rows of the tables it holds, not only its
// entries: a statement cannot pin more than fnMemoCap of them.
func TestFnMemoBoundCountsHeldRows(t *testing.T) {
	db := New()
	ms := &fnMemoState{}
	big := storage.NewTable("big", storage.NewSchema(nil))
	big.Rows = make([][]types.Value, fnMemoCap/2)
	ms.store(db, "a", types.NewTable(big))
	ms.store(db, "b", types.NewTable(big))
	if len(ms.m) != 2 || ms.held <= fnMemoCap {
		t.Fatalf("after two tables: %d entries, %d held", len(ms.m), ms.held)
	}
	ms.store(db, "c", types.NewInt(1))
	if _, ok := ms.m["a"]; ok || len(ms.m) != 1 || ms.held != 1 {
		t.Errorf("overflow did not wipe: %d entries, %d held", len(ms.m), ms.held)
	}
}
