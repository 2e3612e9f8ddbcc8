package engine

import (
	"slices"
	"strings"
	"testing"

	"taupsm/internal/obs"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
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
	ms.store(db, []byte("a"), unbounded, newTableValue(big))
	ms.store(db, []byte("b"), unbounded, newTableValue(big))
	if len(ms.ids.m) != 2 || ms.held <= fnMemoCap {
		t.Fatalf("after two tables: %d entries, %d held", len(ms.ids.m), ms.held)
	}
	ms.store(db, []byte("c"), unbounded, types.NewInt(1))
	if _, ok := ms.ids.m["a"]; ok || len(ms.ids.m) != 1 || ms.held != 1 {
		t.Errorf("overflow did not wipe: %d entries, %d held", len(ms.ids.m), ms.held)
	}
}

// The memo's bound counts chained entries — the windows of one key —
// like any others, and the latest window holding the instant answers.
func TestFnMemoBoundCountsChainedEntries(t *testing.T) {
	db := New()
	ms := &fnMemoState{}
	for i := int64(0); i < fnMemoCap; i++ {
		ms.store(db, []byte("k"), window{lo: 10 * i, hi: 10*i + 10}, types.NewInt(i))
	}
	if len(ms.chain) != fnMemoCap || ms.held != fnMemoCap {
		t.Fatalf("chain of %d entries, %d held, want %d", len(ms.chain), ms.held, fnMemoCap)
	}
	if e := ms.lookup(db, []byte("k"), window{t: 57, sliced: true}); e == nil || e.v.Int() != 5 {
		t.Errorf("lookup at 57 = entry %+v, want the entry of [50, 60)", e)
	}
	if e := ms.lookup(db, []byte("k"), window{t: -1, sliced: true}); e != nil {
		t.Errorf("lookup before every window = entry %+v", e)
	}
	ms.store(db, []byte("k"), window{lo: -10, hi: 0}, types.NewInt(-1))
	if len(ms.chain) != 1 || ms.held != 1 {
		t.Errorf("overflow did not wipe the chain: %d entries, %d held", len(ms.chain), ms.held)
	}
}

// ---------- validity windows: adversarial pins ----------
//
// Each pin is a hand-written MAX clone — the point predicates and the
// instant parameter the translator would have produced, the parameter
// marked the way core.maxRoutine marks it — over small versioned tables,
// run by windowRun for every day of 40, forwards and backwards, with the
// memo and without. A window that is too wide on either side answers
// some day with another day's result.

var day0 = types.MustDate(2010, 1, 1)

// day renders day0 + n as a DATE literal.
func day(n int64) string { return "DATE '" + types.FormatDate(day0+n) + "'" }

// at is the translator's point predicate on alias's period.
func at(alias string) string {
	return alias + "begin_time <= begin_time_in AND begin_time_in < " + alias + "end_time"
}

var windowData = `
	CREATE TABLE keys (k CHAR(4));
	INSERT INTO keys VALUES ('a'), ('b'), ('c');
	CREATE TABLE ver (k CHAR(4), v INTEGER) AS VALIDTIME;
	INSERT INTO ver VALUES
	  ('a', 1, ` + day(0) + `, ` + day(10) + `), ('a', 2, ` + day(10) + `, ` + day(25) + `), ('a', 3, ` + day(25) + `, DATE '9999-12-31'),
	  ('b', 10, ` + day(5) + `, ` + day(15) + `), ('b', 20, ` + day(15) + `, ` + day(30) + `);
	CREATE TABLE other (x INTEGER) AS VALIDTIME;
	INSERT INTO other VALUES
	  (1, ` + day(0) + `, ` + day(3) + `), (2, ` + day(3) + `, ` + day(12) + `), (4, ` + day(12) + `, ` + day(20) + `),
	  (8, ` + day(20) + `, ` + day(33) + `), (16, ` + day(18) + `, ` + day(22) + `);
	CREATE TABLE audit (n INTEGER);
`

// windowRun builds a database from windowData and setup, marks the
// instant parameter of the named routines, and executes main twice with
// taupsm_cp holding the days 0, 39, 1, 38, ..., then forwards 0 … 39 and
// backwards 39 … 0 — each with the memo off and on — requiring equal
// rows. When perst is set, it is executed too, with the memo and the
// indexes off, and must return those rows: main's answer computed on each
// day's timeslice, as PERST would. It returns the database of the memo
// run over the first order.
func windowRun(t *testing.T, setup string, marked []string, main, perst string) *DB {
	t.Helper()
	stmt, err := sqlparser.ParseStatement(main)
	if err != nil {
		t.Fatal(err)
	}
	var first *DB
	for _, order := range []func(i int64) int64{
		func(i int64) int64 { // 0, 39, 1, 38, ...
			if i%2 == 1 {
				return 39 - i/2
			}
			return i / 2
		},
		func(i int64) int64 { return i },
		func(i int64) int64 { return 39 - i },
	} {
		var db *DB
		var want []string
		date := sqlast.TypeName{Base: "DATE"}
		cp := storage.NewTable("taupsm_cp", storage.NewSchema([]storage.Column{{Name: "begin_time", Type: date}, {Name: "end_time", Type: date}}))
		for i := int64(0); i < 40; i++ {
			d := day0 + order(i)
			cp.Rows = append(cp.Rows, []types.Value{types.NewDate(d), types.NewDate(d + 1)})
		}
		runs := func(stmt sqlast.Stmt) (got []string) {
			for run := 0; run < 2; run++ {
				db.Stats.Reset()
				res, err := db.ExecStmtWithTables(stmt, map[string]*storage.Table{"taupsm_cp": cp})
				if err != nil {
					t.Fatalf("memo off = %v, run %d: %v", db.DisableFnMemo, run, err)
				}
				got = append(got, rowsText(res)...)
			}
			return got
		}
		for _, disable := range []bool{true, false} {
			db = New()
			db.Now = day0 + 35
			db.DisableFnMemo = disable
			mustExec(t, db, windowData+setup)
			for _, name := range marked {
				ps := db.Cat.Routine(name).Params()
				ps[len(ps)-1].Instant = true
			}
			got := runs(stmt)
			if disable {
				want = got
			} else if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("the memo changed the result\n--- memo off ---\n%s\n--- memo on ---\n%s", strings.Join(want, "\n"), strings.Join(got, "\n"))
			}
		}
		if first == nil {
			first = db
		}
		if perst != "" {
			db = New()
			db.Now = day0 + 35
			db.DisableFnMemo, db.DisableIndexes = true, true
			mustExec(t, db, windowData+setup)
			if got := runs(parseStmt(t, perst)); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("MAX and the timeslices differ\n--- MAX ---\n%s\n--- per day ---\n%s", strings.Join(want, "\n"), strings.Join(got, "\n"))
			}
		}
	}
	return first
}

var bitemporal = `CREATE TABLE bt (k CHAR(4), v INTEGER) AS VALIDTIME AS TRANSACTIONTIME;
	INSERT INTO bt VALUES
	  ('a', 1, ` + day(0) + `, ` + day(20) + `, ` + day(0) + `, ` + day(8) + `),
	  ('a', 2, ` + day(0) + `, ` + day(20) + `, ` + day(8) + `, DATE '9999-12-31'),
	  ('a', 4, ` + day(20) + `, DATE '9999-12-31', ` + day(8) + `, DATE '9999-12-31'),
	  ('b', 8, ` + day(6) + `, ` + day(30) + `, ` + day(14) + `, DATE '9999-12-31');`

const perKey = `SELECT cp.begin_time, o.k, max_f(o.k, cp.begin_time) FROM taupsm_cp cp, keys o`

func fnHeader(name string) string {
	return `CREATE FUNCTION ` + name + ` (kk CHAR(4), begin_time_in DATE) RETURNS INTEGER READS SQL DATA LANGUAGE SQL `
}

// publishers: item a is published by 1 until day 12, then by 2, renamed
// on day 25; b by 3 until day 30, then by nobody known (a NULL key); c
// by nobody known until day 20, then by 3. Six more publishers make a
// day's publishers outnumber an item's.
var publishers = `CREATE TABLE pub (pid INTEGER, name VARCHAR(10)) AS VALIDTIME;
	INSERT INTO pub VALUES (1, 'One', ` + day(0) + `, DATE '9999-12-31'), (2, 'Two', ` + day(0) + `, ` + day(25) + `),
	  (2, 'Deux', ` + day(25) + `, DATE '9999-12-31'), (3, 'Three', ` + day(0) + `, DATE '9999-12-31'),
	  (NULL, 'Nobody', ` + day(0) + `, DATE '9999-12-31'), (4, 'Four', ` + day(0) + `, DATE '9999-12-31'),
	  (5, 'Five', ` + day(0) + `, DATE '9999-12-31'), (6, 'Six', ` + day(0) + `, DATE '9999-12-31'),
	  (7, 'Seven', ` + day(0) + `, DATE '9999-12-31'), (8, 'Eight', ` + day(0) + `, DATE '9999-12-31'),
	  (9, 'Nine', ` + day(0) + `, DATE '9999-12-31');
	CREATE TABLE ipub (k CHAR(4), pid INTEGER) AS VALIDTIME;
	INSERT INTO ipub VALUES ('a', 1, ` + day(0) + `, ` + day(12) + `), ('a', 2, ` + day(12) + `, DATE '9999-12-31'),
	  ('b', 3, ` + day(0) + `, ` + day(30) + `), ('b', NULL, ` + day(30) + `, DATE '9999-12-31'),
	  ('c', NULL, ` + day(0) + `, ` + day(20) + `), ('c', 3, ` + day(20) + `, DATE '9999-12-31');
`

// perKeyPublisher is perKey's answer on each day's timeslice of pub and
// ipub: agg over an item's publishers of the day, else otherwise.
func perKeyPublisher(agg, otherwise string) string {
	on := func(alias string) string {
		return alias + ".begin_time <= cp.begin_time AND cp.begin_time < " + alias + ".end_time"
	}
	return `SELECT cp.begin_time, o.k, COALESCE((SELECT ` + agg + ` FROM pub p, ipub ip
		WHERE ip.k = o.k AND p.pid = ip.pid AND ` + on("p") + ` AND ` + on("ip") + `), ` + otherwise + `)
		FROM taupsm_cp cp, keys o`
}

// keyDriven checks that the clone's scans of pub were read through the
// keys of ipub, or never were.
func keyDriven(want bool) func(t *testing.T, db *DB) {
	return func(t *testing.T, db *DB) {
		if (db.keyedScans > 0) != want || db.Stats.RoutineMemoHits == 0 {
			t.Errorf("%d key-driven scans, %d memo hits", db.keyedScans, db.Stats.RoutineMemoHits)
		}
	}
}

func TestWindowPins(t *testing.T) {
	pins := []struct {
		name, setup string
		marked      []string
		main, perst string
		check       func(t *testing.T, db *DB)
	}{
		{name: "keyed probe runs once per version of the key", marked: []string{"max_f"}, main: perKey,
			setup: fnHeader("max_f") + `BEGIN RETURN (SELECT v FROM ver WHERE k = kk AND ` + at("") + `); END;`,
			check: func(t *testing.T, db *DB) {
				// a: 3 versions; b: 2 versions and the gaps before and after; c: never.
				if exec := db.Stats.RoutineCalls - db.Stats.RoutineMemoHits; exec != 3+4+1 {
					t.Errorf("%d executions for 120 calls, want 8", exec)
				}
			}},
		{name: "right side of a LEFT JOIN is scanned, not probed", marked: []string{"max_f"}, main: perKey,
			setup: fnHeader("max_f") + `BEGIN RETURN (SELECT COUNT(v.v) FROM keys o LEFT JOIN ver v ON v.k = o.k
				WHERE o.k = kk AND ` + at("v.") + `); END;`},
		{name: "closed source served from the prepared plan", marked: []string{"max_f"}, main: perKey,
			setup: fnHeader("max_f") + `BEGIN RETURN (SELECT SUM(v.v) FROM ver v, keys o
				WHERE o.k = kk AND v.k = o.k AND ((` + at("v.") + `) OR o.k = 'zz')); END;`,
			check: func(t *testing.T, db *DB) {
				if db.Stats.PlanReuseHits == 0 {
					t.Error("ver was never served from its memo")
				}
			}},
		{name: "hash-probed table, then full-scanned table", marked: []string{"max_f"}, main: perKey,
			setup: fnHeader("max_f") + `BEGIN
				  DECLARE a INTEGER; DECLARE b INTEGER;
				  SET a = (SELECT v FROM ver WHERE k = kk AND ` + at("") + `);
				  SET b = (SELECT SUM(x) FROM other WHERE ` + at("") + `);
				  RETURN COALESCE(a, 0) * 100 + COALESCE(b, 0);
				END;`},
		{name: "function, procedure, procedure: the innermost window is the narrowest", marked: []string{"max_f", "max_mid", "max_inner"}, main: perKey,
			setup: `CREATE PROCEDURE max_inner (OUT r INTEGER, IN begin_time_in DATE) READS SQL DATA LANGUAGE SQL
				BEGIN SET r = (SELECT SUM(x) FROM other WHERE ` + at("") + `); END;
				CREATE PROCEDURE max_mid (IN kk CHAR(4), OUT r INTEGER, IN begin_time_in DATE) READS SQL DATA LANGUAGE SQL
				BEGIN
				  DECLARE i INTEGER;
				  CALL max_inner(i, begin_time_in);
				  SET r = i + 100 * (SELECT COUNT(*) FROM ver WHERE k = kk AND ` + at("") + `);
				END;` + fnHeader("max_f") + `BEGIN DECLARE r INTEGER; CALL max_mid(kk, r, begin_time_in); RETURN r; END;`},
		{name: "collection result at a FROM site, held across periods", marked: []string{"max_vals"},
			main: `SELECT cp.begin_time, o.k, f.v FROM taupsm_cp cp, keys o, TABLE(max_vals(o.k, cp.begin_time)) AS f`,
			setup: `CREATE FUNCTION max_vals (kk CHAR(4), begin_time_in DATE) RETURNS ROW(v INTEGER) ARRAY READS SQL DATA LANGUAGE SQL
				BEGIN
				  DECLARE acc ROW(v INTEGER) ARRAY;
				  INSERT INTO TABLE acc SELECT v FROM ver WHERE k = kk AND ` + at("") + `;
				  RETURN acc;
				END;`,
			check: func(t *testing.T, db *DB) {
				if db.Stats.RoutineMemoHits == 0 {
					t.Error("no held table answered a later period")
				}
			}},
		{name: "bitemporal table probed by key, sliced on either dimension with the other pinned", marked: []string{"max_f"}, main: perKey,
			setup: bitemporal + fnHeader("max_f") + `BEGIN
				  DECLARE vt INTEGER; DECLARE tt INTEGER;
				  SET vt = (SELECT SUM(v) FROM bt WHERE k = kk AND ` + at("") + `
				    AND tt_begin_time <= CURRENT_DATE AND CURRENT_DATE < tt_end_time);
				  SET tt = (SELECT SUM(v) FROM bt WHERE k = kk AND ` + at("tt_") + `
				    AND begin_time <= CURRENT_DATE AND CURRENT_DATE < end_time);
				  RETURN COALESCE(vt, 0) * 100 + COALESCE(tt, 0);
				END;`},
		{name: "bitemporal table scanned, sliced on transaction time", marked: []string{"max_f"}, main: perKey,
			setup: bitemporal + fnHeader("max_f") + `BEGIN RETURN (SELECT SUM(v) FROM bt WHERE ` + at("tt_") + `); END;`},
		{name: "an endpoint that is no date collapses the window", marked: []string{"max_f"}, main: perKey,
			setup: `INSERT INTO ver VALUES ('a', 5, ` + day(2) + `, NULL), ('b', 6, NULL, ` + day(9) + `), ('c', 7, ` + day(1) + `, NULL);` +
				fnHeader("max_f") + `BEGIN RETURN (SELECT SUM(v) FROM ver WHERE k = kk AND ` + at("") + `); END;`,
			check: func(t *testing.T, db *DB) {
				if db.Stats.RoutineMemoHits != 0 {
					t.Errorf("%d hits across days whose candidates have NULL endpoints", db.Stats.RoutineMemoHits)
				}
			}},
		{name: "a routine merely named like a clone is not windowed", main: perKey,
			setup: fnHeader("max_f") + `BEGIN RETURN (SELECT v FROM ver WHERE k = kk AND ` + at("") + `); END;`,
			check: func(t *testing.T, db *DB) {
				if db.Stats.RoutineMemoHits != 0 {
					t.Errorf("%d hits for 120 distinct argument vectors of an unmarked routine", db.Stats.RoutineMemoHits)
				}
			}},
		{name: "a clone that lost its mark collapses its marked caller", marked: []string{"max_f"}, main: perKey,
			setup: fnHeader("max_g") + `BEGIN RETURN (SELECT v FROM ver WHERE k = kk AND ` + at("") + `); END;` +
				fnHeader("max_f") + `BEGIN RETURN max_g(kk, begin_time_in) + max_g(kk, begin_time_in); END;`,
			check: func(t *testing.T, db *DB) {
				if hits := db.Stats.RoutineMemoHits; hits != 120 {
					t.Errorf("%d hits, want 120: max_g's second call per day, never max_f", hits)
				}
			}},
		{name: "a nested clone at another instant", marked: []string{"max_f", "max_g"}, main: perKey,
			setup: fnHeader("max_g") + `BEGIN RETURN (SELECT v FROM ver WHERE k = kk AND ` + at("") + `); END;` +
				fnHeader("max_f") + `BEGIN RETURN COALESCE(max_g(kk, ` + day(12) + `), 0) * 100 + COALESCE(max_g(kk, begin_time_in), 0); END;`},
		{name: "an item moves to a publisher renamed on a third day: read through the keys", marked: []string{"max_f"},
			main: perKey, perst: perKeyPublisher("MAX(p.name)", "'none'"),
			setup: publishers + `CREATE FUNCTION max_f (kk CHAR(4), begin_time_in DATE) RETURNS VARCHAR(10) READS SQL DATA LANGUAGE SQL
				BEGIN
				  DECLARE done INTEGER DEFAULT 0;
				  DECLARE nm VARCHAR(10) DEFAULT 'none';
				  DECLARE cur CURSOR FOR SELECT p.name FROM pub p, ipub ip
				    WHERE ip.k = kk AND p.pid = ip.pid AND ` + at("p.") + ` AND ` + at("ip.") + `;
				  DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
				  OPEN cur;
				  wl: WHILE done = 0 DO
				    FETCH cur INTO nm;
				  END WHILE wl;
				  CLOSE cur;
				  RETURN nm;
				END;`,
			check: keyDriven(true)},
		{name: "a NULL key reads no row through the keys", marked: []string{"max_f"},
			main: perKey, perst: perKeyPublisher("COUNT(*)", "0"),
			setup: publishers + fnHeader("max_f") + `BEGIN
				  DECLARE n INTEGER DEFAULT 0;
				  FOR r AS SELECT p.name FROM pub p, ipub ip
				      WHERE ip.k = kk AND p.pid = ip.pid AND ` + at("p.") + ` AND ` + at("ip.") + ` DO
				    SET n = n + 1;
				  END FOR;
				  RETURN n;
				END;`,
			check: keyDriven(true)},
		{name: "the left side of a LEFT JOIN is read on its own path", marked: []string{"max_f"},
			main: perKey, perst: perKeyPublisher("COUNT(*)", "0"),
			setup: publishers + fnHeader("max_f") + `BEGIN RETURN (SELECT COUNT(*) FROM pub p LEFT JOIN ipub ip
				ON p.pid = ip.pid AND ` + at("ip.") + ` WHERE ip.k = kk AND ` + at("p.") + `); END;`,
			check: keyDriven(false)},
		{name: "an impure clone is never stored", marked: []string{"max_f"}, main: perKey,
			setup: `CREATE FUNCTION max_f (kk CHAR(4), begin_time_in DATE) RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL
				BEGIN INSERT INTO audit VALUES (1); RETURN (SELECT v FROM ver WHERE k = kk AND ` + at("") + `); END;`,
			check: func(t *testing.T, db *DB) {
				if n := len(mustExec(t, db, `SELECT n FROM audit`).Rows); n != 240 || db.Stats.RoutineMemoHits != 0 {
					t.Errorf("%d audit rows, %d hits; want 240 executions over two runs and no hit", n, db.Stats.RoutineMemoHits)
				}
			}},
	}
	for _, p := range pins {
		t.Run(p.name, func(t *testing.T) {
			db := windowRun(t, p.setup, p.marked, p.main, p.perst)
			if p.check != nil {
				p.check(t, db)
			} else if db.Stats.RoutineMemoHits == 0 {
				t.Error("no call was answered from the memo")
			}
		})
	}
}

// ---------- the tuple-major walk and the memo: pins ----------
//
// A statement walked tuple-major (planTupleMajor) meets each tuple's
// periods in a row; the hash memo alone must then answer what it answers
// in FROM order: the same calls, hits and executions.

// lastRun executes main over taupsm_cp holding days 0–39 in order — a
// tiling relation when tiling, so a FROM clause that opens with it and
// a temporal table runs tuple-major — with the memo off and on, which
// must return the same bag of rows. It returns the memo run's counters
// and rows.
func lastRun(t *testing.T, setup string, marked []string, main string, tiling bool) (Stats, []string) {
	t.Helper()
	stmt, err := sqlparser.ParseStatement(main)
	if err != nil {
		t.Fatal(err)
	}
	var rows [2][]string
	var st Stats
	for i, disable := range []bool{true, false} {
		db := New()
		db.Now = day0 + 35
		db.DisableFnMemo = disable
		mustExec(t, db, windowData+setup)
		for _, name := range marked {
			ps := db.Cat.Routine(name).Params()
			ps[len(ps)-1].Instant = true
		}
		date := sqlast.TypeName{Base: "DATE"}
		cp := storage.NewTable("taupsm_cp", storage.NewSchema([]storage.Column{{Name: "begin_time", Type: date}, {Name: "end_time", Type: date}}))
		cp.Tiling = tiling
		for d := day0; d < day0+40; d++ {
			cp.Rows = append(cp.Rows, []types.Value{types.NewDate(d), types.NewDate(d + 1)})
		}
		res, err := db.ExecStmtWithTables(stmt, map[string]*storage.Table{"taupsm_cp": cp})
		if err != nil {
			t.Fatalf("memo off = %v: %v", disable, err)
		}
		rows[i], st = rowsText(res), db.Stats
		slices.Sort(rows[i])
	}
	if strings.Join(rows[0], "\n") != strings.Join(rows[1], "\n") {
		t.Errorf("the memo changed the result\n--- memo off ---\n%s\n--- memo on ---\n%s", strings.Join(rows[0], "\n"), strings.Join(rows[1], "\n"))
	}
	return st, rows[1]
}

const sliced = `SELECT cp.begin_time, o.k, max_f(o.k, cp.begin_time) FROM taupsm_cp cp, ver o
	WHERE o.begin_time <= cp.begin_time AND cp.begin_time < o.end_time`

func TestLastAnswerPins(t *testing.T) {
	keyed := fnHeader("max_f") + `BEGIN RETURN (SELECT v FROM ver WHERE k = kk AND ` + at("") + `); END;`
	executions := func(st Stats) int64 { return st.RoutineCalls - st.RoutineMemoHits }
	t.Run("arguments alternate from period to period", func(t *testing.T) {
		// keys is no temporal table: FROM order, a, b, c in each period.
		st, _ := lastRun(t, keyed, []string{"max_f"}, perKey, true)
		if st.RoutineCalls != 120 || executions(st) != 3+4+1 {
			t.Errorf("%d calls, %d executions; want 120 and 8, as the hash memo answers", st.RoutineCalls, executions(st))
		}
	})
	t.Run("a version meets its periods in a row", func(t *testing.T) {
		// a: versions [0, 10), [10, 25), [25, ∞); b: [5, 15), [15, 30).
		tm, _ := lastRun(t, keyed, []string{"max_f"}, sliced, true)
		ref, _ := lastRun(t, keyed, []string{"max_f"}, sliced, false)
		tm.IntervalProbes, ref.IntervalProbes = 0, 0
		if tm != ref || executions(tm) != 5 {
			t.Errorf("tuple-major %+v\nFROM order %+v; want equal, with 5 executions", tm, ref)
		}
	})
	t.Run("a shared write mid-statement", func(t *testing.T) {
		setup := keyed + `CREATE FUNCTION bump () RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL
			BEGIN INSERT INTO audit VALUES (1); RETURN 0; END;`
		st, _ := lastRun(t, setup, []string{"max_f"}, `SELECT cp.begin_time, max_f('a', cp.begin_time) + bump() FROM taupsm_cp cp`, true)
		if st.RoutineMemoHits != 0 || executions(st) != 80 {
			t.Errorf("%d hits, %d executions; want none and 80: every write wipes the last answer", st.RoutineMemoHits, executions(st))
		}
	})
	t.Run("a routine redefined mid-statement", func(t *testing.T) {
		setup := keyed + `CREATE FUNCTION redef (d DATE) RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL BEGIN
			IF d = ` + day(20) + ` THEN
			  CREATE OR REPLACE FUNCTION max_f (kk CHAR(4), begin_time_in DATE) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN 1000; END;
			END IF;
			RETURN 0; END;`
		_, rows := lastRun(t, setup, []string{"max_f"}, `SELECT cp.begin_time, max_f('a', cp.begin_time) + redef(cp.begin_time) FROM taupsm_cp cp`, true)
		if last := rows[len(rows)-1]; !strings.HasSuffix(last, ",1000") {
			t.Errorf("last period reads %s: the redefinition was not seen", last)
		}
	})
	t.Run("a CHAR argument that differs only by trailing blanks", func(t *testing.T) {
		setup := `CREATE TABLE pad (k VARCHAR(6)); INSERT INTO pad VALUES ('a'), ('a  '), ('a'), ('a  ');
			CREATE FUNCTION cnt (kk VARCHAR(6)) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
			BEGIN RETURN (SELECT COUNT(*) FROM ver WHERE k = kk); END;`
		st, _ := lastRun(t, setup, nil, `SELECT p.k, cnt(p.k) FROM pad p`, true)
		// The key bytes drop trailing blanks: one execution, and the hash
		// memo answers the three calls the last answer does not.
		if st.RoutineCalls != 4 || st.RoutineMemoHits != 3 {
			t.Errorf("%d calls, %d hits; want 4 and 3", st.RoutineCalls, st.RoutineMemoHits)
		}
	})
	t.Run("a TABLE(f(..)) site", func(t *testing.T) {
		setup := `CREATE FUNCTION max_vals (kk CHAR(4), begin_time_in DATE) RETURNS ROW(v INTEGER) ARRAY READS SQL DATA LANGUAGE SQL
			BEGIN
			  DECLARE acc ROW(v INTEGER) ARRAY;
			  INSERT INTO TABLE acc SELECT v FROM ver WHERE k = kk AND ` + at("") + `;
			  RETURN acc;
			END;`
		main := `SELECT cp.begin_time, o.k, f.v FROM taupsm_cp cp, ver o, TABLE(max_vals(o.k, cp.begin_time)) AS f
			WHERE o.begin_time <= cp.begin_time AND cp.begin_time < o.end_time`
		tm, _ := lastRun(t, setup, []string{"max_vals"}, main, true)
		ref, _ := lastRun(t, setup, []string{"max_vals"}, main, false)
		tm.IntervalProbes, ref.IntervalProbes = 0, 0
		if tm != ref || executions(tm) != 5 {
			t.Errorf("tuple-major %+v\nFROM order %+v; want equal, with 5 executions", tm, ref)
		}
	})
}

// A warm memo hit allocates nothing: its key is built above the live part
// of the session's key scratch and probed there. So for a plain function,
// and for a MAX clone answered at every instant of the run of constant
// periods one window covers: item a's version [10, 25) spans ver's
// periods [10, 15) and [15, 25).
func TestMemoHitAllocations(t *testing.T) {
	db := New()
	mustExec(t, db, windowData+fnHeader("max_f")+`BEGIN RETURN (SELECT v FROM ver WHERE k = kk AND `+at("")+`); END;
		CREATE FUNCTION plain_f (kk CHAR(4)) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
		BEGIN RETURN (SELECT COUNT(*) FROM keys WHERE k = kk); END;`)
	ps := db.Cat.Routine("max_f").Params()
	ps[len(ps)-1].Instant = true
	str := func(s string) sqlast.Expr { return &sqlast.Literal{Val: types.NewString(s)} }
	date := func(n int64) sqlast.Expr { return &sqlast.Literal{Val: types.NewDate(day0 + n)} }
	for _, tc := range []struct {
		name  string
		sites []*sqlast.FuncCall
	}{
		{"a plain function", []*sqlast.FuncCall{{Name: "plain_f", Args: []sqlast.Expr{str("a")}}}},
		{"a MAX clone over a run of periods", []*sqlast.FuncCall{
			{Name: "max_f", Args: []sqlast.Expr{str("a"), date(10)}},
			{Name: "max_f", Args: []sqlast.Expr{str("a"), date(17)}},
			{Name: "max_f", Args: []sqlast.Expr{str("a"), date(24)}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := &execCtx{db: db, memo: db.newFnMemo()}
			var calls []evalFn
			for _, fc := range tc.sites {
				calls = append(calls, db.rootExpr(ctx, fc))
			}
			run := func() {
				for _, f := range calls {
					if _, err := f(ctx); err != nil {
						t.Fatal(err)
					}
				}
			}
			executions := func() int64 { return db.Stats.RoutineCalls - db.Stats.RoutineMemoHits }
			before := executions()
			if run(); executions()-before != 1 {
				t.Fatalf("%d executions, want 1: every later call is a hit", executions()-before)
			}
			hits := db.Stats.RoutineMemoHits
			if n := testing.AllocsPerRun(100, run); n != 0 {
				t.Errorf("a warm memo hit allocates %.1f objects, want none", n/float64(len(calls)))
			}
			if got, want := db.Stats.RoutineMemoHits-hits, int64(101*len(calls)); got != want {
				t.Errorf("%d memo hits, want %d: a call missed", got, want)
			}
		})
	}
}
