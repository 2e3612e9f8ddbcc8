package engine

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"taupsm/internal/proc"
)

// SetPoisonSpares turns the poisoning of the session's emptied scratch —
// reused collection tables, cleared key arenas, popped build sides — on
// or off (poisonSpares); the scenario half of the oracle runs the corpus
// and the enginetest scenarios with it on.
func SetPoisonSpares(on bool) { poisonSpares = on }

// A call's own collections die with it: when it returns, the tables its
// declares made that neither its return value nor a parameter holds go
// to the session's free list, and the next call of the routine reuses
// them. Each case calls its routine at least twice in one statement, so a
// table that escaped and was reused anyway is overwritten before the
// statement reads it, and runs once with the arenas of reused tables
// poisoned, so a row read past what its INSERT wrote shows.
func TestOwnCollectionsDieWithTheCall(t *testing.T) {
	for _, poison := range []bool{false, true} {
		t.Run(fmt.Sprintf("poison=%v", poison), func(t *testing.T) {
			SetPoisonSpares(poison)
			defer SetPoisonSpares(false)
			testOwnCollections(t)
		})
	}
}

func testOwnCollections(t *testing.T) {
	db := New()
	mustExec(t, db, `
CREATE TABLE one (k INTEGER);
INSERT INTO one VALUES (1);
CREATE FUNCTION mk (n INTEGER) RETURNS ROW(v INTEGER) ARRAY BEGIN
  DECLARE junk ROW(v INTEGER) ARRAY;
  DECLARE v ROW(v INTEGER) ARRAY;
  INSERT INTO TABLE junk VALUES (n * 100), (n * 100 + 1);
  INSERT INTO TABLE v VALUES (n), (n + 1);
  RETURN v;
END;
CREATE FUNCTION idc (p ROW(v INTEGER) ARRAY) RETURNS ROW(v INTEGER) ARRAY BEGIN
  RETURN p;
END;
CREATE FUNCTION viaid (n INTEGER) RETURNS ROW(v INTEGER) ARRAY BEGIN
  DECLARE v ROW(v INTEGER) ARRAY;
  INSERT INTO TABLE v VALUES (n);
  RETURN idc(v);
END;
CREATE PROCEDURE outc (IN n INTEGER, OUT p ROW(v INTEGER) ARRAY) BEGIN
  INSERT INTO TABLE p VALUES (n), (n * 10);
END;
CREATE FUNCTION useout (n INTEGER) RETURNS INTEGER BEGIN
  DECLARE a ROW(v INTEGER) ARRAY;
  DECLARE b ROW(v INTEGER) ARRAY;
  CALL outc(n, a);
  CALL outc(n + 1, b);
  RETURN (SELECT SUM(v) FROM a) * 1000 + (SELECT SUM(v) FROM b);
END;
CREATE PROCEDURE setp (IN n INTEGER, INOUT p ROW(v INTEGER) ARRAY) BEGIN
  DECLARE v ROW(v INTEGER) ARRAY;
  INSERT INTO TABLE v SELECT v + n FROM p;
  SET p = v;
END;
CREATE FUNCTION usesetp (n INTEGER) RETURNS INTEGER BEGIN
  DECLARE a ROW(v INTEGER) ARRAY;
  DECLARE b ROW(v INTEGER) ARRAY;
  INSERT INTO TABLE a VALUES (1);
  INSERT INTO TABLE b VALUES (100);
  CALL setp(n, a);
  CALL setp(n * 2, b);
  RETURN (SELECT SUM(v) FROM a) * 1000 + (SELECT SUM(v) FROM b);
END;
CREATE FUNCTION dflt (n INTEGER) RETURNS ROW(v INTEGER) ARRAY BEGIN
  DECLARE v ROW(v INTEGER) ARRAY;
  INSERT INTO TABLE v VALUES (n);
  BEGIN
    DECLARE w ROW(v INTEGER) ARRAY DEFAULT v;
    INSERT INTO TABLE w VALUES (n + 1);
    RETURN w;
  END;
END;
CREATE FUNCTION loopc (n INTEGER) RETURNS INTEGER BEGIN
  DECLARE i INTEGER DEFAULT 0;
  DECLARE s INTEGER DEFAULT 0;
  WHILE i < 3 DO
    BEGIN
      DECLARE c ROW(v INTEGER) ARRAY;
      INSERT INTO TABLE c VALUES (n + i), (i);
      SET s = s + (SELECT SUM(v) FROM c);
    END;
    SET i = i + 1;
  END WHILE;
  RETURN s;
END;
CREATE FUNCTION rec (n INTEGER) RETURNS ROW(v INTEGER) ARRAY BEGIN
  DECLARE v ROW(v INTEGER) ARRAY;
  INSERT INTO TABLE v VALUES (n);
  IF n > 0 THEN
    INSERT INTO TABLE v SELECT x.v * 10 FROM TABLE(rec(n - 1)) AS x;
  END IF;
  RETURN v;
END;
CREATE FUNCTION upd (n INTEGER) RETURNS INTEGER BEGIN
  DECLARE c ROW(v INTEGER) ARRAY;
  INSERT INTO TABLE c VALUES (n), (n + 1);
  UPDATE c SET v = v * 10;
  RETURN (SELECT SUM(v) FROM c);
END;
CREATE FUNCTION caller (n INTEGER) RETURNS INTEGER BEGIN
  DECLARE r INTEGER DEFAULT 0;
  DECLARE d ROW(v INTEGER) ARRAY;
  DECLARE CONTINUE HANDLER FOR SQLEXCEPTION SET r = r + 1000;
  INSERT INTO TABLE d VALUES (upd(n));
  INSERT INTO TABLE d VALUES (upd(n + 1)), (upd(n + 2) / 0);
  INSERT INTO TABLE d VALUES (upd(n + 3));
  RETURN r + (SELECT SUM(v) FROM d);
END;
CREATE FUNCTION part (n INTEGER) RETURNS INTEGER BEGIN
  DECLARE c ROW(a INTEGER, b INTEGER) ARRAY;
  INSERT INTO TABLE c (a) VALUES (n), (n + 1);
  RETURN (SELECT SUM(a) * 10 + COUNT(b) FROM c);
END;
CREATE FUNCTION spinc (n INTEGER) RETURNS INTEGER BEGIN
  DECLARE c ROW(v INTEGER) ARRAY;
  DECLARE i INTEGER DEFAULT 0;
  WHILE n > 0 DO
    INSERT INTO TABLE c VALUES (i);
    UPDATE c SET v = v + 1;
    DELETE FROM c;
    SET i = i + 1;
  END WHILE;
  RETURN i;
END`)

	// RETURN v, read through TABLE(..) after a second call with other
	// arguments: the memo keeps the first answer, uncopied, and answers
	// the third call with it.
	expectRows(t, mustExec(t, db, `SELECT a.v, b.v, c.v FROM TABLE(mk(1)) AS a, TABLE(mk(5)) AS b, TABLE(mk(1)) AS c
		WHERE a.v = c.v ORDER BY a.v, b.v`), "1,5,1", "1,6,1", "2,5,2", "2,6,2")
	// RETURN g(v), where g returns its argument.
	expectRows(t, mustExec(t, db, `SELECT a.v, b.v, c.v FROM TABLE(viaid(1)) AS a, TABLE(viaid(2)) AS b, TABLE(viaid(1)) AS c`), "1,2,1")
	// An OUT collection: each call fills a table of its own, the caller's.
	expectRows(t, mustExec(t, db, `SELECT useout(1), useout(3) FROM one`), "11022,33044")
	// SET p = v for an INOUT collection parameter.
	expectRows(t, mustExec(t, db, `SELECT usesetp(10), usesetp(20) FROM one`), "11120,21140")
	// DECLARE w … DEFAULT v: one table under two names, returned.
	expectRows(t, mustExec(t, db, `SELECT a.v, b.v FROM TABLE(dflt(1)) AS a, TABLE(dflt(7)) AS b, TABLE(dflt(1)) AS c
		WHERE a.v = c.v ORDER BY a.v, b.v`), "1,7", "1,8", "2,7", "2,8")
	// A block in a WHILE loop declares its collection afresh on each turn.
	expectRows(t, mustExec(t, db, `SELECT loopc(1), loopc(2) FROM one`), "9,12")
	// Recursion: each level's table is returned into its caller's.
	expectRows(t, mustExec(t, db, `SELECT SUM(a.v), SUM(b.v), COUNT(*) FROM TABLE(rec(2)) AS a, TABLE(rec(3)) AS b`),
		fmt.Sprint((2+10+0)*4, ",", (3+20+100+0)*3, ",12"))
	// An UPDATE on an own collection, then a statement of the caller that
	// fails after two more calls, under a handler: the calls after it
	// reuse the tables the failed statement's calls left.
	expectRows(t, mustExec(t, db, `SELECT caller(1), caller(5) FROM one`),
		fmt.Sprint(1000+30+90, ",", 1000+110+170))

	// An INSERT with a column list into a reused table: the column it
	// leaves out is NULL, not what the arena held.
	expectRows(t, mustExec(t, db, `SELECT part(1), part(5) FROM one`), "30,110")

	// A KILL in mid-call: the statement fails, and the calls of the next
	// one reuse the table the killed call left.
	p, killed := &proc.Process{}, errors.New("killed mid-call")
	db.Proc = p
	go func() {
		time.Sleep(20 * time.Millisecond)
		p.Kill(killed)
	}()
	if _, err := db.ExecScript(`SELECT spinc(1) FROM one`); !errors.Is(err, killed) {
		t.Fatalf("a killed call: %v", err)
	}
	db.Proc = nil
	expectRows(t, mustExec(t, db, `SELECT spinc(0), caller(1), a.v FROM TABLE(mk(3)) AS a ORDER BY a.v`), "0,1120,3", "0,1120,4")

	if a, h := StackHeights(db); a != 0 || h != 0 {
		t.Fatalf("%d activations and %d hash tables left pushed", a, h)
	}
	if len(db.spares) == 0 {
		t.Fatal("no call left a table on the free list")
	}
}

// A warm function that declares a collection, inserts N rows into it and
// returns their count allocates as much per call for N = 10 as for
// N = 200: the table, its row array and the arena its rows are carved
// from are the ones the call before it left, and the journal forgets its
// undo.
func TestOwnCollectionAllocations(t *testing.T) {
	db := New()
	db.DisableFnMemo = true
	var vals []string
	for i := range 200 {
		vals = append(vals, fmt.Sprintf("(%d)", i+1))
	}
	mustExec(t, db, `CREATE TABLE nums (k INTEGER); INSERT INTO nums VALUES `+strings.Join(vals, ", ")+`;
		CREATE TABLE one (k INTEGER); INSERT INTO one VALUES (1);
		CREATE FUNCTION fill (n INTEGER) RETURNS INTEGER BEGIN
		  DECLARE c ROW(k INTEGER, d INTEGER) ARRAY;
		  INSERT INTO TABLE c SELECT k, k * 2 FROM nums WHERE k <= n;
		  RETURN (SELECT COUNT(*) FROM c);
		END`)
	measure := func(n int) (objects, bytes float64) {
		q := fmt.Sprintf(`SELECT fill(%3d) FROM one`, n) // one text length for both
		expectRows(t, mustExec(t, db, q), fmt.Sprint(n))
		run := func() { mustExec(t, db, q) }
		objects = testing.AllocsPerRun(20, run)
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		return objects, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	o10, b10 := measure(10)
	o200, b200 := measure(200)
	t.Logf("N = 10: %.0f objects, %.0f bytes per call; N = 200: %.0f objects, %.0f bytes", o10, b10, o200, b200)
	// One object of slack: a collection that falls in the measured runs
	// runs the scratch's cleanup (ageScratch), which allocates.
	if o200 > o10+1 {
		t.Errorf("a call inserting 200 rows allocates %.0f objects, one inserting 10 %.0f", o200, o10)
	}
	// 190 more rows carved afresh would be 190 × (2 values + a row
	// header) ≥ 19 KiB more.
	if b200 > b10+1024 {
		t.Errorf("a call inserting 200 rows allocates %.0f bytes, one inserting 10 %.0f", b200, b10)
	}
}
