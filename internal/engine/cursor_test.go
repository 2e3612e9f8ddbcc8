package engine

import (
	"fmt"
	"testing"

	"taupsm/internal/sqlast"
)

// cursorDB holds t (x) = 1, 2, 3 and u (x) = 199, 299.
func cursorDB(t *testing.T) *DB {
	db := New()
	mustExec(t, db, `CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1), (2), (3);
		CREATE TABLE u (x INTEGER); INSERT INTO u VALUES (199), (299)`)
	return db
}

// A cursor used in a state its statement does not allow raises SQLSTATE
// 24000, invalid cursor state, which a handler for it takes: OPEN of an
// open cursor, FETCH or CLOSE of one that is not open. A cursor opened in
// an inner block stays open, with its rows, after the block ends.
func TestCursorStateIsACondition(t *testing.T) {
	for _, tc := range []struct {
		name, body, want, err string
	}{
		{name: "reopen", body: `OPEN c; FETCH c INTO x; OPEN c; FETCH c INTO x; RETURN x;`,
			err: "in function reopen: SQLSTATE 24000: cursor c is already open"},
		{name: "reopenhandled", body: `DECLARE CONTINUE HANDLER FOR SQLSTATE '24000' SET r = r + 10;
			OPEN c; FETCH c INTO x; OPEN c; FETCH c INTO x; RETURN r + x;`, want: "12"},
		{name: "closetwice", body: `DECLARE CONTINUE HANDLER FOR SQLSTATE '24000' SET r = 24000;
			OPEN c; CLOSE c; CLOSE c; RETURN r;`, want: "24000"},
		{name: "closeunopened", body: `CLOSE c; RETURN r;`,
			err: "in function closeunopened: SQLSTATE 24000: cursor c is not open"},
		{name: "fetchclosed", body: `DECLARE EXIT HANDLER FOR SQLSTATE '24000' RETURN -1;
			OPEN c; CLOSE c; FETCH c INTO x; RETURN x;`, want: "-1"},
		{name: "reopenafterclose", body: `OPEN c; FETCH c INTO x; FETCH c INTO x; CLOSE c; OPEN c; FETCH c INTO x; RETURN x;`, want: "1"},
		{name: "innerblock", body: `BEGIN OPEN c; FETCH c INTO x; END; FETCH c INTO x; RETURN x;`, want: "2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := cursorDB(t)
			mustExec(t, db, fmt.Sprintf(`CREATE FUNCTION %s () RETURNS INTEGER BEGIN
				DECLARE x INTEGER DEFAULT 0;
				DECLARE r INTEGER DEFAULT 0;
				DECLARE c CURSOR FOR SELECT x FROM t;
				%s
			END`, tc.name, tc.body))
			res, err := db.ExecScript(fmt.Sprintf(`SELECT %s()`, tc.name))
			switch {
			case tc.err != "":
				if err == nil || err.Error() != tc.err {
					t.Fatalf("got %v, want error %q", err, tc.err)
				}
			case err != nil:
				t.Fatal(err)
			default:
				expectRows(t, res, tc.want)
			}
		})
	}
}

// A FETCH that fails consumes no row and assigns no variable: INTO names
// more variables than the cursor has columns, or a value its variable's
// type cannot hold. Under a CONTINUE handler the variables are as they
// were, and the next FETCH reads the row the failing one could not.
func TestFailingFetchConsumesNoRow(t *testing.T) {
	for _, tc := range []struct{ name, query, failing, next string }{
		{name: "arity", query: `SELECT x FROM u`, failing: `FETCH c INTO x, y`, next: `FETCH c INTO x`},
		{name: "type", query: `SELECT x, 'garbage' FROM u`, failing: `FETCH c INTO x, d`, next: `FETCH c INTO x, y`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := cursorDB(t)
			mustExec(t, db, fmt.Sprintf(`CREATE FUNCTION f () RETURNS INTEGER BEGIN
				DECLARE x INTEGER DEFAULT 0;
				DECLARE y VARCHAR(10) DEFAULT '';
				DECLARE d DATE;
				DECLARE after INTEGER DEFAULT 0;
				DECLARE c CURSOR FOR %s;
				DECLARE CONTINUE HANDLER FOR SQLEXCEPTION BEGIN END;
				OPEN c;
				%s;
				SET after = x;
				%s;
				RETURN after * 1000 + x;
			END`, tc.query, tc.failing, tc.next))
			expectRows(t, mustExec(t, db, `SELECT f()`), "199")
		})
	}
}

// A warm FOR over k rows, and an OPEN, k FETCHes and a CLOSE, allocate
// as many objects whatever k is: the rows stay on the session's stacks,
// an open cursor's in one buffer, and NOT FOUND is one condition.
func TestCursorLoopAllocations(t *testing.T) {
	db := New()
	db.DisableFnMemo = true
	mustExec(t, db, `CREATE TABLE n (v INTEGER)`)
	for i := 1; i <= 200; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO n VALUES (%d)`, i))
	}
	mustExec(t, db, `CREATE FUNCTION forsum (k INTEGER) RETURNS INTEGER BEGIN
		DECLARE s INTEGER DEFAULT 0;
		FOR r AS SELECT v, v + 1 AS w FROM n WHERE v <= k DO
			SET s = s + r.v + r.w;
		END FOR;
		RETURN s;
	END;
	CREATE FUNCTION fetchsum (k INTEGER) RETURNS INTEGER BEGIN
		DECLARE s INTEGER DEFAULT 0;
		DECLARE v INTEGER DEFAULT 0;
		DECLARE w INTEGER DEFAULT 0;
		DECLARE done INTEGER DEFAULT 0;
		DECLARE c CURSOR FOR SELECT v, v + 1 AS w FROM n WHERE v <= k;
		DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
		OPEN c;
		WHILE done = 0 DO
			FETCH c INTO v, w;
			IF done = 0 THEN SET s = s + v + w; END IF;
		END WHILE;
		CLOSE c;
		RETURN s;
	END`)
	// Each statement runs on the database, or, as the stratum runs them,
	// on a session of its own that takes the stacks the last one released.
	exec := map[string]func(sqlast.Stmt) error{
		"database": func(stmt sqlast.Stmt) error { _, err := db.ExecStmt(stmt); return err },
		"session": func(stmt sqlast.Stmt) error {
			ses := db.NewSession()
			defer ses.Release()
			_, err := ses.ExecStmt(stmt)
			return err
		},
	}
	for _, on := range []string{"database", "session"} {
		for _, fn := range []string{"forsum", "fetchsum"} {
			allocs := func(k int) float64 {
				stmt := parseStmt(t, fmt.Sprintf(`SELECT %s(%d)`, fn, k))
				expectRows(t, mustExec(t, db, stmt.SQL()), fmt.Sprint(k*(k+1)+k))
				return testing.AllocsPerRun(20, func() {
					if err := exec[on](stmt); err != nil {
						t.Fatal(err)
					}
				})
			}
			few, many := allocs(10), allocs(200)
			t.Logf("%s on the %s: %.0f objects over 10 rows, %.0f over 200", fn, on, few, many)
			if many > few {
				t.Errorf("%s on the %s allocates %.0f objects over 200 rows and %.0f over 10: the count must not grow with the rows", fn, on, many, few)
			}
		}
	}
}
