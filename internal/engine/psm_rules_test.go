package engine

import (
	"testing"

	"taupsm/internal/sqlast"
)

// TestRoutineScopingRules pins the rules a routine's runtime applies:
// which binding a name reaches, where LEAVE / ITERATE / RETURN and an
// EXIT handler land, what OUT and INOUT copy back, and the text of a flow
// that reaches no statement able to take it.
func TestRoutineScopingRules(t *testing.T) {
	cases := []struct {
		name  string
		setup string
		query string
		want  string // the single value the query returns, unless err is set
		err   string // the exact error text
		after string // a query run next, returning want2
		want2 string
	}{
		{
			name: "inner block variable shadows outer",
			setup: `CREATE FUNCTION f () RETURNS INTEGER BEGIN
				DECLARE x INTEGER DEFAULT 1;
				DECLARE r INTEGER DEFAULT 0;
				BEGIN
					DECLARE x INTEGER DEFAULT 2;
					SET x = x + 10;
					SET r = x;
				END;
				RETURN r * 100 + x;
			END`,
			query: `SELECT f() FROM item WHERE id = 1`,
			want:  "1201",
		},
		{
			name: "scalar and table binding of one name in one frame",
			setup: `CREATE FUNCTION f () RETURNS INTEGER BEGIN
				DECLARE t INTEGER DEFAULT 7;
				CREATE TEMPORARY TABLE t (v INTEGER);
				INSERT INTO t VALUES (35);
				SET t = t + (SELECT v FROM t);
				RETURN t;
			END`,
			query: `SELECT f() FROM item WHERE id = 1`,
			want:  "42",
		},
		{
			name: "collection variable shadows a catalog table in FROM and as DML target",
			setup: `CREATE TABLE c (v INTEGER); INSERT INTO c VALUES (100);
			CREATE FUNCTION f () RETURNS INTEGER BEGIN
				DECLARE c ROW(v INTEGER) ARRAY;
				INSERT INTO TABLE c VALUES (1);
				INSERT INTO c VALUES (2);
				INSERT INTO c VALUES (4);
				DELETE FROM c WHERE v = 1;
				UPDATE c SET v = v * 10 WHERE v = 4;
				RETURN (SELECT SUM(v) FROM c);
			END`,
			query: `SELECT f() FROM item WHERE id = 1`,
			want:  "42",
			after: `SELECT SUM(v) FROM c`,
			want2: "100",
		},
		{
			name: "DROP TABLE removes a frame-local temporary table",
			setup: `CREATE FUNCTION f () RETURNS INTEGER BEGIN
				CREATE TEMPORARY TABLE tmp (v INTEGER);
				INSERT INTO tmp VALUES (1), (2);
				DROP TABLE tmp;
				CREATE TEMPORARY TABLE tmp (v INTEGER);
				INSERT INTO tmp VALUES (5);
				RETURN (SELECT COUNT(*) FROM tmp);
			END`,
			query: `SELECT f() FROM item WHERE id = 1`,
			want:  "1",
		},
		{
			name: "DROP TABLE never removes a collection variable",
			setup: `CREATE FUNCTION f () RETURNS INTEGER BEGIN
				DECLARE d ROW(v INTEGER) ARRAY;
				INSERT INTO TABLE d VALUES (1), (2), (3);
				DROP TABLE IF EXISTS d;
				RETURN (SELECT COUNT(*) FROM d);
			END`,
			query: `SELECT f() FROM item WHERE id = 1`,
			want:  "3",
		},
		{
			name: "DROP TABLE of a collection variable reaches the catalog",
			setup: `CREATE FUNCTION f () RETURNS INTEGER BEGIN
				DECLARE d ROW(v INTEGER) ARRAY;
				DROP TABLE d;
				RETURN 0;
			END`,
			query: `SELECT f() FROM item WHERE id = 1`,
			err:   "in function f: table d does not exist",
		},
		{
			name: "inner cursor shadows outer",
			setup: `CREATE FUNCTION f () RETURNS INTEGER BEGIN
				DECLARE v INTEGER DEFAULT 0;
				DECLARE c CURSOR FOR SELECT id FROM item WHERE id = 1;
				OPEN c;
				BEGIN
					DECLARE c CURSOR FOR SELECT id FROM item WHERE id = 3;
					OPEN c;
					FETCH c INTO v;
					CLOSE c;
				END;
				BEGIN
					DECLARE w INTEGER DEFAULT 0;
					FETCH c INTO w;
					SET v = v * 10 + w;
				END;
				CLOSE c;
				RETURN v;
			END`,
			query: `SELECT f() FROM item WHERE id = 1`,
			want:  "31",
		},
		{
			name: "OUT and INOUT copy back, scalar and collection",
			setup: `CREATE PROCEDURE io (IN a INTEGER, OUT b INTEGER, INOUT c INTEGER,
				OUT tb ROW(v INTEGER) ARRAY, INOUT tc ROW(v INTEGER) ARRAY) BEGIN
				SET b = a + 1;
				SET c = c * 10;
				INSERT INTO TABLE tb VALUES (a);
				INSERT INTO TABLE tc VALUES (a + 100);
			END;
			CREATE FUNCTION f () RETURNS INTEGER BEGIN
				DECLARE b INTEGER DEFAULT 0;
				DECLARE c INTEGER DEFAULT 4;
				DECLARE tb ROW(v INTEGER) ARRAY;
				DECLARE tc ROW(v INTEGER) ARRAY;
				INSERT INTO TABLE tb VALUES (900);
				INSERT INTO TABLE tc VALUES (1000);
				CALL io(5, b, c, tb, tc);
				RETURN b * 1000000 + c * 10000 + (SELECT SUM(v) FROM tb) + (SELECT SUM(v) FROM tc);
			END`,
			query: `SELECT f() FROM item WHERE id = 1`,
			want:  "6401110", // b 6, c 40, tb holds 5 alone, tc 1000 + 105
		},
		{
			name: "LEAVE and ITERATE by label through FOR, WHILE, REPEAT, LOOP and blocks",
			setup: `CREATE FUNCTION f () RETURNS INTEGER BEGIN
				DECLARE acc INTEGER DEFAULT 0;
				DECLARE i INTEGER DEFAULT 0;
				lp: LOOP
					SET i = i + 1;
					IF i > 3 THEN LEAVE lp; END IF;
					fl: FOR r AS SELECT id FROM item ORDER BY id DO
						IF r.id = 2 THEN ITERATE fl; END IF;
						blk: BEGIN
							IF r.id = 3 THEN LEAVE blk; END IF;
							SET acc = acc + r.id;
						END blk;
						wl: WHILE 1 = 1 DO
							rp: REPEAT
								SET acc = acc + 100;
								IF i = 2 THEN ITERATE lp; END IF;
								LEAVE wl;
							UNTIL 1 = 1 END REPEAT rp;
						END WHILE wl;
					END FOR fl;
				END LOOP lp;
				RETURN acc;
			END`,
			query: `SELECT f() FROM item WHERE id = 1`,
			want:  "503",
		},
		{
			name: "ITERATE continues its own REPEAT and LEAVE ends it",
			setup: `CREATE FUNCTION f () RETURNS INTEGER BEGIN
				DECLARE i INTEGER DEFAULT 0;
				DECLARE acc INTEGER DEFAULT 0;
				rp: REPEAT
					SET i = i + 1;
					IF i = 2 THEN ITERATE rp; END IF;
					IF i = 6 THEN LEAVE rp; END IF;
					SET acc = acc + i;
				UNTIL i >= 10 END REPEAT rp;
				RETURN acc;
			END`,
			query: `SELECT f() FROM item WHERE id = 1`,
			want:  "13", // 1 + 3 + 4 + 5
		},
		{
			name: "RETURN from inside a FOR loop",
			setup: `CREATE FUNCTION f () RETURNS INTEGER BEGIN
				FOR r AS SELECT id FROM item ORDER BY id DO
					IF r.id = 2 THEN RETURN r.id * 10; END IF;
				END FOR;
				RETURN -1;
			END`,
			query: `SELECT f() FROM item WHERE id = 1`,
			want:  "20",
		},
		{
			name: "RETURN from a handler action",
			setup: `CREATE FUNCTION f () RETURNS INTEGER BEGIN
				DECLARE x INTEGER DEFAULT 0;
				DECLARE CONTINUE HANDLER FOR SQLEXCEPTION RETURN 77;
				SET x = 1 / x;
				RETURN 0;
			END`,
			query: `SELECT f() FROM item WHERE id = 1`,
			want:  "77",
		},
		{
			name: "RETURN ends a procedure",
			setup: `CREATE PROCEDURE p (OUT n INTEGER) BEGIN
				SET n = 1;
				RETURN;
				SET n = 2;
			END;
			CREATE FUNCTION f () RETURNS INTEGER BEGIN
				DECLARE n INTEGER DEFAULT 0;
				CALL p(n);
				RETURN n;
			END`,
			query: `SELECT f() FROM item WHERE id = 1`,
			want:  "1",
		},
		{
			name: "EXIT handler in an outer block catches a condition raised in an inner block",
			setup: `CREATE FUNCTION f () RETURNS INTEGER BEGIN
				DECLARE r INTEGER DEFAULT 0;
				BEGIN
					DECLARE EXIT HANDLER FOR SQLSTATE '70002' SET r = r + 10;
					BEGIN
						SET r = 1;
						SIGNAL SQLSTATE '70002';
						SET r = 1000;
					END;
					SET r = r + 1000;
				END;
				RETURN r + 1;
			END`,
			query: `SELECT f() FROM item WHERE id = 1`,
			want:  "12",
		},
		{
			name: "EXIT handler in an outer block catches an engine error raised in an inner block",
			setup: `CREATE FUNCTION f () RETURNS INTEGER BEGIN
				DECLARE r INTEGER DEFAULT 0;
				BEGIN
					DECLARE EXIT HANDLER FOR SQLEXCEPTION SET r = r + 10;
					BEGIN
						SET r = 1;
						SET r = r / (r - 1);
						SET r = 1000;
					END;
					SET r = r + 1000;
				END;
				RETURN r + 1;
			END`,
			query: `SELECT f() FROM item WHERE id = 1`,
			want:  "12",
		},
		{
			name:  "RETURN outside a function",
			query: `BEGIN DECLARE x INTEGER; RETURN 1; END`,
			err:   "RETURN outside a function",
		},
		{
			name:  "LEAVE of no enclosing statement, at top level",
			query: `BEGIN LEAVE Nowhere; END`,
			err:   "no enclosing statement labeled nowhere",
		},
		{
			name:  "ITERATE of a block label",
			query: `BEGIN b: BEGIN ITERATE b; END b; END`,
			err:   "no enclosing loop labeled b",
		},
		{
			name:  "LEAVE of no enclosing statement, in a function",
			setup: `CREATE FUNCTION f () RETURNS INTEGER BEGIN LEAVE x; RETURN 1; END`,
			query: `SELECT f() FROM item WHERE id = 1`,
			err:   "in function f: no enclosing statement labeled x",
		},
		{
			name:  "ITERATE of no enclosing loop, in a procedure",
			setup: `CREATE PROCEDURE p () BEGIN WHILE 1 = 1 DO ITERATE y; END WHILE; END`,
			query: `CALL p()`,
			err:   "in procedure p: no enclosing loop labeled y",
		},
		{
			name:  "a function that ends without RETURN",
			setup: `CREATE FUNCTION f () RETURNS INTEGER BEGIN DECLARE x INTEGER; SET x = 1; END`,
			query: `SELECT f() FROM item WHERE id = 1`,
			err:   "function f ended without RETURN",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := newTestDB(t)
			if c.setup != "" {
				mustExec(t, db, c.setup)
			}
			res, err := db.ExecScript(c.query)
			if c.err != "" {
				if err == nil || err.Error() != c.err {
					t.Fatalf("error = %v, want %q", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			expectRows(t, res, c.want)
			if c.after != "" {
				expectRows(t, mustExec(t, db, c.after), c.want2)
			}
		})
	}
}

// A condition a called routine raises and does not handle reaches the
// caller's handlers with its SQLSTATE, not as a generic SQLEXCEPTION.
func TestCalleeSignalReachesCallerHandler(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION boom () RETURNS INTEGER BEGIN SIGNAL SQLSTATE '70001'; RETURN 0; END;
CREATE FUNCTION catcher () RETURNS INTEGER BEGIN
  DECLARE r INTEGER DEFAULT 0;
  BEGIN
    DECLARE EXIT HANDLER FOR SQLSTATE '70001' SET r = 99;
    SET r = boom();
  END;
  RETURN r;
END`)
	expectRows(t, mustExec(t, db, `SELECT catcher() FROM item WHERE id = 1`), "99")
	// Unhandled, the condition keeps the text naming the routine it left.
	_, err := db.ExecScript(`SELECT boom() FROM item WHERE id = 1`)
	if want := "in function boom: SQLSTATE 70001"; err == nil || err.Error() != want {
		t.Fatalf("error = %v, want %q", err, want)
	}
}

func TestCalleeNotFoundReachesCallerHandler(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION drain () RETURNS INTEGER BEGIN
  DECLARE v INTEGER;
  DECLARE c CURSOR FOR SELECT id FROM item WHERE id = 1;
  OPEN c;
  FETCH c INTO v;
  FETCH c INTO v;
  RETURN v;
END;
CREATE FUNCTION nf () RETURNS INTEGER BEGIN
  DECLARE r INTEGER DEFAULT 0;
  DECLARE CONTINUE HANDLER FOR NOT FOUND SET r = 7;
  DECLARE CONTINUE HANDLER FOR SQLEXCEPTION SET r = -1;
  SET r = drain();
  RETURN r;
END`)
	expectRows(t, mustExec(t, db, `SELECT nf() FROM item WHERE id = 1`), "7")
}

// TestRoutineCallAllocations pins what a warm call of a one-statement
// function costs with the memo off: the routine's frame, its bindings and
// its block's frame. A RETURN is a result, not a boxed error.
func TestRoutineCallAllocations(t *testing.T) {
	db := newTestDB(t)
	db.DisableFnMemo = true
	mustExec(t, db, `CREATE FUNCTION inc (x INTEGER) RETURNS INTEGER BEGIN RETURN x + 1; END`)
	one := parseStmt(t, `SELECT inc(id) FROM item WHERE id = 1`)
	three := parseStmt(t, `SELECT inc(inc(inc(id))) FROM item WHERE id = 1`)
	run := func(stmt sqlast.Stmt) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := db.ExecStmt(stmt); err != nil {
				t.Fatal(err)
			}
		})
	}
	expectRows(t, mustExec(t, db, `SELECT inc(inc(inc(id))) FROM item WHERE id = 1`), "4")
	perCall := (run(three) - run(one)) / 2
	t.Logf("a warm call allocates %.1f objects", perCall)
	if perCall > 3 {
		t.Fatalf("a warm call allocates %.1f objects, want at most 3", perCall)
	}
}
