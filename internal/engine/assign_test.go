package engine

import (
	"strings"
	"testing"
)

// Every assignment converts with types.Convert, CAST's conversion: a value
// that CAST refuses — a FLOAT into a DATE — raises CAST's error wherever it
// is assigned, instead of being kept as it is. One that converts is
// converted, and, unlike CAST, never cut to a declared length.
func TestAssignmentConvertsOrRejects(t *testing.T) {
	const setup = `CREATE TABLE t (d DATE, b BOOLEAN, s CHAR(2), i INTEGER);
		CREATE TABLE f (x FLOAT); INSERT INTO f VALUES (1.5);`
	for _, tc := range []struct{ name, src string }{
		{"insert", `INSERT INTO t VALUES (1.5, TRUE, 'a', 1)`},
		{"update", `INSERT INTO t VALUES (DATE '2010-01-01', TRUE, 'a', 1); UPDATE t SET d = 1.5`},
		{"set", `CREATE FUNCTION fs () RETURNS DATE BEGIN DECLARE d DATE; SET d = 1.5; RETURN d; END; SELECT fs()`},
		{"default", `CREATE FUNCTION fd () RETURNS DATE BEGIN DECLARE d DATE DEFAULT 1.5; RETURN d; END; SELECT fd()`},
		{"return", `CREATE FUNCTION fr () RETURNS DATE BEGIN RETURN 1.5; END; SELECT fr()`},
		{"fetch", `CREATE FUNCTION ff () RETURNS DATE BEGIN
			DECLARE d DATE; DECLARE c CURSOR FOR SELECT x FROM f;
			OPEN c; FETCH c INTO d; RETURN d; END; SELECT ff()`},
		{"parameter", `CREATE FUNCTION fp (d DATE) RETURNS DATE BEGIN RETURN d; END; SELECT fp(1.5)`},
		{"procedure", `CREATE PROCEDURE pp (IN d DATE) BEGIN INSERT INTO t VALUES (d, TRUE, 'a', 1); END; CALL pp(1.5)`},
	} {
		db := New()
		mustExec(t, db, setup)
		if _, err := db.ExecScript(tc.src); err == nil || !strings.Contains(err.Error(), "cannot cast FLOAT to DATE") {
			t.Errorf("%s: %v, want cannot cast FLOAT to DATE", tc.name, err)
		}
		expectRows(t, mustExec(t, db, `SELECT COUNT(*) FROM t WHERE d = 1.5`), "0")
	}

	db := New()
	mustExec(t, db, setup+`
		INSERT INTO t VALUES (DATE '2010-03-05', 'x', 'abcdef', 2.7);
		INSERT INTO t VALUES ('2010-03-06', 1, 'cd', DATE '1970-01-11');
		UPDATE t SET s = s || 'xyz' WHERE i = 10`)
	expectRows(t, mustExec(t, db, `SELECT d, b, s, i FROM t ORDER BY d`),
		"2010-03-05,FALSE,abcdef,2",
		"2010-03-06,TRUE,cdxyz,10")
	expectRows(t, mustExec(t, db, `SELECT CAST(s AS CHAR(2)), CAST(s AS VARCHAR(3)) FROM t ORDER BY d`),
		"ab,abc", "cd,cdx")
}

// A library function's value is the one row types.Builtins describes,
// on the engine's arguments: SUBSTR of a negative or a huge length, YEAR
// of a string, ABS of one.
func TestBuiltinEdgesThroughTheEngine(t *testing.T) {
	db := New()
	for _, tc := range []struct{ src, want string }{
		{`SELECT SUBSTR('abc', 2, -1)`, "error: substring error: negative length -1"},
		{`SELECT SUBSTR('abc', 2, 9223372036854775807)`, "bc"},
		{`SELECT YEAR('2010-03-05')`, "2010"},
		{`SELECT YEAR('March')`, `error: invalid DATE literal "March" (want YYYY-MM-DD)`},
		{`SELECT ABS('-5')`, "5"},
	} {
		got := ""
		if res, err := db.ExecScript(tc.src); err != nil {
			got = "error: " + err.Error()
		} else {
			got = rowsText(res)[0]
		}
		if got != tc.want {
			t.Errorf("%s = %s, want %s", tc.src, got, tc.want)
		}
	}
}
