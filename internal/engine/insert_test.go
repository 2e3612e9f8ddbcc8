package engine

import (
	"fmt"
	"strings"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/types"
)

// A VALUES list whose rows differ in degree is refused before any row is
// written: by the parser, and by the engine for a list built as a tree.
func TestRaggedValuesIsRefused(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a INTEGER, b INTEGER)`)
	for src, want := range map[string]string{
		`INSERT INTO t VALUES (1, 2), (3)`:     "parse error at 1:30: VALUES row 2 has 1 values, row 1 has 2",
		`INSERT INTO t (a) VALUES (1), (2, 3)`: "parse error at 1:31: VALUES row 2 has 2 values, row 1 has 1",
	} {
		if _, err := db.ExecScript(src); err == nil || err.Error() != want {
			t.Errorf("%s: got %v, want %s", src, err, want)
		}
	}
	one := func(i int64) sqlast.Expr { return &sqlast.Literal{Val: types.NewInt(i)} }
	for _, s := range []*sqlast.InsertStmt{
		{Table: "t", Source: &sqlast.ValuesExpr{Rows: [][]sqlast.Expr{{one(1), one(2)}, {one(3)}}}},
		{Table: "t", Cols: []string{"a"}, Source: &sqlast.ValuesExpr{Rows: [][]sqlast.Expr{{one(1)}, {one(2), one(3)}}}},
	} {
		if _, err := db.ExecStmt(s); err == nil || !strings.Contains(err.Error(), "VALUES row 2 has") {
			t.Errorf("%s: got %v", s.SQL(), err)
		}
	}
	if n := len(db.Cat.Table("t").Rows); n != 0 {
		t.Errorf("the refused INSERTs left %d rows", n)
	}
}

// SQL forbids a column to be a target twice in one INSERT or UPDATE.
func TestTargetColumnNamedTwiceIsRefused(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a INTEGER, b INTEGER); INSERT INTO t VALUES (1, 1)`)
	for _, src := range []string{
		`INSERT INTO t (a, b, A) VALUES (1, 2, 3)`,
		`UPDATE t SET a = 5, b = 1, a = 6`,
	} {
		if _, err := db.ExecScript(src); err == nil || !strings.HasSuffix(err.Error(), "of t is assigned twice") {
			t.Errorf("%s: got %v", src, err)
		}
	}
	if got := strings.Join(rowsText(mustExec(t, db, `SELECT a, b FROM t`)), " "); got != "1,1" {
		t.Errorf("the refused statements left t as %s", got)
	}
}

// A warm INSERT INTO TABLE v … SELECT of k rows inside a routine
// allocates each row once — where the SELECT projects it — and nothing
// else per row: the row becomes the variable's, the statement journals
// one undo, the variable's schema and the statement's column mapping are
// built once.
func TestRoutineInsertAllocations(t *testing.T) {
	db := New()
	mustExec(t, db, `
		CREATE TABLE src (a INTEGER, b INTEGER, k INTEGER);
		CREATE PROCEDURE fill (n INTEGER)
		BEGIN
		  DECLARE v ROW(b INTEGER, a INTEGER, c FLOAT) ARRAY;
		  DECLARE w ROW(a INTEGER, b FLOAT) ARRAY;
		  INSERT INTO TABLE w SELECT a, b FROM src WHERE k < n;
		  INSERT INTO TABLE v (a, c, b) SELECT a, b, k FROM src WHERE k < n;
		END;
	`)
	var b strings.Builder
	b.WriteString("INSERT INTO src VALUES ")
	for i := 0; i < 400; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d)", i, 2*i, i)
	}
	mustExec(t, db, b.String())
	allocs := func(k int) float64 {
		call, err := sqlparser.ParseStatement(fmt.Sprintf("CALL fill(%d)", k))
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := db.ExecStmt(call); err != nil {
				t.Fatal(err)
			}
		}
		run()
		return testing.AllocsPerRun(20, run)
	}
	const k1, k2 = 100, 300
	a1, a2 := allocs(k1), allocs(k2)
	// Two statements of k rows each: 2k rows projected.
	if per := (a2 - a1) / (2 * (k2 - k1)); per > 1.01 {
		t.Errorf("%.2f objects per inserted row (%.0f for k=%d, %.0f for k=%d), want 1: the projected row", per, a1, k1, a2, k2)
	}
	if over := a1 - 2*k1; over > 40 {
		t.Errorf("%.0f objects for k=%d: %.0f beyond the rows themselves, want at most 40", a1, k1, over)
	}
	t.Logf("%.0f objects for k=%d, %.0f for k=%d", a1, k1, a2, k2)
}
