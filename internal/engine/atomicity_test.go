package engine

import (
	"fmt"
	"strings"
	"testing"
)

// dumpTable renders a table's rows for before/after comparison.
func dumpTable(t *testing.T, db *DB, name string) string {
	t.Helper()
	tab := db.Cat.Table(name)
	if tab == nil {
		t.Fatalf("table %s missing", name)
	}
	var b strings.Builder
	for _, row := range tab.Rows {
		fmt.Fprintf(&b, "%v\n", row)
	}
	return b.String()
}

// An UPDATE that fails mid-scan (division by zero on the third row,
// after two rows were already rewritten) must leave the table exactly
// as it was: per-statement atomicity, not partial mutation.
func TestUpdateFailureMidScanRollsBack(t *testing.T) {
	db := New()
	mustExec(t, db, `
		CREATE TABLE acct (id INTEGER, bal INTEGER);
		INSERT INTO acct VALUES (1, 10), (2, 20), (3, 0), (4, 40);
	`)
	before := dumpTable(t, db, "acct")

	if _, err := db.ExecScript(`UPDATE acct SET bal = 100 / bal`); err == nil {
		t.Fatal("UPDATE over a zero divisor succeeded")
	}
	if after := dumpTable(t, db, "acct"); after != before {
		t.Fatalf("failed UPDATE left partial changes:\n--- before\n%s--- after\n%s", before, after)
	}
}

// A failing INSERT of several rows keeps none of them.
func TestInsertFailureMidValuesRollsBack(t *testing.T) {
	db := New()
	mustExec(t, db, `
		CREATE TABLE acct (id INTEGER, bal INTEGER);
		INSERT INTO acct VALUES (1, 10);
	`)
	before := dumpTable(t, db, "acct")

	if _, err := db.ExecScript(`INSERT INTO acct VALUES (2, 20), (3, 1 / 0)`); err == nil {
		t.Fatal("INSERT with a zero divisor succeeded")
	}
	if after := dumpTable(t, db, "acct"); after != before {
		t.Fatalf("failed INSERT left rows behind:\n--- before\n%s--- after\n%s", before, after)
	}
}

// A procedure that deletes, inserts, and then fails must undo all of
// its statements' work: the journal spans the whole CALL.
func TestProcedureFailureRollsBackAllStatements(t *testing.T) {
	db := New()
	mustExec(t, db, `
		CREATE TABLE acct (id INTEGER, bal INTEGER);
		INSERT INTO acct VALUES (1, 10), (2, 20);
		CREATE PROCEDURE churn (IN d INTEGER)
		MODIFIES SQL DATA
		LANGUAGE SQL
		BEGIN
		  DELETE FROM acct WHERE id = 1;
		  INSERT INTO acct VALUES (9, 90);
		  UPDATE acct SET bal = bal / d;
		END;
	`)
	before := dumpTable(t, db, "acct")

	if _, err := db.ExecScript(`CALL churn(0)`); err == nil {
		t.Fatal("CALL churn(0) succeeded")
	}
	if after := dumpTable(t, db, "acct"); after != before {
		t.Fatalf("failed CALL left partial changes:\n--- before\n%s--- after\n%s", before, after)
	}

	// And the same procedure with a valid divisor commits everything.
	mustExec(t, db, `CALL churn(2)`)
	after := dumpTable(t, db, "acct")
	if after == before || !strings.Contains(after, "9") {
		t.Fatalf("successful CALL did not apply: %s", after)
	}
}

// A failed CREATE-and-populate sequence must not leave the catalog
// holding half-built DDL: journaled DDL undo drops the new table.
func TestDDLFailureRollsBack(t *testing.T) {
	db := New()
	mustExec(t, db, `
		CREATE TABLE src (id INTEGER);
		INSERT INTO src VALUES (1), (2);
		CREATE PROCEDURE build ()
		MODIFIES SQL DATA
		LANGUAGE SQL
		BEGIN
		  CREATE TABLE built (id INTEGER);
		  INSERT INTO built SELECT 1 / (id - 2) FROM src;
		END;
	`)
	if _, err := db.ExecScript(`CALL build()`); err == nil {
		t.Fatal("CALL build() succeeded")
	}
	if db.Cat.Table("built") != nil {
		t.Fatal("failed CALL left the new table in the catalog")
	}
}

// A statement of a routine body that fails is atomic on its own: the
// handler that takes its error — here a CONTINUE handler that does
// nothing — finds none of its writes behind, whether it was an UPDATE
// that failed on its second row, an INSERT … SELECT whose second row
// does not coerce to the target's DATE column, or the same INSERT into a
// collection variable. The statements before it keep their writes.
func TestHandledStatementLeavesNoPartialWrites(t *testing.T) {
	db := New()
	mustExec(t, db, `
		CREATE TABLE src (x INTEGER);
		INSERT INTO src VALUES (1), (2), (3);
		CREATE TABLE strs (s VARCHAR(20));
		INSERT INTO strs VALUES ('2010-01-01'), ('garbage'), ('2010-01-03');
		CREATE TABLE dst (d DATE);
		CREATE PROCEDURE upd ()
		BEGIN
		  DECLARE CONTINUE HANDLER FOR SQLEXCEPTION BEGIN END;
		  UPDATE src SET x = 10 / (x - 2);
		END;
		CREATE PROCEDURE ins ()
		BEGIN
		  DECLARE CONTINUE HANDLER FOR SQLEXCEPTION BEGIN END;
		  INSERT INTO dst VALUES (DATE '2009-12-31');
		  INSERT INTO dst SELECT s FROM strs;
		END;
		CREATE FUNCTION kept () RETURNS INTEGER
		BEGIN
		  DECLARE v ROW(d DATE) ARRAY;
		  DECLARE CONTINUE HANDLER FOR SQLEXCEPTION BEGIN END;
		  INSERT INTO TABLE v VALUES (DATE '2009-12-29'), (DATE '2009-12-30');
		  INSERT INTO TABLE v SELECT s FROM strs;
		  RETURN (SELECT COUNT(*) FROM v);
		END;
	`)
	mustExec(t, db, `CALL upd()`)
	if got := rowsText(mustExec(t, db, `SELECT x FROM src`)); strings.Join(got, " ") != "1 2 3" {
		t.Errorf("the handled UPDATE left src as %v, want 1 2 3", got)
	}
	mustExec(t, db, `CALL ins()`)
	if got := rowsText(mustExec(t, db, `SELECT d FROM dst`)); strings.Join(got, " ") != "2009-12-31" {
		t.Errorf("the handled INSERT left dst as %v, want only the row of the statement before it", got)
	}
	if got := rowsText(mustExec(t, db, `SELECT kept()`)); strings.Join(got, " ") != "2" {
		t.Errorf("the handled INSERT into a collection variable left %v rows in it, want 2", got)
	}
}
