package engine

import (
	"fmt"
	"strings"
	"testing"
)

// An UPDATE evaluates every WHERE and SET over the table as the
// statement found it, then changes the rows: a routine the clauses call
// reads no half-updated table, so what it sees does not depend on the
// access path — the hash index on k or a full scan. A routine that
// writes the target from an UPDATE's or a DELETE's clauses keeps its
// writes.
func TestUpdateReadsTheTableAsFound(t *testing.T) {
	cases := []struct{ stmt, want string }{
		// cnt(3) is 1 for every row: the table the statement found has
		// one k = 3, whatever the rows before it were set to.
		{`UPDATE t SET k = 3, v = cnt(3)`, "3,1 3,1 3,1 3,1 3,1"},
		{`UPDATE t SET k = k + 1 WHERE cnt(k) = 1`, "2,0 3,0 4,0 5,0 6,0"},
		// A routine the clauses call writes the target: the values go into
		// the rows the statement read, where they are now; the rows it
		// appended stay, and those it deleted stay deleted.
		{`UPDATE t SET v = grow(k) WHERE k < 3`, "1,1 1,99 2,2 2,99 3,0 4,0 5,0"},
		{`UPDATE t SET v = k WHERE drop4(k) = 1`, "1,1 2,2 3,3 5,5"},
		{`DELETE FROM t WHERE k = 2 AND grow(k) = 2`, "1,0 2,99 3,0 4,0 5,0"},
		{`DELETE FROM t WHERE k > 2 AND drop4(k) = 1`, "1,0 2,0"},
	}
	for _, c := range cases {
		for _, disable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/DisableIndexes=%v", c.stmt, disable), func(t *testing.T) {
				db := New()
				db.DisableIndexes = disable
				mustExec(t, db, `
					CREATE TABLE t (k INTEGER, v INTEGER);
					INSERT INTO t VALUES (1, 0), (2, 0), (3, 0), (4, 0), (5, 0);
					CREATE FUNCTION cnt (x INTEGER) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
					BEGIN RETURN (SELECT COUNT(*) FROM t WHERE k = x); END;
					CREATE FUNCTION grow (x INTEGER) RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL
					BEGIN INSERT INTO t VALUES (x, 99); RETURN x; END;
					CREATE FUNCTION drop4 (x INTEGER) RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL
					BEGIN DELETE FROM t WHERE k = 4; RETURN 1; END;
				`)
				mustExec(t, db, `SELECT COUNT(*) FROM t WHERE k = 1`) // builds the index on k
				mustExec(t, db, c.stmt)
				got := strings.Join(rowsText(mustExec(t, db, `SELECT k, v FROM t ORDER BY k, v`)), " ")
				if got != c.want {
					t.Fatalf("got %s, want %s", got, c.want)
				}
				// The index answers as a scan does after the write.
				for k := 1; k <= 6; k++ {
					q := fmt.Sprintf(`SELECT COUNT(*) FROM t WHERE k = %d`, k)
					want := strings.Count(" "+got, fmt.Sprintf(" %d,", k))
					expectRows(t, mustExec(t, db, q), fmt.Sprint(want))
				}
			})
		}
	}
}
