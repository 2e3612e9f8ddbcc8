package taupsm_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"taupsm"
	"taupsm/internal/enginetest"
)

// TestIndexedWritesEqualScans is the engine's differential test of index
// maintenance: one seeded script of interleaved current and sequenced
// UPDATE, DELETE and INSERT on a valid-time table, with point, overlap
// and stab reads between them, the two UPDATE shapes whose clauses call
// a routine reading the target, a statement that fails under a handler
// (its changes roll back) and a KILL mid-statement, runs on a database
// with indexes and one without (DisableIndexes). After every statement
// the two agree on the error, the rows returned, the count of rows
// affected, both tables' rows and the statistics' counters.
func TestIndexedWritesEqualScans(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var dbs [2]*taupsm.DB
			for i := range dbs {
				dbs[i] = taupsm.Open()
				defer dbs[i].Close()
				dbs[i].Engine().DisableIndexes = i == 1
				dbs[i].SetNow(2010, 3, 1)
				dbs[i].MustExec(indexedWritesSetup)
			}
			rng := rand.New(rand.NewSource(seed))
			for step, stmt := range indexedWritesScript(rng) {
				if stmt == "KILL" {
					for _, db := range dbs {
						killMidUpdate(t, db)
					}
				} else if y, m, d, ok := parseNow(stmt); ok {
					for _, db := range dbs {
						db.SetNow(y, m, d)
					}
				} else {
					var got [2]string
					for i, db := range dbs {
						res, err := db.Exec(stmt)
						got[i] = fmt.Sprintf("err %v\n", err)
						if err == nil {
							got[i] += fmt.Sprintf("affected %d\n%s", res.Affected, enginetest.RenderRows(res))
						}
					}
					if got[0] != got[1] {
						t.Fatalf("step %d, %s:\nwith indexes:\n%s\nwithout:\n%s", step, stmt, got[0], got[1])
					}
				}
				if a, b := indexedWritesState(t, dbs[0]), indexedWritesState(t, dbs[1]); a != b {
					t.Fatalf("step %d, %s: the databases diverge\nwith indexes:\n%s\nwithout:\n%s", step, stmt, a, b)
				}
			}
		})
	}
}

const indexedWritesSetup = `
CREATE TABLE p (k INTEGER, v INTEGER) AS VALIDTIME;
CREATE TABLE t (k INTEGER, v INTEGER);
INSERT INTO t VALUES (1, 0), (2, 0), (3, 0), (4, 0), (5, 0);
CREATE FUNCTION cnt (x INTEGER) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
BEGIN RETURN (SELECT COUNT(*) FROM t WHERE k = x); END;
CREATE FUNCTION spin (x INTEGER) RETURNS INTEGER
BEGIN
  DECLARE i INTEGER;
  SET i = 0;
  WHILE i < 200000 DO SET i = i + 1; END WHILE;
  RETURN x;
END;
CREATE PROCEDURE risky (IN d INTEGER) MODIFIES SQL DATA LANGUAGE SQL
BEGIN
  DECLARE CONTINUE HANDLER FOR SQLEXCEPTION BEGIN END;
  UPDATE t SET k = k + 10, v = 100 / (k - d);
  INSERT INTO t VALUES (d, d);
END;
`

// indexedWritesScript returns the seeded script: statements, "KILL"
// for a killed UPDATE, and "NOW y-m-d" for moving CURRENT_DATE.
func indexedWritesScript(rng *rand.Rand) []string {
	date := func() string { return fmt.Sprintf("DATE '2010-%02d-%02d'", 1+rng.Intn(6), 1+rng.Intn(28)) }
	period := func() (string, string) {
		m := 1 + rng.Intn(5)
		return fmt.Sprintf("DATE '2010-%02d-%02d'", m, 1+rng.Intn(28)), fmt.Sprintf("DATE '2010-%02d-%02d'", m+1, 1+rng.Intn(28))
	}
	var out []string
	for i := 0; i < 12; i++ {
		b, e := period()
		out = append(out, fmt.Sprintf("NONSEQUENCED VALIDTIME INSERT INTO p VALUES (%d, %d, %s, %s)", i%6, i, b, e))
	}
	for i := 0; i < 90; i++ {
		k, v := rng.Intn(7), rng.Intn(50)
		b, e := period()
		switch rng.Intn(17) {
		case 0:
			out = append(out, fmt.Sprintf("UPDATE p SET v = v + %d WHERE k = %d", v, k))
		case 1:
			out = append(out, fmt.Sprintf("UPDATE p SET k = %d WHERE k = %d", rng.Intn(7), k))
		case 2:
			out = append(out, fmt.Sprintf("VALIDTIME (%s, %s) UPDATE p SET v = %d WHERE k = %d", b, e, v, k))
		case 3:
			out = append(out, fmt.Sprintf("VALIDTIME (%s, %s) DELETE FROM p WHERE k = %d", b, e, k))
		case 4:
			out = append(out, fmt.Sprintf("DELETE FROM p WHERE k = %d", k))
		case 5:
			out = append(out, fmt.Sprintf("NONSEQUENCED VALIDTIME INSERT INTO p VALUES (%d, %d, %s, %s)", k, v, b, e))
		case 6:
			out = append(out, fmt.Sprintf("INSERT INTO p VALUES (%d, %d)", k, v))
		case 7:
			out = append(out, fmt.Sprintf("SELECT k, v FROM p WHERE k = %d", k))
		case 8:
			out = append(out, fmt.Sprintf("VALIDTIME (%s, %s) SELECT k, v FROM p WHERE k = %d", b, e, k))
		case 9:
			d := date()
			out = append(out, fmt.Sprintf("NONSEQUENCED VALIDTIME SELECT k, v FROM p WHERE begin_time <= %s AND %s < end_time", d, d))
		case 10:
			out = append(out, fmt.Sprintf("UPDATE t SET k = %d, v = cnt(%d)", k, k))
		case 11:
			out = append(out, "UPDATE t SET k = k + 1 WHERE cnt(k) = 1")
		case 12:
			out = append(out, fmt.Sprintf("SELECT k, v, cnt(k) FROM t WHERE k = %d", k))
		case 13:
			out = append(out, fmt.Sprintf("CALL risky(%d)", k))
		case 14:
			out = append(out, fmt.Sprintf("DELETE FROM t WHERE k = %d", k), fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", k, v))
		case 15:
			out = append(out, fmt.Sprintf("NOW 2010-%02d-%02d", 1+rng.Intn(6), 1+rng.Intn(28)))
		default:
			out = append(out, "KILL")
		}
	}
	return out
}

// parseNow parses a script's "NOW y-m-d" line.
func parseNow(stmt string) (y, m, d int, ok bool) {
	n, _ := fmt.Sscanf(stmt, "NOW %d-%d-%d", &y, &m, &d)
	return y, m, d, n == 3
}

// indexedWritesState renders both tables and the statistics' counters.
func indexedWritesState(t *testing.T, db *taupsm.DB) string {
	t.Helper()
	out := ""
	for _, q := range []string{
		`NONSEQUENCED VALIDTIME SELECT k, v, begin_time, end_time FROM p ORDER BY k, v, begin_time, end_time`,
		`SELECT k, v FROM t ORDER BY k, v`,
		`SELECT table_name, row_count, inserts, updates, deletes FROM tau_stat_tables ORDER BY table_name`,
		`SELECT routine_name, calls FROM tau_stat_routines WHERE routine_name <> 'spin' ORDER BY routine_name`,
	} {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out += enginetest.RenderRows(res) + "--\n"
	}
	return out
}

// killMidUpdate kills an UPDATE of t once its SET has called spin: the
// statement fails with ErrQueryKilled and t is as it was.
func killMidUpdate(t *testing.T, db *taupsm.DB) {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := db.Exec(`UPDATE t SET v = spin(k) + 1`)
		errc <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("the update never appeared with routine calls in flight")
		}
		if ls := db.ProcessList(); len(ls) > 0 && ls[0].RoutineCalls > 0 {
			if err := db.Kill(ls[0].ID); err != nil {
				t.Fatal(err)
			}
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := <-errc; !errors.Is(err, taupsm.ErrQueryKilled) {
		t.Fatalf("killed update: %v", err)
	}
	waitEmpty(t, db)
}
