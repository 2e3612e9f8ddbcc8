package engine

import (
	"fmt"
	"strings"
	"testing"

	"taupsm/internal/types"
)

// The tests of the key-driven scan (pipe.byKeys): a stored first source
// that step 0 hash-joins on one of its columns is read through the keys of
// the build side when they hold fewer rows than its own access path
// proposes.

// keyedDB holds ten publishers, each renamed on day 10 (twenty versions,
// ten valid on any day), and thirty items, item j published by j % 10.
func keyedDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `
		CREATE TABLE publisher (pid INTEGER, name VARCHAR(10)) AS VALIDTIME;
		CREATE TABLE item_publisher (iid INTEGER, pid INTEGER);
		CREATE FUNCTION publisher_of (i INTEGER, d DATE) RETURNS VARCHAR(10) READS SQL DATA LANGUAGE SQL
		BEGIN
		  DECLARE done INTEGER DEFAULT 0;
		  DECLARE nm VARCHAR(10) DEFAULT 'none';
		  DECLARE cur CURSOR FOR SELECT p.name FROM publisher p, item_publisher ip
		    WHERE ip.iid = i AND p.pid = ip.pid AND p.begin_time <= d AND d < p.end_time;
		  DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
		  OPEN cur;
		  wl: WHILE done = 0 DO
		    FETCH cur INTO nm;
		  END WHILE wl;
		  CLOSE cur;
		  RETURN nm;
		END;
		CREATE FUNCTION count_names (lo INTEGER, hi INTEGER, d DATE) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
		BEGIN
		  DECLARE n INTEGER DEFAULT 0;
		  DECLARE j INTEGER DEFAULT 0;
		  SET j = lo;
		  WHILE j < hi DO
		    FOR r AS SELECT p.name AS nm FROM publisher p, item_publisher ip
		        WHERE ip.iid = j AND p.pid = ip.pid AND p.begin_time <= d AND d < p.end_time DO
		      SET n = n + 1;
		    END FOR;
		    SET j = j + 1;
		  END WHILE;
		  RETURN n;
		END;`)
	p, ip := db.Cat.Table("publisher"), db.Cat.Table("item_publisher")
	for i := int64(0); i < 10; i++ {
		for _, v := range []struct {
			name   string
			lo, hi int64
		}{{"P", day0, day0 + 10}, {"Q", day0 + 10, types.MustDate(9999, 12, 31)}} {
			if err := p.Insert([]types.Value{types.NewInt(i), types.NewString(fmt.Sprint(v.name, i)), types.NewDate(v.lo), types.NewDate(v.hi)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for j := int64(0); j < 30; j++ {
		if err := ip.Insert([]types.Value{types.NewInt(j), types.NewInt(j % 10)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// outcomeText renders a statement's rows, or its error.
func outcomeText(db *DB, sql string) string {
	res, err := db.ExecScript(sql)
	if err != nil {
		return "error: " + err.Error()
	}
	return strings.Join(rowsText(res), ";")
}

// Each case runs a statement on a fresh session of keyedDB and pins its
// rows (or its error), the rows it scanned, its interval probes and its
// key-driven scans; with the indexes off it must return the same.
func TestKeyDrivenScanCounts(t *testing.T) {
	d5, d15 := day(5), day(15)
	for _, c := range []struct {
		name, sql       string
		rows            string
		scanned, probes int64
		keyed           int64
	}{
		// item_publisher by its index (1 row), publisher through the one
		// key (2 versions) instead of its stab (10 rows).
		{name: "a cursor: q14's shape", sql: `SELECT publisher_of(13, ` + d5 + `), publisher_of(13, ` + d15 + `)`,
			rows: "P3,Q3", scanned: 2 * (1 + 2), probes: 2, keyed: 2},
		{name: "a FOR loop: q17b's shape", sql: `SELECT count_names(10, 14, ` + d5 + `)`,
			rows: "4", scanned: 4 * (1 + 2), probes: 4, keyed: 4},
		// The streamed side of a LEFT JOIN keeps its rows without a match:
		// its stab (10 rows), and item_publisher scanned whole (30).
		{name: "a LEFT JOIN streams its left side whole",
			sql: `SELECT COUNT(*), COUNT(ip.iid) FROM publisher p LEFT JOIN item_publisher ip ON p.pid = ip.pid AND ip.iid = 13
				WHERE p.begin_time <= ` + d5 + ` AND ` + d5 + ` < p.end_time`,
			rows: "10,1", scanned: 10 + 30, probes: 1},
		// publisher's own index proposes 1 row; the build holds 10 keys.
		{name: "a build with more keys than the scan's candidates",
			sql:  `SELECT COUNT(*) FROM publisher p, item_publisher ip WHERE p.pid = ip.pid AND p.name = 'P3'`,
			rows: "3", scanned: 1 + 30},
		// item_publisher holds no row of item 99: nothing to read.
		{name: "an empty build", sql: `SELECT publisher_of(99, ` + d5 + `)`, rows: "none", probes: 1, keyed: 1},
		// What the scan's own path reads raises at its first row, though
		// the build holds no key: the keys may not spare that error.
		{name: "an empty build under a name nothing binds",
			sql:  `SELECT COUNT(*) FROM publisher p, item_publisher ip WHERE ip.iid = 99 AND p.pid = ip.pid AND p.name = zz`,
			rows: "error: name zz is neither a column in scope nor a variable", scanned: 20},
		// A join key other than the column raises at publisher 5, which
		// the one key (3) would not propose; nor may the key the column
		// follows go unevaluated.
		{name: "a second key that may raise",
			sql:  `SELECT COUNT(*) FROM publisher p, item_publisher ip WHERE ip.iid = 13 AND p.pid = ip.pid AND 10 / (p.pid - 5) = ip.pid`,
			rows: "error: division by zero", scanned: 1 + 20},
		{name: "a first key that may raise",
			sql:  `SELECT COUNT(*) FROM publisher p, item_publisher ip WHERE ip.iid = 13 AND 10 / (p.pid - 5) = ip.pid AND p.pid = ip.pid`,
			rows: "error: division by zero", scanned: 1 + 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := keyedDB(t)
			ses := db.NewSession()
			if got := outcomeText(ses, c.sql); got != c.rows {
				t.Errorf("rows %s, want %s", got, c.rows)
			}
			if s := ses.Stats; s.RowsScanned != c.scanned || s.IntervalProbes != c.probes || ses.keyedScans != c.keyed {
				t.Errorf("scanned %d, probes %d, key-driven scans %d; want %d, %d, %d",
					s.RowsScanned, s.IntervalProbes, ses.keyedScans, c.scanned, c.probes, c.keyed)
			}
			off := db.NewSession()
			off.DisableIndexes = true
			if got := outcomeText(off, c.sql); got != c.rows || off.keyedScans != 0 {
				t.Errorf("with the indexes off: rows %s, %d key-driven scans", got, off.keyedScans)
			}
		})
	}
}

// An equality's value may call a routine that writes the table the
// equality's index is probed in: the scan reads the table's rows after
// choosing its candidates, which hold the row just written.
func TestScanReadsRowsAfterItsCandidates(t *testing.T) {
	db := keyedDB(t)
	mustExec(t, db, `CREATE FUNCTION add_item () RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL
		BEGIN INSERT INTO item_publisher VALUES (77, 7); RETURN 77; END`)
	for _, c := range []struct{ sql, want string }{
		{`SELECT iid, pid FROM item_publisher WHERE iid = add_item()`, "77,7"},
		{`SELECT ip.iid, p.name FROM item_publisher ip, publisher p WHERE ip.iid = add_item() AND p.pid = ip.pid AND p.name = 'Q7'`, "77,Q7"},
	} {
		ses := db.NewSession()
		if got := outcomeText(ses, c.sql); got != c.want || ses.Stats.RowsScanned > 3 {
			t.Errorf("%s: %s after %d rows scanned; want %s", c.sql, got, ses.Stats.RowsScanned, c.want)
		}
		mustExec(t, db, `DELETE FROM item_publisher WHERE iid = 77`)
	}
}
