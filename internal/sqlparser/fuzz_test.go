package sqlparser

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzSeeds are FuzzParse's hand-written seeds, one per grammar
// production; TestTraversalsAgree walks them too.
var FuzzSeeds = []string{
	"SELECT 1;",
	"CREATE TABLE p (id INTEGER, name CHAR(10)) AS VALIDTIME;",
	"VALIDTIME SELECT a.x FROM a, b WHERE a.id = b.id;",
	"VALIDTIME PERIOD [2010-01-01 - 2011-01-01) UPDATE p SET name = 'x' WHERE id = 1;",
	"NONSEQUENCED VALIDTIME INSERT INTO p VALUES (1, 'a', DATE '2010-01-01', DATE '2011-01-01');",
	"CREATE FUNCTION f (x INTEGER) RETURNS INTEGER BEGIN DECLARE y INTEGER; SET y = x + 1; RETURN y; END;",
	"CREATE PROCEDURE q (IN a INTEGER, OUT b INTEGER) BEGIN SET b = a * 2; END;",
	"CREATE VIEW v AS SELECT id FROM p WHERE id > 0;",
	"EXPLAIN VALIDTIME SELECT * FROM p;",
	"ALTER TABLE p ADD VALIDTIME;",
	"DELETE FROM p WHERE id = 1; DROP TABLE p;",
	"SELECT CASE WHEN x > 0 THEN 'p' ELSE 'n' END FROM t GROUP BY y HAVING COUNT(*) > 1 ORDER BY z;",
	"CREATE TABLE bt (id CHAR(4), title CHAR(20)) AS VALIDTIME AS TRANSACTIONTIME;",
	"ALTER TABLE p ADD TRANSACTIONTIME;",
	"VALIDTIME (DATE '2011-05-01') AND TRANSACTIONTIME (DATE '2011-01-15') SELECT title FROM bt;",
	"TRANSACTIONTIME (DATE '2011-01-01', DATE '2011-05-01') SELECT title FROM bt;",
	"NONSEQUENCED TRANSACTIONTIME SELECT title, tt_begin_time, tt_end_time FROM bt;",
	"VALIDTIME (DATE '2011-03-01', DATE '2011-07-01') UPDATE bt SET title = 'x' WHERE id = 'p1';",
	"VALIDTIME (DATE '2011-01-01') AND TRANSACTIONTIME SELECT 1 FROM bt;",
	"SET SCHEMA 'x'; -- comment\nSELECT 'unterminated",
	"((((((((((",
	"INSERT INTO t VALUES (1, 2), (3); INSERT INTO t (a) VALUES (1), (2, 3);",
}

// FuzzParse feeds arbitrary text to the script parser. The parser is
// the first thing untrusted input touches (REPL lines, script files,
// routine bodies replayed from the WAL), so its contract is: parse or
// error, never panic, and every accepted statement must render back via
// SQL() without panicking either. Seeds come from the repository's SQL
// corpora plus statements covering each grammar production.
func FuzzParse(f *testing.F) {
	for _, s := range FuzzSeeds {
		f.Add(s)
	}
	paths, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.sql"))
	for _, p := range paths {
		if src, err := os.ReadFile(p); err == nil {
			f.Add(string(src))
		}
	}

	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := ParseScript(src)
		if err != nil {
			return
		}
		for _, s := range stmts {
			_ = s.SQL()
		}
	})
}
