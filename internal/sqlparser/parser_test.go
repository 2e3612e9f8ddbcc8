package sqlparser

import (
	"strings"
	"testing"

	"taupsm/internal/sqlast"
)

// roundtrip parses src, prints it, re-parses the print, and re-prints;
// the two prints must match (printer output is a fixed point).
func roundtrip(t *testing.T, src string) sqlast.Stmt {
	t.Helper()
	s1, err := ParseStatement(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	p1 := s1.SQL()
	s2, err := ParseStatement(p1)
	if err != nil {
		t.Fatalf("reparse %q: %v", p1, err)
	}
	p2 := s2.SQL()
	if p1 != p2 {
		t.Fatalf("print not a fixed point:\nfirst:  %s\nsecond: %s", p1, p2)
	}
	return s1
}

func TestParseSimpleSelect(t *testing.T) {
	s := roundtrip(t, `SELECT i.title FROM item i, item_author ia WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`)
	sel, ok := s.(*sqlast.SelectStmt)
	if !ok {
		t.Fatalf("expected *SelectStmt, got %T", s)
	}
	if len(sel.From) != 2 {
		t.Fatalf("expected 2 FROM items, got %d", len(sel.From))
	}
	bt := sel.From[0].(*sqlast.BaseTable)
	if bt.Name != "item" || bt.Alias != "i" {
		t.Fatalf("bad first table ref: %+v", bt)
	}
}

func TestParseSequencedQuery(t *testing.T) {
	s := roundtrip(t, `VALIDTIME SELECT i.title FROM item i WHERE i.id = 3`)
	ts, ok := s.(*sqlast.TemporalStmt)
	if !ok || ts.Mod != sqlast.ModSequenced {
		t.Fatalf("expected sequenced TemporalStmt, got %T %v", s, s.SQL())
	}
	if ts.Period != nil {
		t.Fatalf("expected no period spec")
	}
}

func TestParseSequencedQueryWithContext(t *testing.T) {
	s := roundtrip(t, `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT i.title FROM item i`)
	ts := s.(*sqlast.TemporalStmt)
	if ts.Period == nil {
		t.Fatal("expected period spec")
	}
	if got := ts.Period.Begin.SQL(); got != "DATE '2010-01-01'" {
		t.Fatalf("bad begin: %s", got)
	}
}

func TestParseNonsequenced(t *testing.T) {
	s := roundtrip(t, `NONSEQUENCED VALIDTIME SELECT a.first_name FROM author a`)
	ts := s.(*sqlast.TemporalStmt)
	if ts.Mod != sqlast.ModNonsequenced {
		t.Fatalf("expected nonsequenced, got %v", ts.Mod)
	}
}

func TestParseCreateFunction(t *testing.T) {
	src := `
CREATE FUNCTION get_author_name (aid CHAR(10))
RETURNS CHAR(50)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE fname CHAR(50);
  SET fname = (SELECT first_name FROM author WHERE author_id = aid);
  RETURN fname;
END`
	s := roundtrip(t, src)
	f, ok := s.(*sqlast.CreateFunctionStmt)
	if !ok {
		t.Fatalf("expected CreateFunctionStmt, got %T", s)
	}
	if f.Name != "get_author_name" || len(f.Params) != 1 || f.Params[0].Name != "aid" {
		t.Fatalf("bad signature: %+v", f)
	}
	if f.Returns.Base != "CHAR" || f.Returns.Length != 50 {
		t.Fatalf("bad return type: %+v", f.Returns)
	}
	body, ok := f.Body.(*sqlast.CompoundStmt)
	if !ok {
		t.Fatalf("expected compound body, got %T", f.Body)
	}
	if len(body.VarDecls) != 1 || len(body.Stmts) != 2 {
		t.Fatalf("bad body: %d decls %d stmts", len(body.VarDecls), len(body.Stmts))
	}
}

func TestParseProcedureWithControlFlow(t *testing.T) {
	src := `
CREATE PROCEDURE count_books (IN pid CHAR(10), OUT total INTEGER)
LANGUAGE SQL
BEGIN
  DECLARE n INTEGER DEFAULT 0;
  DECLARE done INTEGER DEFAULT 0;
  DECLARE cur CURSOR FOR SELECT item_id FROM item_publisher WHERE publisher_id = pid;
  DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
  OPEN cur;
  wloop: WHILE done = 0 DO
    FETCH cur INTO pid;
    IF done = 0 THEN
      SET n = n + 1;
    END IF;
  END WHILE wloop;
  CLOSE cur;
  SET total = n;
END`
	s := roundtrip(t, src)
	pr, ok := s.(*sqlast.CreateProcedureStmt)
	if !ok {
		t.Fatalf("expected procedure, got %T", s)
	}
	if pr.Params[1].Mode != sqlast.ModeOut {
		t.Fatalf("expected OUT mode, got %v", pr.Params[1].Mode)
	}
	body := pr.Body.(*sqlast.CompoundStmt)
	if len(body.Cursors) != 1 || len(body.Handlers) != 1 {
		t.Fatalf("bad decls: %d cursors %d handlers", len(body.Cursors), len(body.Handlers))
	}
}

func TestParseControlStatements(t *testing.T) {
	for _, src := range []string{
		`CREATE PROCEDURE p () BEGIN SET x = 1; END`,
		`CREATE PROCEDURE p () BEGIN IF x = 1 THEN SET y = 2; ELSEIF x = 2 THEN SET y = 3; ELSE SET y = 4; END IF; END`,
		`CREATE PROCEDURE p () BEGIN CASE WHEN x = 1 THEN SET y = 2; ELSE SET y = 3; END CASE; END`,
		`CREATE PROCEDURE p () BEGIN CASE x WHEN 1 THEN SET y = 2; END CASE; END`,
		`CREATE PROCEDURE p () BEGIN lbl: REPEAT SET x = x + 1; UNTIL x > 10 END REPEAT lbl; END`,
		`CREATE PROCEDURE p () BEGIN lbl: LOOP SET x = x + 1; IF x > 3 THEN LEAVE lbl; END IF; END LOOP lbl; END`,
		`CREATE PROCEDURE p () BEGIN FOR r AS SELECT a FROM t DO SET x = x + r; END FOR; END`,
		`CREATE PROCEDURE p () BEGIN FOR r AS c1 CURSOR FOR SELECT a FROM t DO SET x = 1; END FOR; END`,
		`CREATE PROCEDURE p () BEGIN lbl: WHILE x < 3 DO ITERATE lbl; END WHILE lbl; END`,
		`CREATE PROCEDURE p () BEGIN SIGNAL SQLSTATE '70001' SET MESSAGE_TEXT = 'bad'; END`,
		`CREATE PROCEDURE p () BEGIN CALL q(1, 'a'); END`,
	} {
		roundtrip(t, src)
	}
}

func TestParseQueries(t *testing.T) {
	for _, src := range []string{
		`SELECT DISTINCT a, b AS bb FROM t WHERE a BETWEEN 1 AND 3 ORDER BY b DESC`,
		`SELECT * FROM t WHERE a IN (1, 2, 3)`,
		`SELECT * FROM t WHERE a IN (SELECT b FROM u)`,
		`SELECT * FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.x)`,
		`SELECT * FROM t WHERE NOT EXISTS (SELECT 1 FROM u)`,
		`SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2`,
		`SELECT a FROM t UNION SELECT b FROM u`,
		`SELECT a FROM t UNION ALL SELECT b FROM u EXCEPT SELECT c FROM v`,
		`SELECT a FROM t INTERSECT SELECT b FROM u`,
		`SELECT x.a FROM (SELECT a FROM t) AS x`,
		`SELECT f.c1 FROM TABLE(fn(1, 2)) AS f`,
		`SELECT t.a FROM t JOIN u ON t.id = u.id`,
		`SELECT t.a FROM t LEFT JOIN u ON t.id = u.id WHERE u.id IS NULL`,
		`SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t`,
		`SELECT CAST(a AS INTEGER) FROM t`,
		`SELECT a FROM t WHERE name LIKE 'Ben%'`,
		`SELECT a FROM t FETCH FIRST 5 ROWS ONLY`,
		`SELECT SUM(price * 2), AVG(price), MIN(a), MAX(a), COUNT(DISTINCT a) FROM t`,
		`SELECT a FROM t WHERE d >= DATE '2010-01-01' AND d < CURRENT_DATE`,
		`SELECT first_name || ' ' || last_name FROM author`,
		`SELECT -x + 3 * (y - 2) / 4 FROM t`,
	} {
		roundtrip(t, src)
	}
}

func TestParseDML(t *testing.T) {
	for _, src := range []string{
		`INSERT INTO t VALUES (1, 'a', DATE '2010-01-01')`,
		`INSERT INTO t (a, b) VALUES (1, 2), (3, 4)`,
		`INSERT INTO t SELECT a, b FROM u WHERE a > 0`,
		`INSERT INTO TABLE v SELECT a FROM u`,
		`UPDATE t SET a = 1, b = b + 1 WHERE c = 'x'`,
		`UPDATE TABLE v SET a = 1`,
		`DELETE FROM t WHERE a = 1`,
		`DELETE FROM TABLE v WHERE begin_time < DATE '2010-06-01'`,
		`VALIDTIME UPDATE t SET a = 1 WHERE b = 2`,
		`VALIDTIME (DATE '2010-01-01', DATE '2010-02-01') DELETE FROM t WHERE a = 1`,
	} {
		roundtrip(t, src)
	}
}

func TestParseDDL(t *testing.T) {
	for _, src := range []string{
		`CREATE TABLE t (a INTEGER, b CHAR(10), c DATE)`,
		`CREATE TABLE item (id CHAR(10), title VARCHAR(100)) AS VALIDTIME`,
		`CREATE TEMPORARY TABLE ts AS (SELECT begin_time AS time_point FROM author UNION SELECT end_time AS time_point FROM author)`,
		`CREATE VIEW v AS (SELECT a FROM t)`,
		`CREATE VIEW v (x, y) AS SELECT a, b FROM t`,
		`DROP TABLE t`,
		`DROP TABLE IF EXISTS t`,
		`DROP VIEW IF EXISTS v`,
		`DROP FUNCTION f`,
		`DROP PROCEDURE IF EXISTS p`,
		`ALTER TABLE t ADD VALIDTIME`,
	} {
		roundtrip(t, src)
	}
}

func TestParseCollectionReturnType(t *testing.T) {
	src := `CREATE FUNCTION ps_f (aid CHAR(10), period_begin DATE, period_end DATE)
RETURNS ROW(taupsm_result CHAR(50), begin_time DATE, end_time DATE) ARRAY
READS SQL DATA
BEGIN
  RETURN NULL;
END`
	s := roundtrip(t, src)
	f := s.(*sqlast.CreateFunctionStmt)
	if !f.Returns.IsCollection() {
		t.Fatalf("expected collection return type, got %+v", f.Returns)
	}
	if len(f.Returns.Row) != 3 || f.Returns.Row[1].Name != "begin_time" {
		t.Fatalf("bad row fields: %+v", f.Returns.Row)
	}
}

func TestParseScriptMultiple(t *testing.T) {
	stmts, err := ParseScript(`SELECT 1 FROM t; SELECT 2 FROM u;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("expected 2 statements, got %d", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		`SELECT FROM`,
		`SELECT a FROM t WHERE`,
		`CREATE TABLE`,
		`CREATE TABLE t`,
		`INSERT t VALUES (1)`,
		`SELECT a FROM t GROUP a`,
		`VALIDTIME`,
		`NONSEQUENCED SELECT a FROM t`,
		`CREATE FUNCTION f () BEGIN END`,
		`SELECT a FROM t WHERE a = 'unterminated`,
		`SELECT a FROM t WHERE a BETWEEN 1`,
	} {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
	// error positions
	_, err := ParseStatement("SELECT a\nFROM t WHERE ???")
	if err == nil || !strings.Contains(err.Error(), "2:") {
		t.Errorf("expected line-2 position in error, got %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	s, err := ParseStatement(`SELECT a FROM t WHERE b = 1`)
	if err != nil {
		t.Fatal(err)
	}
	c := sqlast.CloneStmt(s)
	// mutate the clone's WHERE
	c.(*sqlast.SelectStmt).Where = nil
	if s.(*sqlast.SelectStmt).Where == nil {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestWalkFindsTables(t *testing.T) {
	s, err := ParseStatement(`SELECT i.title FROM item i, item_author ia WHERE ia.item_id IN (SELECT item_id FROM item_publisher)`)
	if err != nil {
		t.Fatal(err)
	}
	var tables []string
	sqlast.Walk(s, func(n sqlast.Node) bool {
		if bt, ok := n.(*sqlast.BaseTable); ok {
			tables = append(tables, bt.Name)
		}
		return true
	})
	if len(tables) != 3 {
		t.Fatalf("expected 3 base tables, got %v", tables)
	}
}

func TestMapExprsRewritesFunctionCalls(t *testing.T) {
	s, err := ParseStatement(`SELECT f(a) FROM t WHERE g(b) = 1`)
	if err != nil {
		t.Fatal(err)
	}
	sqlast.MapExprs(s, func(e sqlast.Expr) sqlast.Expr {
		if fc, ok := e.(*sqlast.FuncCall); ok {
			fc.Name = "max_" + fc.Name
		}
		return e
	})
	out := s.SQL()
	if !strings.Contains(out, "max_f(") || !strings.Contains(out, "max_g(") {
		t.Fatalf("rewrite failed: %s", out)
	}
}

func TestParseTransactionTime(t *testing.T) {
	for _, src := range []string{
		`CREATE TABLE audit (a INTEGER) AS TRANSACTIONTIME`,
		`ALTER TABLE t ADD TRANSACTIONTIME`,
		`TRANSACTIONTIME SELECT a FROM t`,
		`TRANSACTIONTIME (DATE '2024-01-01', DATE '2024-06-01') SELECT a FROM t`,
		`NONSEQUENCED TRANSACTIONTIME SELECT a, begin_time FROM t`,
	} {
		roundtrip(t, src)
	}
	s := roundtrip(t, `TRANSACTIONTIME SELECT a FROM t`)
	ts, ok := s.(*sqlast.TemporalStmt)
	if !ok || ts.Dim != sqlast.DimTransaction || ts.Mod != sqlast.ModSequenced {
		t.Fatalf("expected sequenced transaction-time statement, got %#v", s)
	}
	ct := roundtrip(t, `CREATE TABLE audit (a INTEGER) AS TRANSACTIONTIME`).(*sqlast.CreateTableStmt)
	if !ct.TransactionTime || ct.ValidTime {
		t.Fatalf("expected transaction-time table flag: %+v", ct)
	}
	al := roundtrip(t, `ALTER TABLE t ADD TRANSACTIONTIME`).(*sqlast.AlterAddValidTime)
	if !al.Transaction {
		t.Fatalf("expected transaction flag on ALTER: %+v", al)
	}
}

func TestParseTransactionTimeErrors(t *testing.T) {
	for _, src := range []string{
		`NONSEQUENCED SELECT a FROM t`,
		`ALTER TABLE t ADD SOMETHING`,
	} {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

// A VALUES list whose rows differ in degree is refused where the odd row
// opens, whichever row is the odd one.
func TestRaggedValuesIsAParseError(t *testing.T) {
	for src, want := range map[string]string{
		"INSERT INTO t VALUES (1, 2), (3)":          "parse error at 1:30: VALUES row 2 has 1 values, row 1 has 2",
		"INSERT INTO t (a) VALUES (1),\n  (2, 3)":   "parse error at 2:3: VALUES row 2 has 2 values, row 1 has 1",
		"SELECT * FROM (VALUES (1), (2), (3, 4)) v": "parse error at 1:33: VALUES row 3 has 2 values, row 1 has 1",
	} {
		if _, err := ParseStatement(src); err == nil || err.Error() != want {
			t.Errorf("%q: got %v, want %s", src, err, want)
		}
	}
}
