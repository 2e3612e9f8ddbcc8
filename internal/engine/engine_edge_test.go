package engine

import (
	"errors"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

// ---------- handler semantics ----------

func TestExitHandlerUnwindsBlock(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION f ()
RETURNS INTEGER
LANGUAGE SQL
BEGIN
  DECLARE r INTEGER DEFAULT 0;
  BEGIN
    DECLARE EXIT HANDLER FOR SQLSTATE '70001' SET r = 99;
    SIGNAL SQLSTATE '70001';
    SET r = 1;
  END;
  RETURN r;
END`)
	res := mustExec(t, db, `SELECT f() FROM item WHERE id = 1`)
	expectRows(t, res, "99") // inner block exited; SET r = 1 skipped
}

func TestContinueHandlerResumes(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION f ()
RETURNS INTEGER
LANGUAGE SQL
BEGIN
  DECLARE r INTEGER DEFAULT 0;
  DECLARE CONTINUE HANDLER FOR SQLSTATE '70001' SET r = r + 10;
  SIGNAL SQLSTATE '70001';
  SET r = r + 1;
  RETURN r;
END`)
	res := mustExec(t, db, `SELECT f() FROM item WHERE id = 1`)
	expectRows(t, res, "11") // handler ran, then execution resumed
}

func TestSQLExceptionHandlerCatchesEngineError(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION f ()
RETURNS INTEGER
LANGUAGE SQL
BEGIN
  DECLARE r INTEGER DEFAULT 0;
  DECLARE CONTINUE HANDLER FOR SQLEXCEPTION SET r = -1;
  SET r = (SELECT no_such_col FROM item WHERE id = 1);
  RETURN r;
END`)
	res := mustExec(t, db, `SELECT f() FROM item WHERE id = 1`)
	expectRows(t, res, "-1")
}

// SQLEXCEPTION is every condition class but successful completion (00),
// warning (01) and no data (02): a handler for it does not take a
// warning, which, with no handler of its own, still ends the routine.
func TestSQLExceptionHandlerSkipsWarnings(t *testing.T) {
	db := newTestDB(t)
	for _, tc := range []struct{ state, handler, want, err string }{
		{state: "01000", handler: "SQLEXCEPTION", err: "SQLSTATE 01000"},
		{state: "01xyz", handler: "SQLEXCEPTION", err: "SQLSTATE 01xyz"},
		{state: "02001", handler: "SQLEXCEPTION", err: "SQLSTATE 02001"},
		{state: "22012", handler: "SQLEXCEPTION", want: "99"},
		{state: "01000", handler: "SQLSTATE '01000'", want: "99"},
	} {
		mustExec(t, db, `CREATE OR REPLACE FUNCTION w () RETURNS INTEGER BEGIN
  DECLARE x INTEGER DEFAULT 0;
  DECLARE CONTINUE HANDLER FOR `+tc.handler+` SET x = 99;
  SIGNAL SQLSTATE '`+tc.state+`';
  RETURN x;
END`)
		res, err := db.ExecScript(`SELECT w()`)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s under a %s handler: %v", tc.state, tc.handler, err)
		case tc.err == "":
			expectRows(t, res, tc.want)
		case err == nil || !strings.Contains(err.Error(), tc.err):
			t.Errorf("%s under a %s handler: got error %v, want one containing %q", tc.state, tc.handler, err, tc.err)
		}
	}
}

func TestUnhandledConditionPropagates(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION f () RETURNS INTEGER LANGUAGE SQL
BEGIN
  SIGNAL SQLSTATE '70002' SET MESSAGE_TEXT = 'kaboom';
END`)
	_, err := db.ExecScript(`SELECT f() FROM item WHERE id = 1`)
	if err == nil || !strings.Contains(err.Error(), "70002") {
		t.Fatalf("expected unhandled SQLSTATE to propagate, got %v", err)
	}
}

func TestFetchWithoutHandlerErrors(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION f () RETURNS INTEGER LANGUAGE SQL
BEGIN
  DECLARE v INTEGER DEFAULT 0;
  DECLARE cur CURSOR FOR SELECT id FROM item WHERE id > 999;
  OPEN cur;
  FETCH cur INTO v;
  RETURN v;
END`)
	if _, err := db.ExecScript(`SELECT f() FROM item WHERE id = 1`); err == nil {
		t.Fatal("FETCH past end without a handler must raise 02000")
	}
}

func TestCaseStatementNoMatchRaises(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION f (x INTEGER) RETURNS INTEGER LANGUAGE SQL
BEGIN
  CASE x WHEN 1 THEN RETURN 10; END CASE;
  RETURN 0;
END`)
	if _, err := db.ExecScript(`SELECT f(5) FROM item WHERE id = 1`); err == nil {
		t.Fatal("CASE statement with no matching WHEN and no ELSE must raise 20000")
	}
	res := mustExec(t, db, `SELECT f(1) FROM item WHERE id = 1`)
	expectRows(t, res, "10")
}

// ---------- error paths ----------

func TestErrorMessages(t *testing.T) {
	db := newTestDB(t)
	for _, tc := range []struct{ src, want string }{
		{`SELECT * FROM missing`, "does not exist"},
		{`SELECT nope FROM item`, "neither a column"},
		{`SELECT i.nope FROM item i`, "does not exist"},
		{`INSERT INTO item VALUES (1)`, "supplies 1 values"},
		{`INSERT INTO item (id, bogus) VALUES (1, 2)`, "no column"},
		{`UPDATE item SET bogus = 1`, "no column"},
		{`SELECT unknown_fn(1) FROM item`, "unknown function"},
		{`SELECT COUNT(*) + price FROM item WHERE SUM(price) > 1`, "aggregate"},
		{`CREATE TABLE item (a INTEGER)`, "already exists"},
		{`DROP TABLE missing`, "does not exist"},
		{`CALL not_there()`, "does not exist"},
		{`SELECT a FROM t1 UNION SELECT a, b FROM t1`, ""}, // t1 missing: any error fine
	} {
		_, err := db.ExecScript(tc.src)
		if err == nil {
			t.Errorf("%q: expected error", tc.src)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %q does not mention %q", tc.src, err, tc.want)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := newTestDB(t)
	_, err := db.ExecScript(`SELECT author_id FROM item_author, author`)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("expected ambiguity error, got %v", err)
	}
}

// ---------- semantics edge cases ----------

func TestSetOpsAllVariants(t *testing.T) {
	db := New()
	mustExec(t, db, `
		CREATE TABLE l (a INTEGER); CREATE TABLE r (a INTEGER);
		INSERT INTO l VALUES (1), (1), (2), (3);
		INSERT INTO r VALUES (1), (2), (2)`)
	res := mustExec(t, db, `SELECT a FROM l UNION ALL SELECT a FROM r`)
	if len(res.Rows) != 7 {
		t.Fatalf("UNION ALL: %d rows", len(res.Rows))
	}
	res = mustExec(t, db, `SELECT a FROM l EXCEPT ALL SELECT a FROM r`)
	// multiset: l={1,1,2,3} minus r={1,2,2} = {1,3}
	if len(res.Rows) != 2 {
		t.Fatalf("EXCEPT ALL: %v", rowsText(res))
	}
	res = mustExec(t, db, `SELECT a FROM l INTERSECT ALL SELECT a FROM r`)
	// multiset intersection {1,2}
	if len(res.Rows) != 2 {
		t.Fatalf("INTERSECT ALL: %v", rowsText(res))
	}
}

func TestOrderByOrdinalAndAlias(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT title AS t, price AS p FROM item ORDER BY 2 DESC`)
	expectRows(t, res, "Temporal Data,30.0", "Go in Action,20.0", "SQL Basics,10.0")
	res = mustExec(t, db, `SELECT title AS t, price AS p FROM item ORDER BY p`)
	expectRows(t, res, "SQL Basics,10.0", "Go in Action,20.0", "Temporal Data,30.0")
	if _, err := db.ExecScript(`SELECT title FROM item ORDER BY 7`); err == nil {
		t.Fatal("out-of-range ordinal must error")
	}
}

func TestOrderByNullsLast(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `INSERT INTO item VALUES (9, 'NoPrice', NULL)`)
	res := mustExec(t, db, `SELECT title FROM item ORDER BY price`)
	if got := rowsText(res); got[len(got)-1] != "NoPrice" {
		t.Fatalf("NULLs must sort last ascending: %v", got)
	}
	res = mustExec(t, db, `SELECT title FROM item ORDER BY price DESC`)
	if got := rowsText(res); got[0] != "NoPrice" {
		t.Fatalf("NULLs must sort first descending: %v", got)
	}
}

func TestGroupByExpression(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT CASE WHEN price < 15 THEN 'lo' ELSE 'hi' END AS band, COUNT(*)
		FROM item GROUP BY CASE WHEN price < 15 THEN 'lo' ELSE 'hi' END
		ORDER BY band`)
	expectRows(t, res, "hi,2", "lo,1")
}

func TestCountDistinct(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT COUNT(DISTINCT author_id), COUNT(author_id) FROM item_author`)
	expectRows(t, res, "3,4")
}

func TestInWithNullSemantics(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE n (a INTEGER); INSERT INTO n VALUES (1), (NULL)`)
	// 2 NOT IN (1, NULL) is UNKNOWN, not TRUE
	res := mustExec(t, db, `SELECT id FROM item WHERE 2 NOT IN (SELECT a FROM n)`)
	expectRows(t, res)
	// 1 IN (1, NULL) is TRUE
	res = mustExec(t, db, `SELECT COUNT(*) FROM item WHERE 1 IN (SELECT a FROM n)`)
	expectRows(t, res, "3")
}

func TestCorrelatedSubqueryInSelectList(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT i.title, (SELECT COUNT(*) FROM item_author ia WHERE ia.item_id = i.id)
		FROM item i ORDER BY i.id`)
	expectRows(t, res, "SQL Basics,1", "Go in Action,2", "Temporal Data,1")
}

func TestNestedDerivedTables(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT y.t FROM (SELECT x.t AS t FROM (SELECT title AS t FROM item WHERE id = 1) AS x) AS y`)
	expectRows(t, res, "SQL Basics")
}

func TestUpdateSelfReferencingSet(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE s (a INTEGER, b INTEGER); INSERT INTO s VALUES (1, 10)`)
	// both SETs must read the pre-update row
	mustExec(t, db, `UPDATE s SET a = b, b = a`)
	res := mustExec(t, db, `SELECT a, b FROM s`)
	expectRows(t, res, "10,1")
}

func TestProcedureInOutParam(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE PROCEDURE dbl (INOUT x INTEGER) LANGUAGE SQL BEGIN SET x = x * 2; END;
CREATE FUNCTION callit (v INTEGER) RETURNS INTEGER LANGUAGE SQL
BEGIN
  DECLARE y INTEGER DEFAULT 0;
  SET y = v;
  CALL dbl(y);
  CALL dbl(y);
  RETURN y;
END`)
	res := mustExec(t, db, `SELECT callit(5) FROM item WHERE id = 1`)
	expectRows(t, res, "20")
}

func TestOutParamRequiresVariable(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE PROCEDURE p (OUT x INTEGER) LANGUAGE SQL BEGIN SET x = 1; END;
CREATE FUNCTION f () RETURNS INTEGER LANGUAGE SQL BEGIN CALL p(42); RETURN 0; END`)
	if _, err := db.ExecScript(`SELECT f() FROM item WHERE id = 1`); err == nil {
		t.Fatal("OUT argument must be a variable")
	}
}

func TestBlockScoping(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION f () RETURNS INTEGER LANGUAGE SQL
BEGIN
  DECLARE x INTEGER DEFAULT 1;
  BEGIN
    DECLARE x INTEGER DEFAULT 2;
    SET x = x + 100;
  END;
  RETURN x;
END`)
	res := mustExec(t, db, `SELECT f() FROM item WHERE id = 1`)
	expectRows(t, res, "1") // inner x shadows, outer untouched
}

func TestVariableVsColumnScoping(t *testing.T) {
	db := newTestDB(t)
	// Columns shadow variables of the same name inside queries.
	mustExec(t, db, `
CREATE FUNCTION f () RETURNS INTEGER LANGUAGE SQL
BEGIN
  DECLARE price INTEGER DEFAULT 12345;
  RETURN (SELECT COUNT(*) FROM item WHERE price > 15);
END`)
	res := mustExec(t, db, `SELECT f() FROM item WHERE id = 1`)
	expectRows(t, res, "2") // column price used, not the variable
}

// ---------- property tests ----------

// LIKE agrees with a regexp-based reference implementation.
func TestLikeMatchesRegexpQuick(t *testing.T) {
	ref := func(s, pat string) bool {
		var re strings.Builder
		re.WriteString("^")
		for _, c := range pat {
			switch c {
			case '%':
				re.WriteString(".*")
			case '_':
				re.WriteString(".")
			default:
				re.WriteString(regexp.QuoteMeta(string(c)))
			}
		}
		re.WriteString("$")
		m, _ := regexp.MatchString(re.String(), s)
		return m
	}
	alphabet := []byte("ab%_")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		genStr := func(n int) string {
			b := make([]byte, rng.Intn(n))
			for i := range b {
				b[i] = alphabet[rng.Intn(2)] // letters only in subject
			}
			return string(b)
		}
		genPat := func(n int) string {
			b := make([]byte, rng.Intn(n))
			for i := range b {
				b[i] = alphabet[rng.Intn(len(alphabet))]
			}
			return string(b)
		}
		s, p := genStr(8), genPat(6)
		return likeMatch(s, p) == ref(s, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// UNION is idempotent: q UNION q has the same rows as SELECT DISTINCT q.
func TestUnionIdempotent(t *testing.T) {
	db := newTestDB(t)
	u := mustExec(t, db, `SELECT author_id FROM item_author UNION SELECT author_id FROM item_author`)
	d := mustExec(t, db, `SELECT DISTINCT author_id FROM item_author`)
	if len(u.Rows) != len(d.Rows) {
		t.Fatalf("UNION self (%d rows) != DISTINCT (%d rows)", len(u.Rows), len(d.Rows))
	}
}

func TestViewOverView(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
		CREATE VIEW v1 AS (SELECT id, price FROM item WHERE price > 5);
		CREATE VIEW v2 AS (SELECT id FROM v1 WHERE price < 25)`)
	res := mustExec(t, db, `SELECT id FROM v2 ORDER BY id`)
	expectRows(t, res, "1", "2")
}

func TestTempTableLifecycleInRoutine(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION f () RETURNS INTEGER LANGUAGE SQL
BEGIN
  DECLARE n INTEGER;
  CREATE TEMPORARY TABLE scratch (x INTEGER);
  INSERT INTO scratch SELECT id FROM item;
  SET n = (SELECT COUNT(*) FROM scratch);
  DROP TABLE scratch;
  RETURN n;
END`)
	// callable repeatedly: the table is dropped each time
	res := mustExec(t, db, `SELECT f(), f() FROM item WHERE id = 1`)
	expectRows(t, res, "3,3")
}

func TestLimitInsideFunctionCursor(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION top_price () RETURNS FLOAT LANGUAGE SQL
BEGIN
  DECLARE p FLOAT DEFAULT 0.0;
  FOR r AS SELECT price FROM item ORDER BY price DESC FETCH FIRST 1 ROWS ONLY DO
    SET p = r.price;
  END FOR;
  RETURN p;
END`)
	res := mustExec(t, db, `SELECT top_price() FROM item WHERE id = 1`)
	expectRows(t, res, "30.0")
}

func TestDisableIndexesPreservesResults(t *testing.T) {
	run := func(tweak func(*DB)) []string {
		db := newTestDB(t)
		tweak(db)
		res := mustExec(t, db, `
			SELECT i.title FROM item i, item_author ia, author a
			WHERE i.id = ia.item_id AND ia.author_id = a.author_id AND a.first_name = 'Ben'
			ORDER BY i.title`)
		return rowsText(res)
	}
	base := run(func(db *DB) {})
	noIdx := run(func(db *DB) { db.DisableIndexes = true })
	if strings.Join(base, ";") != strings.Join(noIdx, ";") {
		t.Fatalf("DisableIndexes changed results: %v vs %v", base, noIdx)
	}
}

func TestInsertCoercion(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE c (d DATE, f FLOAT, i INTEGER, s VARCHAR(10))`)
	// string->date, int->float, float->int, int->string coercions
	mustExec(t, db, `INSERT INTO c VALUES ('2010-05-06', 3, 2.9, 42)`)
	res := mustExec(t, db, `SELECT d, f, i, s FROM c`)
	expectRows(t, res, "2010-05-06,3.0,2,42")
	if _, err := db.ExecScript(`INSERT INTO c VALUES ('not-a-date', 1, 1, 'x')`); err == nil {
		t.Fatal("expected date coercion error")
	}
}

func TestDMLOnViewRejected(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE VIEW v AS (SELECT id FROM item)`)
	for _, src := range []string{
		`INSERT INTO v VALUES (9)`,
		`UPDATE v SET id = 9`,
		`DELETE FROM v`,
	} {
		if _, err := db.ExecScript(src); err == nil {
			t.Errorf("%q: modifying a view must fail", src)
		}
	}
}

func TestEvalConstExpr(t *testing.T) {
	db := New()
	db.Now = 100
	v, err := db.EvalConstExpr(mustParseExpr(t, `CURRENT_DATE + 7`))
	if err != nil || v.Int() != 107 {
		t.Fatalf("const expr: %v %v", v, err)
	}
	if _, err := db.EvalConstExpr(mustParseExpr(t, `some_column`)); err == nil {
		t.Fatal("column ref must fail without scope")
	}
}

func TestZeroArgProcedure(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE PROCEDURE bump ()
MODIFIES SQL DATA
LANGUAGE SQL
BEGIN
  UPDATE item SET price = price + 1;
END`)
	mustExec(t, db, `CALL bump()`)
	res := mustExec(t, db, `SELECT price FROM item WHERE id = 1`)
	expectRows(t, res, "11.0")
}

func TestFunctionShadowsBuiltin(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE FUNCTION upper (s VARCHAR(10)) RETURNS VARCHAR(20) LANGUAGE SQL
BEGIN RETURN s || '!'; END`)
	res := mustExec(t, db, `SELECT upper('hi') FROM item WHERE id = 1`)
	expectRows(t, res, "hi!")
}

func TestLogWritesCounted(t *testing.T) {
	db := newTestDB(t)
	db.Stats.Reset()
	mustExec(t, db, `INSERT INTO item VALUES (50, 'A', 1.0), (51, 'B', 2.0)`)
	if db.Stats.LogWrites != 2 {
		t.Fatalf("log writes = %d, want 2", db.Stats.LogWrites)
	}
}

// Runaway recursion reports the nesting limit once, naming the routine
// and the depth — not once per unwound frame — while ordinary errors
// keep their routine frames and stay unwrappable.
func TestRecursionLimitReportedOnce(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE one (x INTEGER); INSERT INTO one VALUES (1);
		CREATE FUNCTION f (x INTEGER) RETURNS INTEGER BEGIN RETURN f(x + 1); END;
		CREATE PROCEDURE p (IN x INTEGER) BEGIN CALL p(x + 1); END;
		CREATE FUNCTION g (x INTEGER) RETURNS INTEGER BEGIN RETURN 1 / (x - x); END;
		CREATE FUNCTION h (x INTEGER) RETURNS INTEGER BEGIN RETURN g(x); END;`)

	_, err := db.ExecScript(`SELECT f(1) FROM one`)
	if err == nil || err.Error() != "routine call nesting exceeds 64 at f" {
		t.Fatalf("recursive function: %v", err)
	}
	_, err = db.ExecScript(`CALL p(1)`)
	if err == nil || err.Error() != "routine call nesting exceeds 64 at p" {
		t.Fatalf("recursive procedure: %v", err)
	}
	var ne *nestingErr
	if !errors.As(err, &ne) {
		t.Fatalf("nesting error lost its type: %#v", err)
	}

	_, err = db.ExecScript(`SELECT h(1) FROM one`)
	if err == nil || !strings.HasPrefix(err.Error(), "in function h: in function g: ") {
		t.Fatalf("ordinary errors keep one frame per routine: %v", err)
	}
}

// ---------- call dispatch ----------

// A call site binds a library function's name, in any case, to the one
// row types.Builtins keeps for it: the engine has no list of its own.
func TestBuiltinsMatchTheArityTable(t *testing.T) {
	ctx := &execCtx{db: New()}
	for name, row := range types.Builtins {
		s := (*binder)(nil).call(&sqlast.FuncCall{Name: strings.ToLower(name)}, false)
		s.eval(ctx) // a wrong count raises once the site is bound
		if c := s.bound.Load(); c == nil || c.fn != nil || c.bi != row {
			t.Errorf("%s binds as %+v, want its row %+v", name, c, row)
		}
	}
}

// A builtin call with up to four arguments allocates nothing: the site
// keeps what its name resolved to, and the arguments stay in a stack
// array.
func TestBuiltinCallAllocatesNothing(t *testing.T) {
	db := New()
	res := mustExec(t, db, `SELECT LAST_INSTANCE(DATE '2010-01-01', DATE '2010-02-01'), MOD(7, 4), COALESCE(NULL, 1, 2, 3, 5) FROM (VALUES (1)) AS one`)
	expectRows(t, res, "2010-02-01,3,1")
	calls := []*sqlast.FuncCall{
		{Name: "LAST_INSTANCE", Args: []sqlast.Expr{&sqlast.Literal{Val: types.NewDate(1)}, &sqlast.Literal{Val: types.NewDate(2)}}},
		{Name: "FIRST_INSTANCE", Args: []sqlast.Expr{&sqlast.Literal{Val: types.NewDate(1)}, &sqlast.Literal{Val: types.NewDate(2)}}},
		{Name: "MOD", Args: []sqlast.Expr{&sqlast.Literal{Val: types.NewInt(7)}, &sqlast.Literal{Val: types.NewInt(4)}}},
		{Name: "CURRENT_DATE"},
	}
	ctx := &execCtx{db: db}
	var sites []evalFn
	for _, fc := range calls {
		sites = append(sites, db.rootExpr(ctx, fc))
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, f := range sites {
			if _, err := f(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("builtin calls allocate %.0f objects, want 0", n)
	}
}

// A constant expression that names something reaches nothing, also when
// many are evaluated at once: the names they share are never written.
func TestConstantExpressionNamesReachNothing(t *testing.T) {
	e := &sqlast.BinaryExpr{Op: "+", L: &sqlast.ColumnRef{Column: "x"}, R: &sqlast.Literal{Val: types.NewInt(1)}}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := (*DB)(nil).EvalConstExpr(e); errText(err) != "name x is neither a column in scope nor a variable" {
				t.Errorf("EvalConstExpr: %v", err)
			}
		}()
	}
	wg.Wait()
}
