package check

import (
	"fmt"
	"strings"
	"testing"

	"taupsm/internal/core"
	"taupsm/internal/engine"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/types"
)

// testCatalog builds a shadow catalog from a schema script.
func testCatalog(t *testing.T, schema string) *ScriptCatalog {
	t.Helper()
	cat := NewScriptCatalog(nil)
	if schema == "" {
		return cat
	}
	stmts, err := sqlparser.ParseScript(schema)
	if err != nil {
		t.Fatalf("schema parse: %v", err)
	}
	for _, s := range stmts {
		cat.Apply(s)
	}
	return cat
}

const testSchema = `
CREATE TABLE item (item_id CHAR(10), title VARCHAR(100), price FLOAT, subject VARCHAR(30)) AS VALIDTIME;
CREATE TABLE author (author_id CHAR(10), name VARCHAR(60)) AS VALIDTIME;
CREATE TABLE item_author (item_id CHAR(10), author_id CHAR(10));
CREATE TABLE audit_log (op VARCHAR(10), who VARCHAR(20)) AS TRANSACTIONTIME;
CREATE FUNCTION item_price (iid CHAR(10)) RETURNS FLOAT READS SQL DATA
BEGIN
  RETURN (SELECT price FROM item WHERE item_id = iid);
END;
CREATE PROCEDURE log_op (IN op VARCHAR(10), OUT n INTEGER)
BEGIN
  SET n = 1;
END;
CREATE FUNCTION shift_date (d DATE, n INTEGER) RETURNS DATE
BEGIN
  RETURN d + n;
END;
CREATE FUNCTION mutual_a (n INTEGER) RETURNS INTEGER
BEGIN
  RETURN mutual_b(n - 1);
END;
`

func checkOne(t *testing.T, cat Catalog, src string) []Diagnostic {
	t.Helper()
	stmt, err := sqlparser.ParseStatement(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return Check(cat, stmt)
}

// find returns the first diagnostic with the given code.
func find(diags []Diagnostic, code string) (Diagnostic, bool) {
	for _, d := range diags {
		if d.Code == code {
			return d, true
		}
	}
	return Diagnostic{}, false
}

func TestDiagnosticCodes(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		code     string
		sev      Severity
		line     int // 1-based line of the expected diagnostic within src
		col      int
		contains string
	}{
		{
			name: "TAU001 undeclared variable in SET",
			src: `CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  SET x = 1;
  RETURN 0;
END`,
			code: CodeUndeclaredVar, sev: Error, line: 3, col: 3,
			contains: "variable x is not declared",
		},
		{
			name: "TAU001 bare name neither column nor variable",
			src: `CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  RETURN (SELECT price FROM item WHERE item_id = nosuch);
END`,
			code: CodeUndeclaredVar, sev: Error, line: 3, col: 50,
			contains: "name nosuch is neither a column in scope nor a variable",
		},
		{
			name: "TAU002 undeclared cursor",
			src: `CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  OPEN c;
  RETURN 0;
END`,
			code: CodeUndeclaredCursor, sev: Error, line: 3, col: 3,
			contains: "cursor c is not declared",
		},
		{
			name: "TAU003 LEAVE unknown label",
			src: `CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  LEAVE nowhere;
  RETURN 0;
END`,
			code: CodeUnknownLabel, sev: Error, line: 3, col: 3,
			contains: "no enclosing statement labeled nowhere",
		},
		{
			name: "TAU003 ITERATE of compound label",
			src: `CREATE FUNCTION f () RETURNS INTEGER
blk: BEGIN
  ITERATE blk;
  RETURN 0;
END`,
			code: CodeUnknownLabel, sev: Error, line: 3, col: 3,
			contains: "no enclosing loop labeled blk",
		},
		{
			name: "TAU004 unknown table top-level",
			src:  `SELECT * FROM nosuch_table`,
			code: CodeUnknownTable, sev: Error, line: 1, col: 15,
			contains: "table or view nosuch_table does not exist",
		},
		{
			name: "TAU005 unknown qualified column top-level",
			src:  `SELECT i.nosuch FROM item i`,
			code: CodeUnknownColumn, sev: Error, line: 1, col: 8,
			contains: "column i.nosuch does not exist",
		},
		{
			name: "TAU006 unknown function",
			src: `CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  RETURN no_such_fn(1);
END`,
			code: CodeUnknownRoutine, sev: Error, line: 3, col: 10,
			contains: "unknown function no_such_fn",
		},
		{
			name: "TAU006 unknown procedure",
			src: `CREATE PROCEDURE p ()
BEGIN
  CALL no_such_proc();
END`,
			code: CodeUnknownRoutine, sev: Error, line: 3, col: 3,
			contains: "procedure no_such_proc does not exist",
		},
		{
			name: "TAU007 CALL of a function",
			src: `CREATE PROCEDURE p ()
BEGIN
  CALL item_price('i1');
END`,
			code: CodeKindMismatch, sev: Error, line: 3, col: 3,
			contains: "item_price is a function; invoke it in an expression",
		},
		{
			name: "TAU007 procedure invoked as function",
			src: `CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  RETURN log_op('x');
END`,
			code: CodeKindMismatch, sev: Error, line: 3, col: 10,
			contains: "log_op is a procedure",
		},
		{
			name: "TAU008 direct recursion",
			src: `CREATE FUNCTION f (n INTEGER) RETURNS INTEGER
BEGIN
  RETURN f(n);
END`,
			code: CodeRecursion, sev: Warning, line: 1, col: 8,
			contains: "routine f is directly or mutually recursive",
		},
		{
			name: "TAU008 mutual recursion",
			src: `CREATE FUNCTION mutual_b (n INTEGER) RETURNS INTEGER
BEGIN
  RETURN mutual_a(n);
END`,
			code: CodeRecursion, sev: Warning, line: 1, col: 8,
			contains: "routine mutual_b is directly or mutually recursive",
		},
		{
			name: "TAU009 stored function arity",
			src: `CREATE FUNCTION f () RETURNS FLOAT
BEGIN
  RETURN item_price('a', 'b');
END`,
			code: CodeBadArity, sev: Error, line: 3, col: 10,
			contains: "function item_price expects 1 arguments, got 2",
		},
		{
			name: "TAU009 builtin arity",
			src:  `SELECT MOD(price) FROM item`,
			code: CodeBadArity, sev: Error, line: 1, col: 8,
			contains: "MOD expects 2 argument(s), got 1",
		},
		{
			name: "TAU009 OUT argument must be a variable",
			src: `CREATE PROCEDURE p ()
BEGIN
  CALL log_op('x', 42);
END`,
			code: CodeBadArity, sev: Error, line: 3, col: 3,
			contains: "argument 2 of log_op must be a variable (parameter n is OUT)",
		},
		{
			name: "TAU010 declared but never used",
			src: `CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  DECLARE unused INTEGER;
  RETURN 0;
END`,
			code: CodeDeadStore, sev: Warning, line: 3, col: 3,
			contains: "variable unused is declared but never used",
		},
		{
			name: "TAU010 assigned but never read",
			src: `CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  DECLARE v INTEGER;
  SET v = 3;
  RETURN 0;
END`,
			code: CodeDeadStore, sev: Warning, line: 3, col: 3,
			contains: "value assigned to v is never read",
		},
		{
			name: "TAU011 unreachable after RETURN",
			src: `CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  RETURN 1;
  SET x = 2;
END`,
			code: CodeUnreachable, sev: Warning, line: 4, col: 3,
			contains: "unreachable statement",
		},
		{
			name: "TAU012 duplicate declaration",
			src: `CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  DECLARE v INTEGER;
  DECLARE v FLOAT;
  RETURN v;
END`,
			code: CodeDuplicate, sev: Warning, line: 4, col: 3,
			contains: "duplicate declaration of v",
		},
		{
			name: "TAU013 function may end without RETURN",
			src: `CREATE FUNCTION f (n INTEGER) RETURNS INTEGER
BEGIN
  IF n > 0 THEN
    RETURN 1;
  END IF;
END`,
			code: CodeMissingRet, sev: Warning, line: 1, col: 8,
			contains: "function f may end without RETURN",
		},
		{
			name: "TAU020 modifier reaches no temporal table",
			src:  `VALIDTIME SELECT * FROM item_author`,
			code: CodeNoTemporalTable, sev: Warning, line: 1, col: 1,
			contains: "no VALIDTIME table is reachable",
		},
		{
			name: "TAU021 mixed dimensions",
			src:  `VALIDTIME SELECT i.title FROM item i, audit_log a`,
			code: CodeMixedDimensions, sev: Warning, line: 1, col: 1,
			contains: "filtered to the current TRANSACTIONTIME context",
		},
		{
			name: "TAU022 explicit period column write",
			src:  `UPDATE item SET end_time = DATE '2001-01-01' WHERE item_id = 'i1'`,
			code: CodeTimeColumnWrite, sev: Warning, line: 1, col: 17,
			contains: "explicit write to system-maintained period column item.end_time",
		},
		{
			name: "TAU031 manual DML on transaction-time table",
			src:  `NONSEQUENCED TRANSACTIONTIME DELETE FROM audit_log`,
			code: CodeManualTransTime, sev: Error, line: 1, col: 30,
			contains: "only current modifications of table audit_log are allowed",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat := testCatalog(t, testSchema)
			diags := checkOne(t, cat, tc.src)
			d, ok := find(diags, tc.code)
			if !ok {
				t.Fatalf("no %s diagnostic; got %v", tc.code, diags)
			}
			if d.Severity != tc.sev {
				t.Errorf("severity = %v, want %v", d.Severity, tc.sev)
			}
			if d.Pos.Line != tc.line || d.Pos.Col != tc.col {
				t.Errorf("pos = %d:%d, want %d:%d (%s)", d.Pos.Line, d.Pos.Col, tc.line, tc.col, d.Message)
			}
			if !strings.Contains(d.Message, tc.contains) {
				t.Errorf("message %q does not contain %q", d.Message, tc.contains)
			}
		})
	}
}

// TestTypedDiagnosticCodes is the golden corpus for the typed-IR
// block (TAU04x) and the constant-folding block (TAU05x): one exact
// position, severity, and message fragment per defect class.
func TestTypedDiagnosticCodes(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		code     string
		sev      Severity
		line     int
		col      int
		contains string
	}{
		{
			name: "TAU040 DATE plus DATE",
			src:  `SELECT begin_time + end_time FROM item`,
			code: CodeBadArith, sev: Error, line: 1, col: 8,
			contains: "cannot apply + to DATE and DATE",
		},
		{
			name: "TAU040 string arithmetic",
			src:  `SELECT title * 2 FROM item`,
			code: CodeBadArith, sev: Error, line: 1, col: 8,
			contains: "cannot apply * to VARCHAR and INTEGER",
		},
		{
			name: "TAU040 negated string",
			src:  `SELECT -title FROM item`,
			code: CodeBadArith, sev: Error, line: 1, col: 9,
			contains: "cannot negate a VARCHAR value",
		},
		{
			name: "TAU041 string compared to number",
			src:  `SELECT item_id FROM item WHERE title = 1`,
			code: CodeIncomparable, sev: Warning, line: 1, col: 32,
			contains: "comparison of VARCHAR and INTEGER is always UNKNOWN",
		},
		{
			name: "TAU042 string condition",
			src:  `SELECT item_id FROM item WHERE 'open'`,
			code: CodeNonBoolCond, sev: Warning, line: 1, col: 1,
			contains: "condition has type VARCHAR and can never be TRUE",
		},
		{
			name: "TAU043 DATE assigned to INTEGER",
			src: `CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  DECLARE n INTEGER;
  SET n = CURRENT_DATE;
  RETURN n;
END`,
			code: CodeAssignMismatch, sev: Warning, line: 4, col: 3,
			contains: "DATE value where INTEGER is expected",
		},
		{
			name: "TAU043 malformed DATE default",
			src: `CREATE FUNCTION f () RETURNS DATE
BEGIN
  DECLARE d DATE DEFAULT 'not-a-date';
  RETURN d;
END`,
			code: CodeAssignMismatch, sev: Error, line: 3, col: 3,
			contains: `DEFAULT for d: invalid DATE literal "not-a-date" (want YYYY-MM-DD)`,
		},
		{
			name: "TAU043 FLOAT default of a DATE",
			src: `CREATE FUNCTION f () RETURNS DATE
BEGIN
  DECLARE d DATE DEFAULT 1.5;
  RETURN d;
END`,
			code: CodeAssignMismatch, sev: Error, line: 3, col: 3,
			contains: "DEFAULT for d: cannot cast FLOAT to DATE",
		},
		{
			name: "TAU044 RETURN of the wrong type",
			src: `CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  RETURN CURRENT_DATE;
END`,
			code: CodeReturnMismatch, sev: Warning, line: 3, col: 3,
			contains: "RETURN: DATE value where INTEGER is expected",
		},
		{
			name: "TAU045 argument of the wrong type",
			src:  `SELECT shift_date(DATE '2010-01-01', 'x') FROM item`,
			code: CodeArgMismatch, sev: Warning, line: 1, col: 8,
			contains: "argument 2 of shift_date (parameter n): VARCHAR value where INTEGER is expected",
		},
		{
			name: "TAU045 malformed DATE argument",
			src:  `SELECT shift_date('zzz', 1) FROM item`,
			code: CodeArgMismatch, sev: Error, line: 1, col: 8,
			contains: `argument 1 of shift_date (parameter d): invalid DATE literal "zzz" (want YYYY-MM-DD)`,
		},
		{
			name: "TAU046 INSERT arity",
			src:  `INSERT INTO item_author VALUES ('a1')`,
			code: CodeInsertArity, sev: Error, line: 1, col: 1,
			contains: "INSERT into item_author: 1 values for 2 columns",
		},
		{
			name: "TAU047 UPDATE value of the wrong type",
			src:  `UPDATE item SET price = 'cheap' WHERE item_id = 'i1'`,
			code: CodeInsertMismatch, sev: Warning, line: 1, col: 17,
			contains: "UPDATE item SET price: VARCHAR value where FLOAT is expected",
		},
		{
			name: "TAU047 a FLOAT into a DATE column",
			src:  `NONSEQUENCED VALIDTIME UPDATE item SET begin_time = price WHERE item_id = 'i1'`,
			code: CodeInsertMismatch, sev: Error, line: 1, col: 40,
			contains: "UPDATE item SET begin_time: cannot cast FLOAT to DATE",
		},
		{
			name: "TAU048 INSERT names a column twice",
			src: `CREATE PROCEDURE p ()
BEGIN
  INSERT INTO item (item_id, title, item_id) VALUES ('i1', 't', 'i2');
END`,
			code: CodeDupTarget, sev: Error, line: 3, col: 3,
			contains: "column item_id of item is assigned twice",
		},
		{
			name: "TAU048 UPDATE sets a column twice",
			src:  `UPDATE item SET price = 5, title = 'x', PRICE = 6`,
			code: CodeDupTarget, sev: Error, line: 1, col: 41,
			contains: "column PRICE of item is assigned twice",
		},
		{
			name: "TAU050 constant IF condition",
			src: `CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  IF 1 > 2 THEN
    RETURN 1;
  END IF;
  RETURN 0;
END`,
			code: CodeConstCond, sev: Warning, line: 3, col: 3,
			contains: "IF condition is always FALSE; the THEN branch never runs",
		},
		{
			name: "TAU051 dead branch statement",
			src: `CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  IF 1 > 2 THEN
    RETURN 1;
  END IF;
  RETURN 0;
END`,
			code: CodeFoldedDead, sev: Warning, line: 4, col: 5,
			contains: "statement is unreachable: the guarding condition is constant",
		},
		{
			name: "TAU052 empty applicability period",
			src:  `VALIDTIME (DATE '2011-01-01', DATE '2010-01-01') SELECT title FROM item`,
			code: CodeEmptyPeriod, sev: Warning, line: 1, col: 1,
			contains: "is empty; the statement has no effect",
		},
		{
			name: "TAU053 constant division by zero",
			src:  `SELECT price / (3 - 3) FROM item`,
			code: CodeConstDivZero, sev: Error, line: 1, col: 8,
			contains: "division by zero",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat := testCatalog(t, testSchema)
			diags := checkOne(t, cat, tc.src)
			d, ok := find(diags, tc.code)
			if !ok {
				t.Fatalf("no %s diagnostic; got %v", tc.code, diags)
			}
			if d.Severity != tc.sev {
				t.Errorf("severity = %v, want %v", d.Severity, tc.sev)
			}
			if d.Pos.Line != tc.line || d.Pos.Col != tc.col {
				t.Errorf("pos = %d:%d, want %d:%d (%s)", d.Pos.Line, d.Pos.Col, tc.line, tc.col, d.Message)
			}
			if !strings.Contains(d.Message, tc.contains) {
				t.Errorf("message %q does not contain %q", d.Message, tc.contains)
			}
		})
	}
}

// TestCleanTypedExpressionsStaySilent pins the conservative side of
// the typed IR: unknown kinds and engine-accepted coercions must not
// produce TAU04x/TAU05x noise.
func TestCleanTypedExpressionsStaySilent(t *testing.T) {
	for _, src := range []string{
		`SELECT price * 2 FROM item`,                        // numeric arithmetic
		`SELECT begin_time + 30 FROM item`,                  // date + int is date shifting
		`SELECT begin_time - end_time FROM item`,            // date - date is a day count
		`SELECT item_id FROM item WHERE price > 1`,          // comparable kinds
		`SELECT item_id FROM item WHERE item_id = 'i1'`,     // string = string
		`SELECT shift_date(DATE '2010-01-01', 7) FROM item`, // well-typed call
		`INSERT INTO item_author VALUES ('i1', 'a1')`,       // exact arity
		`UPDATE item SET price = 2 WHERE item_id = 'i1'`,    // int into float target
		`SELECT price / 2 FROM item`,                        // nonzero constant divisor
	} {
		cat := testCatalog(t, testSchema)
		diags := checkOne(t, cat, src)
		for _, d := range diags {
			if strings.HasPrefix(d.Code, "TAU04") || strings.HasPrefix(d.Code, "TAU05") {
				t.Errorf("%s: unexpected %s: %s", src, d.Code, d.Message)
			}
		}
	}
}

// TAU040 is the engine's own refusal: over every operator and every
// pairing of declared kinds it fires exactly when types.Arith refuses
// values of those kinds. DATE + FLOAT, which the engine runs, is a
// DATE, so returning it from a DATE function raises nothing.
func TestBadArithIsTheEngines(t *testing.T) {
	samples := map[string][]types.Value{
		"INTEGER":     {types.NewInt(7), types.NewInt(-3)},
		"FLOAT":       {types.NewFloat(1.5), types.NewFloat(-0.25)},
		"VARCHAR(10)": {types.NewString("abc"), types.NewString("12")},
		"BOOLEAN":     {types.NewBool(true)},
		"DATE":        {types.NewDate(14610), types.NewDate(0)},
	}
	typeNames := []string{"INTEGER", "FLOAT", "VARCHAR(10)", "BOOLEAN", "DATE"}
	cat := testCatalog(t, testSchema)
	for _, op := range []string{"+", "-", "*", "/"} {
		for _, lt := range typeNames {
			for _, rt := range typeNames {
				var refused, accepted bool
				for _, a := range samples[lt] {
					for _, b := range samples[rt] {
						if _, err := types.Arith(op, a, b); err != nil {
							refused = true
						} else {
							accepted = true
						}
					}
				}
				if refused == accepted {
					t.Fatalf("%s %s %s: the engine's verdict depends on the values", lt, op, rt)
				}
				src := fmt.Sprintf("CREATE FUNCTION f (a %s, b %s) RETURNS VARCHAR(100)\nBEGIN\n  RETURN a %s b;\nEND", lt, rt, op)
				d, fired := find(checkOne(t, cat, src), CodeBadArith)
				if fired != refused {
					t.Errorf("%s %s %s: TAU040 %v (%s), engine refuses %v", lt, op, rt, fired, d.Message, refused)
				}
			}
		}
	}
	if d, _ := find(checkOne(t, cat, `SELECT title + 1 FROM item`), CodeBadArith); !strings.Contains(d.Message, "(use || for concatenation)") {
		t.Errorf("string arithmetic lost its hint: %q", d.Message)
	}
	diags := checkOne(t, cat, "CREATE FUNCTION f (d DATE) RETURNS DATE\nBEGIN\n  RETURN d + 1.5;\nEND")
	if len(diags) != 0 {
		t.Errorf("DATE + FLOAT is a DATE the engine returns, got %v", diags)
	}
}

func TestUseBeforeDeclareWarns(t *testing.T) {
	cat := testCatalog(t, testSchema)
	diags := checkOne(t, cat, `CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  SET v = 1;
  DECLARE v INTEGER;
  RETURN v;
END`)
	if _, ok := find(diags, CodeUseBeforeDec); !ok {
		t.Fatalf("no %s diagnostic; got %v", CodeUseBeforeDec, diags)
	}
	if errs := Errors(diags); len(errs) != 0 {
		t.Fatalf("use-before-declare must not be an error (declarations are hoisted): %v", errs)
	}
}

func TestPerstFallbackPrediction(t *testing.T) {
	cat := testCatalog(t, testSchema)
	// q17b's shape: a FETCH of a temporal cursor inside a FOR loop
	// over a temporal query.
	diags := checkOne(t, cat, `CREATE FUNCTION mixed_scan () RETURNS INTEGER
BEGIN
  DECLARE iid CHAR(10);
  DECLARE n INTEGER DEFAULT 0;
  DECLARE all_items CURSOR FOR SELECT item_id FROM item;
  OPEN all_items;
  FOR r AS SELECT author_id FROM author DO
    FETCH all_items INTO iid;
    SET n = n + 1;
  END FOR;
  CLOSE all_items;
  RETURN n;
END`)
	d, ok := find(diags, CodePerstFallback)
	if !ok {
		t.Fatalf("no %s diagnostic; got %v", CodePerstFallback, diags)
	}
	if !strings.Contains(d.Message, "non-nested FETCH of cursor all_items") {
		t.Errorf("unexpected message %q", d.Message)
	}
	if len(Errors(diags)) != 0 {
		t.Errorf("fallback prediction must be warning-only: %v", Errors(diags))
	}
}

func TestCleanRoutineHasNoDiagnostics(t *testing.T) {
	cat := testCatalog(t, testSchema)
	diags := checkOne(t, cat, `CREATE FUNCTION total (iid CHAR(10)) RETURNS FLOAT
BEGIN
  DECLARE p FLOAT;
  SET p = (SELECT price FROM item WHERE item_id = iid);
  RETURN p * 1.1;
END`)
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics, got %v", diags)
	}
}

// A temporary table a routine creates is bound in the block's scope
// from its CREATE on, as the engine binds it in the routine's frame:
// with its columns, and until the routine drops it.
func TestRoutineTemporaryTableIsBound(t *testing.T) {
	cat := testCatalog(t, "CREATE TABLE q (a INTEGER);")
	diags := checkOne(t, cat, `CREATE PROCEDURE p ()
BEGIN
  CREATE TEMPORARY TABLE tmp (z INTEGER);
  INSERT INTO tmp SELECT a FROM q;
  CREATE TEMPORARY TABLE copy AS (SELECT z + 1 FROM tmp) WITH DATA;
  UPDATE copy SET col1 = 0 WHERE col1 > 1;
  DROP TABLE tmp;
  DROP TABLE copy;
END`)
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics, got %v", diags)
	}
	diags = checkOne(t, cat, `CREATE PROCEDURE p ()
BEGIN
  CREATE TEMPORARY TABLE tmp (z INTEGER);
  DELETE FROM tmp WHERE tmp.y = 1;
  DROP TABLE tmp;
  INSERT INTO tmp VALUES (1);
END`)
	if d, ok := find(diags, CodeUnknownColumn); !ok || !strings.Contains(d.Message, "tmp.y") {
		t.Errorf("want tmp.y reported unknown, got %v", diags)
	}
	if d, ok := find(diags, CodeUnknownTable); !ok || d.Pos.Line != 6 {
		t.Errorf("want tmp unknown after its DROP (line 6), got %v", diags)
	}
}

// A scalar and a collection of one name are two bindings, in one block
// or in two, as the engine binds them: an expression reads the scalar,
// INSERT INTO TABLE and FROM the collection. Each routine runs in the
// engine, returning 2, and the checker finds nothing in it.
func TestScalarBesideCollectionIsBound(t *testing.T) {
	for _, src := range []string{`CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  DECLARE t INTEGER DEFAULT 1;
  DECLARE t ROW(a INTEGER) ARRAY;
  INSERT INTO TABLE t VALUES (t), (t + 1);
  RETURN (SELECT COUNT(*) FROM t);
END`, `CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  DECLARE t ROW(a INTEGER) ARRAY;
  BEGIN
    DECLARE t INTEGER DEFAULT 1;
    INSERT INTO TABLE t VALUES (t), (t + 1);
  END;
  RETURN (SELECT COUNT(*) FROM t);
END`} {
		if diags := checkOne(t, NewScriptCatalog(nil), src); len(diags) != 0 {
			t.Errorf("expected no diagnostics, got %v\n%s", diags, src)
		}
		db := engine.New()
		res, err := db.ExecScript(src + ";\nSELECT f();")
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
			t.Errorf("the engine runs it: %v, %v\n%s", res, err, src)
		}
	}
}

// A FROM element whose columns are not named statically keeps its
// alias: a qualified name reaching it is not checked against an outer
// element of that alias.
func TestOpaqueElementKeepsItsAlias(t *testing.T) {
	diags := checkOne(t, testCatalog(t, "CREATE TABLE k (a INTEGER);"),
		`SELECT t.a FROM k t WHERE EXISTS (SELECT 1 FROM TABLE(nofn()) AS t WHERE t.zzz = 1)`)
	if d, ok := find(diags, CodeUnknownColumn); ok {
		t.Errorf("t.zzz reaches the opaque t, got %v", d)
	}
}

func TestSelfRecursionResolvesAtCreate(t *testing.T) {
	// Self-call must not be TAU006: the routine being defined is in
	// scope for its own body.
	cat := testCatalog(t, testSchema)
	diags := checkOne(t, cat, `CREATE FUNCTION fact (n INTEGER) RETURNS INTEGER
BEGIN
  IF n <= 1 THEN
    RETURN 1;
  END IF;
  RETURN n * fact(n - 1);
END`)
	if _, ok := find(diags, CodeUnknownRoutine); ok {
		t.Fatalf("self-recursion reported as unknown routine: %v", diags)
	}
	if _, ok := find(diags, CodeRecursion); !ok {
		t.Fatalf("expected %s for self-recursion, got %v", CodeRecursion, diags)
	}
}

// The effect summary is the one purity analysis: it decides the
// engine's function-result memo (SummarizeRoutine) and the write rows of
// the stratum's EXPLAIN (Summarize with the translation's clones as
// locals).
func TestSharedWriteFree(t *testing.T) {
	cat := testCatalog(t, testSchema+`
CREATE FUNCTION reader (iid CHAR(10)) RETURNS FLOAT
BEGIN
  RETURN item_price(iid);
END;
CREATE PROCEDURE writer ()
BEGIN
  DELETE FROM item_author;
END;
CREATE FUNCTION calls_writer () RETURNS INTEGER
BEGIN
  CALL writer();
  RETURN 0;
END;
CREATE FUNCTION collector () RETURNS INTEGER
BEGIN
  DECLARE acc ROW(aid CHAR(10)) ARRAY;
  INSERT INTO TABLE acc SELECT author_id FROM item_author;
  RETURN 0;
END;
CREATE FUNCTION stager () RETURNS INTEGER
BEGIN
  CREATE TEMPORARY TABLE stage (aid CHAR(10));
  INSERT INTO stage SELECT author_id FROM item_author;
  DROP TABLE stage;
  RETURN 0;
END;
CREATE FUNCTION rec (n INTEGER) RETURNS INTEGER
BEGIN
  RETURN rec(n - 1);
END;
CREATE FUNCTION rec_writer (n INTEGER) RETURNS INTEGER
BEGIN
  IF n = 0 THEN
    CALL writer();
  END IF;
  RETURN rec_writer(n - 1);
END;
CREATE FUNCTION ping (n INTEGER) RETURNS INTEGER
BEGIN
  RETURN pong(n - 1);
END;
CREATE FUNCTION pong (n INTEGER) RETURNS INTEGER
BEGIN
  CALL writer();
  RETURN ping(n);
END;
`)
	for name, want := range map[string]bool{
		"item_price":   true,
		"reader":       true,
		"writer":       false,
		"calls_writer": false, // transitively, through a non-temporal table
		"collector":    true,  // collection-variable writes are private
		"stager":       true,  // so are a routine's own temporary tables
		"rec":          true,  // recursion is a union over the call graph,
		"rec_writer":   false, // which still finds the write
		"ping":         false, // also through mutual recursion
		"no_such":      true,  // nothing known to write; the name is a dependency
	} {
		sum := core.SummarizeRoutine(cat, name)
		if got := sum.SharedWriteFree(); got != want {
			t.Errorf("core.SummarizeRoutine(%s).SharedWriteFree() = %v, want %v", name, got, want)
		}
		if !sum.Routines[name] {
			t.Errorf("core.SummarizeRoutine(%s) does not depend on the routine itself", name)
		}
	}
	if sum := core.SummarizeRoutine(cat, "calls_writer"); !sum.Routines["writer"] || !sum.Tables["item_author"] {
		t.Errorf("calls_writer's dependency set misses its callee or the table it writes: %+v", sum)
	}

	// Summarize resolves callees through locals first, then the catalog.
	readerBody := cat.Function("reader").Body
	if !core.Summarize(cat, nil, readerBody).SharedWriteFree() {
		t.Errorf("reader's body is write-free")
	}
	locals := map[string]sqlast.Stmt{
		"item_price": cat.Procedure("writer").Body, // shadow with a writing body
	}
	if core.Summarize(cat, locals, readerBody).SharedWriteFree() {
		t.Errorf("Summarize must resolve callees through locals first")
	}
	if !core.Summarize(cat, nil, cat.Function("rec").Body).SharedWriteFree() {
		t.Errorf("Summarize must tolerate recursion")
	}
	// At top level a temporary table is shared DDL, not frame-local.
	if core.Summarize(cat, nil, cat.Function("stager").Body).SharedWriteFree() {
		t.Errorf("CREATE TEMPORARY TABLE outside a routine changes the shared catalog")
	}

	// SharedEffect is SharedWriteFree's reason, read here from the
	// per-routine summaries Summarize keeps (Callees). A callee that is
	// neither a routine nor a builtin leaves the effect set unbounded;
	// through locals (a translation's clones) the same name resolves.
	reader := sqlast.Stmt(cat.Function("reader").Body)
	for _, tc := range []struct {
		locals map[string]sqlast.Stmt
		name   string
		want   string
	}{
		{nil, "reader", ""},
		{nil, "calls_writer", "writes item_author"},
		{map[string]sqlast.Stmt{"clone": cat.Function("stager").Body}, "clone", ""},
		{map[string]sqlast.Stmt{"clone": &sqlast.CompoundStmt{Stmts: []sqlast.Stmt{&sqlast.DropViewStmt{Name: "v"}}}}, "clone", "ddl"},
		{map[string]sqlast.Stmt{"clone": &sqlast.ReturnStmt{Value: &sqlast.FuncCall{Name: "nowhere"}}}, "clone", "unknown callee"},
		{map[string]sqlast.Stmt{"clone": &sqlast.ReturnStmt{Value: &sqlast.FuncCall{Name: "COALESCE"}}}, "clone", ""},
		{map[string]sqlast.Stmt{"clone": &sqlast.ReturnStmt{Value: &sqlast.FuncCall{Name: "helper"}}, "helper": reader}, "clone", ""},
	} {
		root := core.Summarize(cat, tc.locals, &sqlast.ReturnStmt{Value: &sqlast.FuncCall{Name: tc.name}})
		sum := root.Callees[tc.name]
		if sum == nil {
			t.Errorf("Summarize keeps no summary of its callee %s", tc.name)
			continue
		}
		if got := sum.SharedEffect(); got != tc.want || sum.SharedWriteFree() != (tc.want == "") || root.SharedEffect() != tc.want {
			t.Errorf("Callees[%s].SharedEffect() = %q (free %v; root %q), want %q", tc.name, got, sum.SharedWriteFree(), root.SharedEffect(), tc.want)
		}
		if direct := core.SummarizeRoutine(cat, tc.name); tc.locals == nil && direct.SharedEffect() != tc.want {
			t.Errorf("core.SummarizeRoutine(%s).SharedEffect() = %q, want %q", tc.name, direct.SharedEffect(), tc.want)
		}
	}
}

// A called routine's accesses to non-temporal tables carry the empty
// dimension mask; they must still enter the caller's summary (they used
// to be dropped — see TestCalleeSharedWriteReachesCallerSummary).
func TestSummaryMergeKeepsSnapshotAccesses(t *testing.T) {
	cat := testCatalog(t, testSchema+`
CREATE FUNCTION noisy (a CHAR(10)) RETURNS INTEGER
BEGIN
  INSERT INTO item_author VALUES (a, a);
  RETURN (SELECT COUNT(*) FROM item_author);
END;
CREATE FUNCTION sliced () RETURNS INTEGER
BEGIN
  NONSEQUENCED VALIDTIME INSERT INTO item_author SELECT item_id, item_id FROM item;
  RETURN 0;
END;
`)
	stmt, err := sqlparser.ParseStatement(`SELECT noisy(author_id), sliced() FROM author`)
	if err != nil {
		t.Fatal(err)
	}
	sum := core.Summarize(cat, nil, stmt)
	if d, ok := sum.Writes["item_author"]; !ok || d != 0 || sum.SharedWriteFree() {
		t.Errorf("write through a called routine lost: writes %v", sum.Writes)
	}
	if d, ok := sum.Reads["item_author"]; !ok || d != 0 {
		t.Errorf("read through a called routine lost: reads %v", sum.Reads)
	}
	if d := sum.Reads["item"]; d != core.AccessValid {
		t.Errorf("sliced read through a called routine: item[%v], want validtime", d)
	}
}

func TestScriptCatalogFollowsDDL(t *testing.T) {
	cat := testCatalog(t, `
CREATE TABLE t (a INTEGER, b INTEGER);
ALTER TABLE t ADD VALIDTIME;
CREATE VIEW v AS SELECT a FROM t;
`)
	if !cat.IsTable("t") || cat.IsTransactionTable("t") || !cat.IsTemporalTable("t") {
		t.Fatalf("t misclassified")
	}
	cols := cat.TableColumns("t")
	if len(cols) != 4 || cols[2] != "begin_time" || cols[3] != "end_time" {
		t.Fatalf("ALTER ADD VALIDTIME must append period columns, got %v", cols)
	}
	if cat.View("v") == nil || len(cat.TableColumns("v")) != 1 {
		t.Fatalf("view v misclassified: %v", cat.TableColumns("v"))
	}
	cat.Apply(&sqlast.DropTableStmt{Name: "t"})
	if cat.IsTable("t") {
		t.Fatalf("drop not applied")
	}

	// The engine refuses to add a dimension to a table that has one
	// (only valid time + TRANSACTIONTIME migrates), so the shadow table
	// must not become a bitemporal table with one period pair — the
	// translator, which lint now runs, slices four columns off those.
	cat = testCatalog(t, `
CREATE TABLE a (k INTEGER) AS TRANSACTIONTIME;
ALTER TABLE a ADD VALIDTIME;
`)
	if cat.IsBitemporalTable("a") || len(cat.TableColumns("a")) != 3 {
		t.Fatalf("refused ALTER applied: bitemporal %v, columns %v", cat.IsBitemporalTable("a"), cat.TableColumns("a"))
	}
	if diags := checkOne(t, cat, `VALIDTIME DELETE FROM a`); len(Errors(diags)) != 1 {
		t.Fatalf("want the translator's one refusal, got %v", diags)
	}
}
