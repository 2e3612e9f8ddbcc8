package taupsm_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"taupsm"
	"taupsm/internal/enginetest"
	"taupsm/internal/taubench"
)

func openWithItem(t *testing.T) *taupsm.DB {
	t.Helper()
	db := taupsm.Open()
	db.MustExec(`CREATE TABLE item (item_id CHAR(10), price FLOAT) AS VALIDTIME;`)
	return db
}

// A routine referencing an undeclared variable is rejected when
// defined, not when first executed.
func TestCreateRejectsUndeclaredVariable(t *testing.T) {
	db := openWithItem(t)
	_, err := db.Exec(`CREATE FUNCTION f () RETURNS INTEGER
BEGIN
  SET missing = 1;
  RETURN 0;
END;`)
	if err == nil {
		t.Fatal("CREATE FUNCTION with undeclared variable succeeded")
	}
	var lerr *taupsm.LintError
	if !errors.As(err, &lerr) {
		t.Fatalf("error is %T, want *LintError: %v", err, err)
	}
	if !strings.Contains(err.Error(), "TAU001") || !strings.Contains(err.Error(), "variable missing is not declared") {
		t.Errorf("unexpected message: %v", err)
	}
}

func TestCreateRejectsUndeclaredCursor(t *testing.T) {
	db := openWithItem(t)
	_, err := db.Exec(`CREATE PROCEDURE p ()
BEGIN
  OPEN nope;
END;`)
	if err == nil || !strings.Contains(err.Error(), "TAU002") {
		t.Fatalf("want TAU002 rejection, got: %v", err)
	}
}

func TestCreateRejectsUnknownCallee(t *testing.T) {
	db := openWithItem(t)
	_, err := db.Exec(`CREATE PROCEDURE p ()
BEGIN
  CALL ghost(1);
END;`)
	if err == nil || !strings.Contains(err.Error(), "TAU006") {
		t.Fatalf("want TAU006 rejection, got: %v", err)
	}
}

// Warning-severity findings do not reject; they ride on the result.
func TestCreateAttachesWarnings(t *testing.T) {
	db := openWithItem(t)
	res, err := db.Exec(`CREATE PROCEDURE p ()
BEGIN
  DECLARE unused INTEGER;
  SET unused = 1;
END;`)
	if err != nil {
		t.Fatalf("warning-only routine rejected: %v", err)
	}
	found := false
	for _, w := range res.Warnings {
		if w.Code == "TAU010" {
			found = true
			if w.Severity != "warning" || w.Line == 0 {
				t.Errorf("malformed warning: %+v", w)
			}
		}
	}
	if !found {
		t.Errorf("TAU010 missing from result warnings: %+v", res.Warnings)
	}
}

// Prepare lints a whole script against a shadow catalog that follows
// the script's own DDL, without executing anything.
func TestPrepareLintsScript(t *testing.T) {
	db := taupsm.Open()
	_, err := db.Prepare(`
CREATE TABLE t (a INTEGER);
SELECT b FROM t;
`)
	if err == nil || !strings.Contains(err.Error(), "TAU005") && !strings.Contains(err.Error(), "TAU001") {
		t.Fatalf("unknown column not caught by Prepare: %v", err)
	}

	p, err := db.Prepare(`
CREATE TABLE t (a INTEGER);
INSERT INTO t VALUES (1);
SELECT a FROM t;
`)
	if err != nil {
		t.Fatalf("clean script failed Prepare: %v", err)
	}
	res, err := p.Exec()
	if err != nil {
		t.Fatalf("prepared exec: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(res.Rows))
	}
}

// EXPLAIN reports lint findings instead of rejecting.
func TestExplainCarriesLint(t *testing.T) {
	db := openWithItem(t)
	db.MustExec(`CREATE TABLE snap (a INTEGER);`)
	e, err := db.Explain(`VALIDTIME SELECT a FROM snap;`)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	found := false
	for _, d := range e.Lint {
		if d.Code == "TAU020" {
			found = true
		}
	}
	if !found {
		t.Fatalf("TAU020 missing from Explain.Lint: %+v", e.Lint)
	}
	if !strings.Contains(e.Result().String(), "TAU020") {
		t.Error("lint rows missing from EXPLAIN result table")
	}
}

// genRoutine emits a random PSM function. Roughly a third of the
// variable references draw from a pool wider than the declarations,
// so many programs are invalid — the properties below are only about
// what the checker passes and what the engine runs. Its names collide:
// a collection may share a scalar's name, a nested block may declare a
// scalar over an outer name, a cursor may be named like a variable, and
// a nested block may create, in a branch, a temporary table named like a
// scalar, read it and drop it. Every branch is taken (its condition ORs
// TRUE) and every loop assigns its own condition's variable, so each
// statement runs and every loop ends.
func genRoutine(rng *rand.Rand, name string) string {
	pool := []string{"v0", "v1", "v2", "v3", "v4"}
	ndecl := 1 + rng.Intn(4)
	declared := pool[:ndecl]
	pickOf := func(from []string, not string) string {
		for {
			v := declared[rng.Intn(len(declared))]
			if rng.Intn(3) == 0 {
				v = from[rng.Intn(len(from))] // possibly undeclared
			}
			if v != not {
				return v
			}
		}
	}
	pick := func() string { return pickOf(pool, "") }
	expr := func(not string) string {
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", rng.Intn(100))
		case 1:
			return pickOf(pool, not)
		default:
			return fmt.Sprintf("%s + %d", pickOf(pool, not), rng.Intn(10))
		}
	}
	coll := "c0" // the collection: beside a scalar of its name, or of its own
	if rng.Intn(2) == 0 {
		coll = declared[rng.Intn(len(declared))]
	}
	cur := pool[rng.Intn(len(pool))] // the cursor, maybe named like a variable
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE FUNCTION %s () RETURNS INTEGER\nBEGIN\n", name)
	for _, v := range declared {
		fmt.Fprintf(&b, "  DECLARE %s INTEGER;\n", v)
	}
	fmt.Fprintf(&b, "  DECLARE %s ROW(a INTEGER) ARRAY;\n", coll)
	if rng.Intn(3) > 0 {
		fmt.Fprintf(&b, "  DECLARE %s CURSOR FOR SELECT x FROM unit;\n", cur)
	}
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		switch rng.Intn(7) {
		case 0:
			fmt.Fprintf(&b, "  SET %s = %s;\n", pick(), expr(""))
		case 1:
			fmt.Fprintf(&b, "  IF %s > %d OR TRUE THEN SET %s = %s; END IF;\n",
				pick(), rng.Intn(50), pick(), expr(""))
		case 2:
			// The loop variable is the one assigned, so every
			// admitted loop terminates.
			v := pick()
			fmt.Fprintf(&b, "  WHILE %s < %d DO SET %s = %s + 1; END WHILE;\n",
				v, rng.Intn(3), v, v)
		case 3:
			fmt.Fprintf(&b, "  INSERT INTO TABLE %s VALUES (%s);\n", []string{coll, pick()}[rng.Intn(2)], expr(""))
			fmt.Fprintf(&b, "  SET %s = (SELECT COUNT(*) FROM %s);\n", pick(), coll)
		case 4:
			// An inner scalar over an outer name: a table position still
			// reaches the collection.
			v := []string{coll, pick()}[rng.Intn(2)]
			fmt.Fprintf(&b, "  BEGIN\n    DECLARE %s INTEGER DEFAULT %d;\n", v, rng.Intn(10))
			fmt.Fprintf(&b, "    SET %s = %s + 1;\n    INSERT INTO TABLE %s VALUES (%s);\n    SET %s = %s;\n  END;\n",
				v, v, coll, expr(""), pick(), v)
		case 5:
			// A temporary table named like a scalar, created in a
			// branch: bound from its CREATE until its DROP.
			tmp := pickOf(pool, coll)
			fmt.Fprintf(&b, "  BEGIN\n    IF %s IS NULL OR TRUE THEN CREATE TEMPORARY TABLE %s (a INTEGER); END IF;\n", pickOf(pool, tmp), tmp)
			fmt.Fprintf(&b, "    INSERT INTO %s VALUES (%s);\n    INSERT INTO TABLE %s VALUES (%s);\n", tmp, expr(tmp), tmp, expr(tmp))
			fmt.Fprintf(&b, "    SET %s = (SELECT COUNT(*) FROM %s);\n    DROP TABLE %s;\n    SET %s = %s;\n  END;\n",
				pickOf(pool, tmp), tmp, tmp, tmp, expr(""))
		default:
			fmt.Fprintf(&b, "  OPEN %s;\n  FETCH %s INTO %s;\n  CLOSE %s;\n", cur, cur, pick(), cur)
		}
	}
	fmt.Fprintf(&b, "  RETURN %s;\nEND;", expr(""))
	return b.String()
}

// notDeclaredClass matches the execution errors the checker exists to
// front-run: unresolved names of any kind.
func notDeclaredClass(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "not declared") ||
		strings.Contains(msg, "is neither a column in scope nor a variable") ||
		strings.Contains(msg, "does not exist") ||
		strings.Contains(msg, "unknown function")
}

// Property: any routine the checker admits runs without name-resolution
// errors; any rejection is a *LintError, never a parse panic.
func TestCheckCleanRoutinesExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(20120401)) // fixed: the corpus is part of the test
	db := taupsm.Open()
	db.MustExec(`CREATE TABLE unit (x INTEGER);`)
	db.MustExec(`INSERT INTO unit VALUES (1);`)
	admitted, rejected := 0, 0
	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("gen%d", i)
		src := genRoutine(rng, name)
		_, err := db.Exec(src)
		if err != nil {
			var lerr *taupsm.LintError
			if !errors.As(err, &lerr) {
				t.Fatalf("non-lint error defining %s: %v\n%s", name, err, src)
			}
			rejected++
			continue
		}
		admitted++
		if _, err := db.Query(fmt.Sprintf("SELECT %s() FROM unit;", name)); err != nil && notDeclaredClass(err) {
			t.Fatalf("check-clean routine %s failed with a name-resolution error: %v\n%s", name, err, src)
		}
	}
	if admitted == 0 || rejected == 0 {
		t.Fatalf("generator is degenerate: %d admitted, %d rejected", admitted, rejected)
	}
}

// scalarBesideCollection are two routines that bind a scalar and a
// collection of one name, in one block and in two: an expression reads
// the scalar, INSERT INTO TABLE and FROM the collection. Each returns 2.
var scalarBesideCollection = []string{`CREATE FUNCTION one_block () RETURNS INTEGER
BEGIN
  DECLARE t INTEGER DEFAULT 1;
  DECLARE t ROW(a INTEGER) ARRAY;
  INSERT INTO TABLE t VALUES (t), (t + 1);
  RETURN (SELECT COUNT(*) FROM t);
END;`, `CREATE FUNCTION two_blocks () RETURNS INTEGER
BEGIN
  DECLARE t ROW(a INTEGER) ARRAY;
  BEGIN
    DECLARE t INTEGER DEFAULT 1;
    INSERT INTO TABLE t VALUES (t), (t + 1);
  END;
  RETURN (SELECT COUNT(*) FROM t);
END;`}

func TestScalarBesideCollectionIsAccepted(t *testing.T) {
	db := taupsm.Open()
	for i, src := range scalarBesideCollection {
		if _, err := db.Exec(src); err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		res, err := db.Query([]string{"SELECT one_block();", "SELECT two_blocks();"}[i])
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
			t.Errorf("want 2, got %v, %v\n%s", res, err, src)
		}
	}
}

// Property, the converse of TestCheckCleanRoutinesExecute: a routine the
// engine runs without a name error (notDeclaredClass) draws no
// error-severity TAU001 or TAU002. Every statement of a generated routine
// runs, so any other error is the generator's. The routines are created
// through the engine, which lint does not see.
func TestRoutinesTheEngineRunsAreCheckClean(t *testing.T) {
	rng := rand.New(rand.NewSource(20120401)) // fixed: the corpus is part of the test
	db := taupsm.Open()
	db.MustExec(`CREATE TABLE unit (x INTEGER);`)
	db.MustExec(`INSERT INTO unit VALUES (1);`)
	names, srcs := []string{"one_block", "two_blocks"}, scalarBesideCollection
	for i := 0; i < 300; i++ {
		names = append(names, fmt.Sprintf("gen%d", i))
		srcs = append(srcs, genRoutine(rng, names[len(names)-1]))
	}
	ran := 0
	for i, src := range srcs {
		if _, err := db.Engine().ExecScript(src); err != nil {
			t.Fatalf("defining %s: %v\n%s", names[i], err, src)
		}
		if _, err := db.Engine().ExecScript(fmt.Sprintf("SELECT %s() FROM unit;", names[i])); err != nil {
			if !notDeclaredClass(err) { // every statement would not have run
				t.Fatalf("%s fails with no name error: %v\n%s", names[i], err, src)
			}
			continue
		}
		ran++
		diags, err := db.Lint(src)
		if err != nil {
			t.Fatalf("lint %s: %v", names[i], err)
		}
		for _, d := range diags {
			if d.Severity == "error" && (d.Code == "TAU001" || d.Code == "TAU002") {
				t.Errorf("%s runs, but lint reports %s\n%s", names[i], d, src)
			}
		}
	}
	if ran < 50 || ran == len(srcs) {
		t.Fatalf("generator is degenerate: %d of %d routines ran", ran, len(srcs))
	}
}

// Whatever Auto runs under MAX because PERST does not apply, lint says
// beforehand, in PERST's words: TAU030 is the per-statement translation's
// own ErrNotTransformable, at CREATE time (the q17b shape) and on the
// statement, and \strategy's note repeats it.
func TestFallbackIsPredicted(t *testing.T) {
	db := taupsm.Open()
	db.MustExec(`CREATE TABLE t (k INTEGER) AS VALIDTIME;
CREATE TABLE item (item_id CHAR(10), subject VARCHAR(30)) AS VALIDTIME;
CREATE TABLE author (author_id CHAR(10), first_name VARCHAR(30)) AS VALIDTIME;
CREATE TABLE item_author (item_id CHAR(10), author_id CHAR(10)) AS VALIDTIME;
CREATE TABLE publisher (publisher_id CHAR(10), country VARCHAR(20)) AS VALIDTIME;`)
	res := db.MustExec(`CREATE FUNCTION mixed_scan (sub VARCHAR(30))
RETURNS INTEGER
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE done INTEGER DEFAULT 0;
  DECLARE iid CHAR(10) DEFAULT '';
  DECLARE n INTEGER DEFAULT 0;
  DECLARE all_items CURSOR FOR SELECT item_id FROM item WHERE subject = sub;
  DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
  OPEN all_items;
  FETCH all_items INTO iid;
  wl: WHILE done = 0 DO
    FOR r AS SELECT a.first_name AS fn FROM author a, item_author ia
        WHERE ia.item_id = iid AND a.author_id = ia.author_id DO
      SET n = n + 1;
      FETCH all_items INTO iid;
      IF done = 1 THEN
        LEAVE wl;
      END IF;
    END FOR;
    FETCH all_items INTO iid;
  END WHILE wl;
  CLOSE all_items;
  RETURN n;
END;`)
	const nonNested = "routine mixed_scan: per-statement slicing cannot transform this statement: non-nested FETCH of cursor all_items inside per-period iteration"
	if len(res.Warnings) != 1 || res.Warnings[0].Code != "TAU030" || res.Warnings[0].Message != nonNested {
		t.Fatalf("CREATE warnings %+v, want one TAU030 %q", res.Warnings, nonNested)
	}
	if note := db.LastFallbackNote(); note != "" {
		t.Fatalf("fallback note before any fallback: %q", note)
	}
	for _, src := range []string{
		`VALIDTIME SELECT COUNT(*) FROM t`,
		`VALIDTIME SELECT k FROM t GROUP BY k`,
		`VALIDTIME SELECT k FROM t WHERE k IN (SELECT k FROM t)`,
		`VALIDTIME SELECT k FROM t EXCEPT SELECT k FROM t`,
		`VALIDTIME SELECT publisher_id FROM publisher WHERE mixed_scan('Databases') > 0`,
	} {
		_, perr := db.Translate(src, taupsm.PerStatement)
		if !errors.Is(perr, taupsm.ErrNotTransformable) {
			t.Fatalf("%s: PERST says %v", src, perr)
		}
		diags, err := db.Lint(src)
		if err != nil {
			t.Fatal(err)
		}
		var got []taupsm.Diagnostic
		for _, d := range diags {
			if d.Code == "TAU030" {
				got = append(got, d)
			}
		}
		if len(got) != 1 || got[0].Message != perr.Error() || got[0].Severity != "warning" {
			t.Errorf("%s: TAU030 %+v, want one warning %q", src, got, perr)
		}
		e, err := db.Explain(src)
		if err != nil {
			t.Fatal(err)
		}
		if e.Strategy != taupsm.Max || e.AutoReason != "perst_not_transformable" {
			t.Errorf("%s: planned %s (%s), want the MAX fallback", src, e.Strategy, e.AutoReason)
		}
		db.MustExec(src)
		if note := db.LastFallbackNote(); note != "last PERST fallback: "+perr.Error() {
			t.Errorf("%s: fallback note %q", src, note)
		}
	}
}

// Prepare validates with the translator: what Exec would refuse, it
// refuses, as a *LintError carrying the translator's text.
func TestPrepareRejectsWhatExecRefuses(t *testing.T) {
	db := taupsm.Open()
	db.MustExec(`CREATE TABLE t (k INTEGER) AS VALIDTIME;`)
	for _, src := range []string{
		`VALIDTIME UPDATE t SET k = 2 WHERE k IN (SELECT k FROM t)`,
		`VALIDTIME AND TRANSACTIONTIME (DATE '2010-01-01', DATE '2010-02-01') DELETE FROM t`,
	} {
		_, xerr := db.Exec(src)
		if xerr == nil {
			t.Fatalf("%s: Exec accepts it", src)
		}
		_, err := db.Prepare(src)
		var lerr *taupsm.LintError
		if !errors.As(err, &lerr) {
			t.Fatalf("%s: Prepare returned %v, Exec %v", src, err, xerr)
		}
		found := false
		for _, d := range lerr.Diagnostics {
			found = found || d.Severity == "error" && d.Message == xerr.Error()
		}
		if !found {
			t.Errorf("%s: Exec says %q, Prepare says %+v", src, xerr, lerr.Diagnostics)
		}
	}
}

// Prepare accepts what Exec answers of the system tables: each
// tau_stat_* table with every column the engine returns for SELECT *
// named, and a misspelled column of one is still reported (ROADMAP
// item 1r).
func TestPrepareAcceptsSystemTables(t *testing.T) {
	db := taupsm.Open()
	db.MustExec(`CREATE TABLE t (k INTEGER) AS VALIDTIME; SELECT k FROM t;`)
	for _, name := range []string{"tau_stat_tables", "tau_stat_routines", "tau_stat_statements", "tau_stat_activity"} {
		res, err := db.Exec("SELECT * FROM " + name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		named := fmt.Sprintf("SELECT s.%s FROM %s s WHERE %s IS NOT NULL",
			strings.Join(res.Columns, ", s."), name, res.Columns[len(res.Columns)-1])
		for _, src := range []string{"SELECT * FROM " + name, named} {
			if _, err := db.Exec(src); err != nil {
				t.Fatalf("%s: Exec: %v", src, err)
			}
			if _, err := db.Prepare(src); err != nil {
				t.Errorf("%s: Exec answers it, Prepare says %v", src, err)
			}
		}
	}
	_, err := db.Prepare(`SELECT s.tabel_name FROM tau_stat_tables s`)
	var lerr *taupsm.LintError
	if !errors.As(err, &lerr) || !strings.Contains(err.Error(), "TAU005") || !strings.Contains(err.Error(), "tabel_name") {
		t.Errorf("a misspelled system-table column: Prepare says %v", err)
	}
}

// Translate under Auto is the plan: what -mode translate prints is what
// Query runs and EXPLAIN reports, on both sides of the heuristic.
func TestTranslateAutoIsThePlan(t *testing.T) {
	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}
	db := taupsm.Open()
	enginetest.LoadCorpus(t, db, spec)
	chosen := map[taupsm.Strategy]int{}
	for _, q := range taubench.Queries() {
		for _, days := range []int{1, 365} {
			sql := taubench.SequencedSQL(q, days)
			got, err := db.Translate(sql, taupsm.Auto)
			if err != nil {
				t.Fatalf("%s/%dd: %v", q.Name, days, err)
			}
			e, err := db.Explain(sql)
			if err != nil {
				t.Fatalf("%s/%dd: %v", q.Name, days, err)
			}
			if got != e.SQL {
				t.Errorf("%s/%dd: Translate(Auto) is not the %s translation EXPLAIN reports", q.Name, days, e.Strategy)
			}
			if strings.Contains(got, "taupsm_cp") != (e.Strategy == taupsm.Max) {
				t.Errorf("%s/%dd: EXPLAIN says %s, the script says otherwise", q.Name, days, e.Strategy)
			}
			chosen[e.Strategy]++
		}
	}
	if chosen[taupsm.Max] == 0 || chosen[taupsm.PerStatement] == 0 {
		t.Fatalf("the corpus exercises one side only: %v", chosen)
	}
}
