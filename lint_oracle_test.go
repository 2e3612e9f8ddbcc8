package taupsm_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"taupsm"
	"taupsm/internal/enginetest"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/taubench"
)

// The analyzer's temporal pass is a dry run of the translator, so its
// diagnostics are the translator's errors by construction. These tests
// pin the wiring — which sentinel maps to which code, which node a
// refusal is anchored at, that the text is carried unchanged — not a
// second implementation of what is refused.

// temporalCodes are the codes the dry run reports under.
var temporalCodes = map[string]bool{"TAU023": true, "TAU030": true, "TAU031": true, "TAU032": true}

// checkLintIsTranslation asserts the two halves of the property for one
// statement against db's live catalog: an error-severity temporal
// diagnostic exists exactly when translation under the statement's own
// semantics (MAX for a sequenced one) fails, TAU030 exactly when the
// per-statement translation is ErrNotTransformable, and each carries
// the translator's text.
func checkLintIsTranslation(t *testing.T, db *taupsm.DB, stmt sqlast.Stmt, where string) {
	t.Helper()
	if ex, ok := stmt.(*sqlast.ExplainStmt); ok {
		stmt = ex.Body
	}
	var refusals, fallbacks []taupsm.Diagnostic
	for _, d := range db.LintParsed(stmt) {
		if !temporalCodes[d.Code] {
			continue
		}
		if d.Severity == "error" {
			refusals = append(refusals, d)
		}
		if d.Code == "TAU030" {
			fallbacks = append(fallbacks, d)
		}
	}
	_, merr := db.TranslateStmt(stmt, taupsm.Max)
	switch {
	case merr == nil && len(refusals) > 0:
		t.Errorf("%s: translates, but lint refuses: %v\n  %s", where, refusals, stmt.SQL())
	case merr != nil && (len(refusals) != 1 || refusals[0].Message != merr.Error()):
		t.Errorf("%s: translator says %q, lint says %v\n  %s", where, merr, refusals, stmt.SQL())
	}
	switch stmt.(type) {
	case *sqlast.CreateFunctionStmt, *sqlast.CreateProcedureStmt:
		return // TAU030 at CREATE time is about invocations to come
	}
	_, perr := db.TranslateStmt(stmt, taupsm.PerStatement)
	switch {
	case !errors.Is(perr, taupsm.ErrNotTransformable) && len(fallbacks) > 0:
		t.Errorf("%s: PERST says %v, but lint predicts a fallback: %v\n  %s", where, perr, fallbacks, stmt.SQL())
	case errors.Is(perr, taupsm.ErrNotTransformable) && (len(fallbacks) != 1 || fallbacks[0].Message != perr.Error()):
		t.Errorf("%s: PERST says %q, lint says %v\n  %s", where, perr, fallbacks, stmt.SQL())
	}
}

const oracleSchema = `
CREATE TABLE t (k INTEGER) AS VALIDTIME;
CREATE TABLE s (k INTEGER);
CREATE TABLE audit (k INTEGER) AS TRANSACTIONTIME;
CREATE TABLE bt (k INTEGER) AS VALIDTIME AS TRANSACTIONTIME;
CREATE PROCEDURE noop () BEGIN DECLARE x INTEGER; SET x = 1; END;
CREATE FUNCTION pure (n INTEGER) RETURNS INTEGER BEGIN RETURN n + 1; END;
CREATE FUNCTION bt_count () RETURNS INTEGER READS SQL DATA
BEGIN
  RETURN (SELECT COUNT(*) FROM bt);
END;
`

// oracleRoutine wraps a body that reaches one refusal site of a routine
// transform as function f, which a row defines over oracleSchema before
// its statement is linted.
func oracleRoutine(body string) string {
	return "CREATE FUNCTION f (n INTEGER) RETURNS INTEGER\nBEGIN\n  DECLARE v INTEGER DEFAULT 0;\n" + body + "\n  RETURN v;\nEND"
}

const callF = `VALIDTIME SELECT f(k) FROM t`

// One row per error site of internal/core that SQL can reach. The sites
// SQL cannot reach: an unknown modifier and an unsupported routine kind
// (the parser produces neither), "routine referenced but not defined"
// (the live catalog always answers), AUTO handed to the translator (the
// stratum resolves it), and the modifier inside a sequenced routine body
// that the per-statement transform would meet (checkNoInnerModifiers
// refuses the statement first).
func TestLintIsTheTranslator(t *testing.T) {
	const tv = "  SET v = (SELECT k FROM t WHERE k = n);\n" // v becomes time-varying
	rows := []struct {
		name    string
		routine string // body of f, defined first; "" for none
		stmt    string
		code    string // "" when the site yields no diagnostic
		sev     string
		pos     string
		frag    string
	}{
		// core.go
		{"sequenced TT view", "", `TRANSACTIONTIME CREATE VIEW v AS SELECT k FROM audit`,
			"TAU032", "error", "1:24", "sequenced transaction-time views are not supported"},
		{"sequenced non-query, MAX", "", `VALIDTIME CALL noop()`,
			"TAU032", "error", "1:11", "maximally-fragmented slicing: unsupported statement"},
		{"sequenced non-query, PERST", "", `VALIDTIME CALL noop()`,
			"TAU030", "warning", "1:11", "only queries and modifications are supported under VALIDTIME"},
		{"FETCH FIRST over temporal data, MAX and PERST alike", "", `VALIDTIME SELECT k FROM t ORDER BY k FETCH FIRST 1 ROWS ONLY`,
			"TAU032", "error", "1:11", "sequenced FETCH FIRST over temporal data is not supported"},
		{"outer join onto temporal data, MAX and PERST alike", "", `VALIDTIME SELECT s.k, t.k FROM s LEFT JOIN t ON s.k = t.k`,
			"TAU032", "error", "1:44", "sequenced LEFT JOIN onto temporal table t is not supported"},
		{"outer join onto temporal data in a routine", "  SET v = (SELECT COUNT(*) FROM s LEFT JOIN t ON s.k = t.k);", callF,
			"TAU032", "error", "4:45", "routine f: sequenced LEFT JOIN onto temporal table t is not supported"},
		{"outer join onto temporal data under an inner VALIDTIME", "  FOR r AS VALIDTIME SELECT s.k FROM s LEFT JOIN t ON s.k = t.k DO SET v = v + 1; END FOR;", `NONSEQUENCED VALIDTIME SELECT f(k) FROM s`,
			"TAU032", "error", "4:50", "routine f: sequenced LEFT JOIN onto temporal table t is not supported"},
		// maxslice.go
		{"derived table over temporal data, MAX", "", `VALIDTIME SELECT d.k FROM (SELECT k FROM t) AS d`,
			"TAU032", "error", "1:28", "MAX cannot slice a derived table over temporal table t"},
		// analyze.go
		{"modifier in routine, current context", "  FOR r AS VALIDTIME SELECT k FROM t DO SET v = v + 1; END FOR;", `SELECT f(k) FROM s`,
			"TAU023", "error", "1:1", "routine f: a routine containing a temporal statement modifier"},
		{"modifier in routine, sequenced context", "  FOR r AS VALIDTIME SELECT k FROM t DO SET v = v + 1; END FOR;", callF,
			"TAU023", "error", "1:1", "may only be invoked from a nonsequenced context"},
		{"manual DML on a TT table", "", `NONSEQUENCED TRANSACTIONTIME DELETE FROM audit`,
			"TAU031", "error", "1:30", "only current modifications of table audit are allowed"},
		// bitemporal.go
		{"explicit context into a routine", "", `VALIDTIME AND TRANSACTIONTIME (DATE '2010-01-01') SELECT bt_count() FROM t`,
			"TAU032", "error", "1:1", "explicit TRANSACTIONTIME context cannot reach stored routine bt_count over table bt"},
		// dml.go
		{"current INSERT source", "", `INSERT INTO t SELECT k FROM s UNION SELECT k FROM s`,
			"TAU032", "error", "1:1", "current INSERT into temporal table t requires VALUES or SELECT source"},
		{"sequenced TT modification", "", `TRANSACTIONTIME (DATE '2010-01-01', DATE '2010-02-01') DELETE FROM bt`,
			"TAU031", "error", "1:56", "would rewrite the audit past"},
		{"context on a modification", "", `VALIDTIME (DATE '2010-01-01', DATE '2010-02-01') AND TRANSACTIONTIME (DATE '2010-01-05') DELETE FROM bt`,
			"TAU032", "error", "1:90", "a TRANSACTIONTIME context cannot be combined with a modification"},
		{"sequenced DML calling a routine", "", `VALIDTIME UPDATE t SET k = pure(k)`,
			"TAU032", "error", "1:11", "sequenced modifications invoking stored routines are not supported"},
		{"sequenced INSERT target", "", `VALIDTIME INSERT INTO s VALUES (1)`,
			"TAU032", "error", "1:11", "sequenced INSERT requires a temporal target table, s is not temporal"},
		{"sequenced INSERT source", "", `VALIDTIME INSERT INTO t SELECT k FROM s UNION SELECT k FROM s`,
			"TAU032", "error", "1:11", "sequenced INSERT requires a VALUES or SELECT source"},
		{"row-local WHERE", "", `VALIDTIME UPDATE t SET k = 2 WHERE k IN (SELECT k FROM t)`,
			"TAU032", "error", "1:11", "only row-local WHERE predicates"},
		{"sequenced DML reading period-varying data", "", `VALIDTIME UPDATE t SET k = (SELECT MAX(k) FROM bt)`,
			"TAU032", "error", "1:11", "sequenced modification reads temporal table bt: its WHERE, SET and INSERT source are evaluated once for the whole period, not at every instant"},
		{"sequenced DELETE target", "", `VALIDTIME DELETE FROM s`,
			"TAU032", "error", "1:11", "sequenced DELETE requires a temporal target table"},
		{"sequenced UPDATE target", "", `VALIDTIME UPDATE s SET k = 1`,
			"TAU032", "error", "1:11", "sequenced UPDATE requires a temporal target table"},
		// nonseq.go
		{"nonsequenced DML on bitemporal", "", `NONSEQUENCED VALIDTIME DELETE FROM bt`,
			"TAU031", "error", "1:24", "only top-level INSERT is supported"},
		{"manual tt_ column", "", `NONSEQUENCED VALIDTIME INSERT INTO bt (k, begin_time, end_time, tt_begin_time, tt_end_time) VALUES (1, DATE '2010-01-01', DATE '2010-02-01', DATE '2000-01-01', DATE '2001-01-01')`,
			"TAU031", "error", "1:24", "do not write bt.tt_begin_time"},
		{"nonsequenced bitemporal INSERT source", "", `NONSEQUENCED VALIDTIME INSERT INTO bt SELECT k, DATE '2010-01-01', DATE '2010-02-01' FROM s UNION SELECT k, DATE '2010-01-01', DATE '2010-02-01' FROM s`,
			"TAU032", "error", "1:24", "requires a VALUES or SELECT source"},
		{"inner sequenced DML", "  VALIDTIME DELETE FROM t;", `NONSEQUENCED VALIDTIME SELECT f(k) FROM s`,
			"TAU032", "error", "4:3", "routine f: inner VALIDTIME on *sqlast.DeleteStmt is not supported inside routines"},
		// seqselect.go
		{"set operator", "", `VALIDTIME SELECT k FROM t EXCEPT SELECT k FROM t`,
			"TAU030", "warning", "1:11", "sequenced EXCEPT requires constant periods"},
		{"query form", "", `VALIDTIME SELECT k FROM t UNION ALL VALUES (1)`,
			"TAU030", "warning", "1:1", "unsupported query form *sqlast.ValuesExpr"},
		{"temporal subquery", "", `VALIDTIME SELECT k FROM t WHERE k IN (SELECT k FROM t)`,
			"TAU030", "warning", "1:11", "sequenced subquery over temporal data"},
		{"aggregation", "", `VALIDTIME SELECT COUNT(*) FROM t`,
			"TAU030", "warning", "1:11", "sequenced aggregation requires constant periods"},
		{"GROUP BY", "", `VALIDTIME SELECT k FROM t GROUP BY k`,
			"TAU030", "warning", "1:11", "sequenced GROUP BY requires constant periods"},
		{"DISTINCT", "", `VALIDTIME SELECT DISTINCT k FROM t`,
			"TAU030", "warning", "1:11", "sequenced DISTINCT requires constant periods"},
		// views.go: a sequenced view is always rewritten per statement
		{"sequenced view", "", `CREATE VIEW v AS VALIDTIME SELECT COUNT(*) FROM t`,
			"TAU030", "error", "1:28", "sequenced view v: per-statement slicing cannot transform this statement: sequenced aggregation"},
		// perst_stmts.go
		{"temporal cursor", "  DECLARE c CURSOR FOR SELECT k FROM t UNION SELECT k FROM t;\n  OPEN c; FETCH c INTO v; CLOSE c;", callF,
			"TAU030", "warning", "4:3", "routine f: per-statement slicing cannot transform this statement: temporal cursor c requires a plain SELECT"},
		{"IF", tv + "  IF v = 1 THEN RETURN 1; END IF;", callF,
			"TAU030", "warning", "5:3", "IF over a time-varying condition"},
		{"ELSEIF", tv + "  IF n = 0 THEN RETURN 1; ELSEIF v = 1 THEN RETURN 2; END IF;", callF,
			"TAU030", "warning", "5:3", "ELSEIF over a time-varying condition"},
		{"CASE operand", tv + "  CASE v WHEN 1 THEN RETURN 1; ELSE RETURN 2; END CASE;", callF,
			"TAU030", "warning", "5:3", "CASE over a time-varying operand"},
		{"CASE WHEN", tv + "  CASE WHEN v = 1 THEN RETURN 1; ELSE RETURN 2; END CASE;", callF,
			"TAU030", "warning", "5:3", "CASE WHEN over a time-varying condition"},
		{"WHILE", tv + "  WHILE v < 3 DO SET n = n + 1; END WHILE;", callF,
			"TAU030", "warning", "5:3", "WHILE over a time-varying condition"},
		{"REPEAT", tv + "  REPEAT SET n = n + 1; UNTIL v = 1 END REPEAT;", callF,
			"TAU030", "warning", "5:3", "REPEAT over a time-varying condition"},
		{"UPDATE in a sequenced routine", tv + "  UPDATE t SET k = 2 WHERE k = n;", callF,
			"TAU030", "warning", "5:3", "modification of temporal table t inside a sequenced routine"},
		{"INSERT in a sequenced routine", tv + "  INSERT INTO t VALUES (n);", callF,
			"TAU030", "warning", "5:3", "modification of temporal table t inside a sequenced routine"},
		{"statement kind", tv + "  DROP VIEW gone;", callF,
			"TAU030", "warning", "1:1", "unsupported statement *sqlast.DropViewStmt"},
		{"set-operation assignment", "  SET v = (SELECT k FROM t UNION SELECT k FROM t);", callF,
			"TAU030", "warning", "4:12", "assignment from a set-operation subquery"},
		{"assignment arity: PERST alone refuses, and not as a fallback", "  SET v = (SELECT k, k FROM t);", callF,
			"", "", "", ""},
		{"temporal FOR", "  FOR r AS SELECT k FROM t UNION SELECT k FROM t DO SET n = n + 1; END FOR;", callF,
			"TAU030", "warning", "4:3", "temporal FOR loop requires a plain SELECT"},
		{"non-nested FETCH", "  DECLARE c CURSOR FOR SELECT k FROM t;\n  OPEN c;\n  FOR r AS SELECT k FROM t DO\n    FETCH c INTO v;\n  END FOR;\n  CLOSE c;", callF,
			"TAU030", "warning", "7:5", "non-nested FETCH of cursor c inside per-period iteration"},
		{"temporal INSERT source", "  CREATE TEMPORARY TABLE tmp (k INTEGER);\n  INSERT INTO tmp SELECT k FROM t UNION SELECT k FROM t;", callF,
			"TAU030", "warning", "5:3", "temporal INSERT source must be a plain SELECT"},
		{"temporal data into a snapshot table", "  INSERT INTO s SELECT k FROM t;", callF,
			"TAU030", "warning", "4:3", "temporal data inserted into snapshot table s"},
		{"INSERT source into a temporal local", "  CREATE TEMPORARY TABLE tmp (k INTEGER);\n  INSERT INTO tmp SELECT k FROM t;\n  INSERT INTO tmp SELECT k FROM s UNION SELECT k FROM s;", callF,
			"TAU030", "warning", "6:3", "unsupported INSERT source"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			db := taupsm.Open()
			db.SetNow(2010, 6, 15)
			db.MustExec(oracleSchema)
			if r.routine != "" {
				def, err := sqlparser.ParseStatement(oracleRoutine(r.routine))
				if err != nil {
					t.Fatalf("routine: %v", err)
				}
				checkLintIsTranslation(t, db, def, "definition")
				// Installed on the engine: CREATE-time lint is not what a
				// row tests, and may reject what the row needs defined.
				if _, err := db.Engine().ExecStmt(def); err != nil {
					t.Fatalf("routine: %v", err)
				}
			}
			stmt, err := sqlparser.ParseStatement(r.stmt)
			if err != nil {
				t.Fatal(err)
			}
			checkLintIsTranslation(t, db, stmt, "row")
			var got []taupsm.Diagnostic
			for _, d := range db.LintParsed(stmt) {
				if temporalCodes[d.Code] && (r.code == "" || d.Code == r.code && d.Severity == r.sev) {
					got = append(got, d)
				}
			}
			if r.code == "" {
				if len(got) > 0 {
					t.Fatalf("want no temporal diagnostic, got %v", got)
				}
				return
			}
			if len(got) != 1 {
				t.Fatalf("want one %s %s, got %v of %v", r.sev, r.code, got, db.LintParsed(stmt))
			}
			d := got[0]
			if pos := fmt.Sprintf("%d:%d", d.Line, d.Col); pos != r.pos {
				t.Errorf("at %s, want %s: %s", pos, r.pos, d.Message)
			}
			if !strings.Contains(d.Message, r.frag) {
				t.Errorf("message %q lacks %q", d.Message, r.frag)
			}
		})
	}

	// The property, over every statement of the enginetest scenarios and
	// of the benchmark corpus, each run under each strategy setting (what
	// has executed decides which clones the catalog holds when the next
	// statement is linted). A step that fails, by design or because the
	// setting does not apply to it, is linted like any other.
	for _, strategy := range []taupsm.Strategy{taupsm.Auto, taupsm.Max, taupsm.PerStatement} {
		for _, sc := range enginetest.Scenarios {
			db := taupsm.Open()
			now := sc.Now
			if now == (enginetest.Clock{}) {
				now = enginetest.Clock{Year: 2011, Month: 1, Day: 1}
			}
			db.SetNow(now.Year, now.Month, now.Day)
			db.SetStrategy(strategy)
			for i, st := range append(append([]enginetest.Step(nil), sc.Setup...), sc.Steps...) {
				if st.SetNow != nil {
					db.SetNow(st.SetNow.Year, st.SetNow.Month, st.SetNow.Day)
				}
				stmts, err := sqlparser.ParseScript(st.Exec + st.Query)
				if err != nil {
					continue
				}
				for _, stmt := range stmts {
					checkLintIsTranslation(t, db, stmt, fmt.Sprintf("%s/%s step %d", strategy, sc.Name, i))
					_, _ = db.ExecParsed(stmt) // the outcome is the scenario harness's to judge
				}
			}
		}

		spec, err := taubench.SpecByName("DS1", taubench.Small)
		if err != nil {
			t.Fatal(err)
		}
		db := taupsm.Open()
		enginetest.LoadCorpus(t, db, spec)
		db.SetStrategy(strategy)
		for _, q := range taubench.Queries() {
			defs, err := sqlparser.ParseScript(q.Routines)
			if err != nil {
				t.Fatal(err)
			}
			for _, def := range defs {
				checkLintIsTranslation(t, db, def, q.Name+" routines")
			}
			for _, src := range []string{q.Text, "VALIDTIME " + q.Text, taubench.SequencedSQL(q, 30), "NONSEQUENCED VALIDTIME " + q.Text} {
				stmt, err := sqlparser.ParseStatement(src)
				if err != nil {
					t.Fatal(err)
				}
				checkLintIsTranslation(t, db, stmt, fmt.Sprintf("%s/%s", strategy, q.Name))
				_, _ = db.ExecParsed(stmt)
			}
		}
	}
}
