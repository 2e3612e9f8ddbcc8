package main

import (
	"strings"
	"testing"

	"taupsm"
)

// replOut feeds input lines to the REPL and returns everything it
// printed.
func replOut(t *testing.T, db *taupsm.DB, input string) string {
	t.Helper()
	var out strings.Builder
	if err := runREPL(strings.NewReader(input), &out, db); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestREPLExecutesStatements(t *testing.T) {
	out := replOut(t, taupsm.Open(), `
CREATE TABLE author (author_id CHAR(10), first_name CHAR(50)) AS VALIDTIME;
NONSEQUENCED VALIDTIME INSERT INTO author VALUES
  ('a1', 'Ben', DATE '2010-01-01', DATE '2010-07-01');
VALIDTIME SELECT first_name FROM author;
\q
`)
	if !strings.Contains(out, "Ben") {
		t.Fatalf("query result missing from output:\n%s", out)
	}
	if !strings.Contains(out, "(1 rows affected)") {
		t.Fatalf("affected-rows note missing:\n%s", out)
	}
}

// A routine body holds inner semicolons; the REPL must keep buffering
// until the statement is complete.
func TestREPLBuffersCompoundStatements(t *testing.T) {
	out := replOut(t, taupsm.Open(), `
CREATE TABLE author (author_id CHAR(10), first_name CHAR(50)) AS VALIDTIME;
CREATE FUNCTION get_author_name (aid CHAR(10))
RETURNS CHAR(50)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE fname CHAR(50);
  SET fname = (SELECT first_name FROM author WHERE author_id = aid);
  RETURN fname;
END;
SELECT get_author_name('a1') FROM author;
\q
`)
	if strings.Contains(out, "error:") {
		t.Fatalf("unexpected error:\n%s", out)
	}
	// the continuation prompt must have appeared while buffering
	if !strings.Contains(out, "...>") {
		t.Fatalf("no continuation prompt:\n%s", out)
	}
}

// Errors echo the offending statement, so a failure inside a
// multi-statement line is attributable.
func TestREPLEchoesFailingStatement(t *testing.T) {
	out := replOut(t, taupsm.Open(), `
CREATE TABLE t (x CHAR(5)); SELECT x FROM missing_table;
\q
`)
	if !strings.Contains(out, "error:") {
		t.Fatalf("no error reported:\n%s", out)
	}
	if !strings.Contains(out, "statement: SELECT x FROM missing_table") {
		t.Fatalf("offending statement not echoed:\n%s", out)
	}
}

func TestREPLParseErrorEchoesInput(t *testing.T) {
	out := replOut(t, taupsm.Open(), "SELEC nonsense;\n\\q\n")
	if !strings.Contains(out, "error:") || !strings.Contains(out, "statement: SELEC nonsense") {
		t.Fatalf("parse error not echoed:\n%s", out)
	}
}

func TestREPLTimingAndMetrics(t *testing.T) {
	out := replOut(t, taupsm.Open(), `
\timing
CREATE TABLE t (x CHAR(5));
\metrics
\timing off
\q
`)
	if !strings.Contains(out, "Timing is on.") {
		t.Fatalf("timing toggle missing:\n%s", out)
	}
	if !strings.Contains(out, "Time: ") || !strings.Contains(out, " ms") {
		t.Fatalf("no millisecond elapsed time printed:\n%s", out)
	}
	if !strings.Contains(out, "stratum.statements_total 1") {
		t.Fatalf("metrics exposition missing statement counter:\n%s", out)
	}
	if !strings.Contains(out, "stratum.parse_ns") {
		t.Fatalf("metrics exposition missing latency histogram:\n%s", out)
	}
	if !strings.Contains(out, "Timing is off.") {
		t.Fatalf("timing off missing:\n%s", out)
	}
}

func TestREPLStrategyAndMisc(t *testing.T) {
	out := replOut(t, taupsm.Open(), `
\strategy
\strategy max
\strategy bogus
\help
partial input
\r
\unknown
\q
`)
	for _, want := range []string{
		"Strategy is AUTO.",
		"Strategy is MAX.",
		`unknown strategy "bogus"`,
		"Backslash commands:",
		"Statement buffer cleared.",
		`unknown command \unknown`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// \metrics reset clears every series, and \parallel is no command:
// MAX has no worker pool to size.
func TestREPLMetricsResetAndParallel(t *testing.T) {
	db := taupsm.Open()
	out := replOut(t, db, `
CREATE TABLE t (x CHAR(5));
\metrics reset
\metrics
\parallel 8
\q
`)
	if !strings.Contains(out, "Metrics reset.") {
		t.Fatalf("reset note missing:\n%s", out)
	}
	// After the reset, the exposition that follows shows a zeroed
	// statement counter.
	if !strings.Contains(out, "stratum.statements_total 0") {
		t.Fatalf("counter not reset:\n%s", out)
	}
	if !strings.Contains(out, `unknown command \parallel`) {
		t.Fatalf("\\parallel not rejected:\n%s", out)
	}
}

// EOF with a dangling unterminated statement still executes it (the
// REPL appends the final semicolon).
func TestREPLDanglingStatementOnEOF(t *testing.T) {
	out := replOut(t, taupsm.Open(), "CREATE TABLE t (x CHAR(5))\n")
	if strings.Contains(out, "error:") {
		t.Fatalf("dangling statement failed:\n%s", out)
	}
}

// A parse error prints the offending line with a caret under the
// failing column.
func TestREPLParseErrorCaret(t *testing.T) {
	out := replOut(t, taupsm.Open(), "SELECT x FROM;\n\\q\n")
	if !strings.Contains(out, "error:") {
		t.Fatalf("no parse error:\n%s", out)
	}
	if !strings.Contains(out, "  SELECT x FROM;") || !strings.Contains(out, "^") {
		t.Fatalf("no caret rendering:\n%s", out)
	}
}

func TestREPLLintToggle(t *testing.T) {
	out := replOut(t, taupsm.Open(), `
CREATE TABLE t (a INTEGER);
\lint on
SELECT b FROM missing;
\lint off
\q
`)
	if !strings.Contains(out, "Lint is on.") || !strings.Contains(out, "Lint is off.") {
		t.Fatalf("lint toggle missing:\n%s", out)
	}
	if !strings.Contains(out, "TAU004") {
		t.Fatalf("no lint diagnostic for unknown table:\n%s", out)
	}
}

// A rejected CREATE points a caret at the offending position.
func TestREPLCreateRejectionCaret(t *testing.T) {
	out := replOut(t, taupsm.Open(), `CREATE PROCEDURE p ()
BEGIN
  SET nope = 1;
END;
\q
`)
	if !strings.Contains(out, "TAU001") {
		t.Fatalf("CREATE not rejected by analyzer:\n%s", out)
	}
	if !strings.Contains(out, "  SET nope = 1;") {
		t.Fatalf("offending line not echoed with caret:\n%s", out)
	}
}

func TestREPLTraceToggle(t *testing.T) {
	out := replOut(t, taupsm.Open(), `
\trace
CREATE TABLE t (x CHAR(5)) AS VALIDTIME;
VALIDTIME SELECT x FROM t;
\trace off
CREATE TABLE u (y CHAR(5));
\q
`)
	if !strings.Contains(out, "Trace is on.") || !strings.Contains(out, "Trace is off.") {
		t.Fatalf("trace toggle missing:\n%s", out)
	}
	// Each traced statement prints its trace ID and the stage tree.
	if n := strings.Count(out, "Trace: "); n != 2 {
		t.Fatalf("want 2 trace ID lines, got %d:\n%s", n, out)
	}
	if !strings.Contains(out, "stratum.statement") || !strings.Contains(out, "  stratum.translate") {
		t.Fatalf("stage tree missing:\n%s", out)
	}
	// After \trace off, the untraced statement prints no tree.
	tail := out[strings.LastIndex(out, "Trace is off."):]
	if strings.Contains(tail, "stratum.statement") {
		t.Fatalf("trace output after \\trace off:\n%s", out)
	}
}

func TestREPLSlowLog(t *testing.T) {
	out := replOut(t, taupsm.Open(), `
\slowlog
\slowlog 1ns
CREATE TABLE t (x CHAR(5));
\slowlog off
\slowlog bogus
\q
`)
	if !strings.Contains(out, "Slow-query log is off.") {
		t.Fatalf("disarmed state missing:\n%s", out)
	}
	if !strings.Contains(out, "Slow-query log threshold is 1ns.") {
		t.Fatalf("threshold not reported:\n%s", out)
	}
	// The armed statement logged one JSON entry to the REPL output.
	if !strings.Contains(out, `"statement":"CREATE TABLE t (x CHAR(5))"`) ||
		!strings.Contains(out, `"elapsed_ns"`) {
		t.Fatalf("no slow-log JSON line:\n%s", out)
	}
	if !strings.Contains(out, "error: \\slowlog wants a positive duration") {
		t.Fatalf("bad duration not rejected:\n%s", out)
	}
}

// \timing reports the span clock: the same end-to-end measurement the
// trace's root span carries.
func TestREPLTimingMatchesTrace(t *testing.T) {
	db := taupsm.Open()
	out := replOut(t, db, `
\timing on
\trace on
CREATE TABLE t (x CHAR(5));
\q
`)
	if !strings.Contains(out, "Trace: ") || !strings.Contains(out, "Time: ") {
		t.Fatalf("trace or timing output missing:\n%s", out)
	}
	_, elapsed := db.LastStatement()
	if elapsed <= 0 {
		t.Fatalf("span clock not recorded: %v", elapsed)
	}
}
