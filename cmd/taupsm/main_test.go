package main

import (
	"os"
	"path/filepath"
	"testing"

	"taupsm"
)

func writeScript(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "script.sql")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const script = `
CREATE TABLE author (author_id CHAR(10), first_name CHAR(50)) AS VALIDTIME;
NONSEQUENCED VALIDTIME INSERT INTO author VALUES
  ('a1', 'Ben', DATE '2010-01-01', DATE '2010-07-01');
CREATE FUNCTION get_author_name (aid CHAR(10))
RETURNS CHAR(50)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE fname CHAR(50);
  SET fname = (SELECT first_name FROM author WHERE author_id = aid);
  RETURN fname;
END;
VALIDTIME SELECT get_author_name('a1') FROM author;
`

func TestRunExec(t *testing.T) {
	p := writeScript(t, script)
	if err := run("exec", "max", "2010-03-01", "", p); err != nil {
		t.Fatal(err)
	}
}

func TestRunTranslate(t *testing.T) {
	p := writeScript(t, script)
	for _, s := range []string{"max", "perst", "auto"} {
		if err := run("translate", s, "", "", p); err != nil {
			t.Fatalf("strategy %s: %v", s, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	p := writeScript(t, script)
	if err := run("bogus", "max", "", "", p); err == nil {
		t.Fatal("expected unknown-mode error")
	}
	if err := run("exec", "bogus", "", "", p); err == nil {
		t.Fatal("expected unknown-strategy error")
	}
	if err := run("exec", "max", "not-a-date", "", p); err == nil {
		t.Fatal("expected -now parse error")
	}
	if err := run("exec", "max", "", "", filepath.Join(t.TempDir(), "missing.sql")); err == nil {
		t.Fatal("expected missing-file error")
	}
	bad := writeScript(t, "SELEC nonsense")
	if err := run("exec", "max", "", "", bad); err == nil {
		t.Fatal("expected parse error")
	}
	empty := writeScript(t, "  -- nothing\n")
	if err := run("exec", "max", "", "", empty); err == nil {
		t.Fatal("expected empty-script error")
	}
}

func TestParseStrategy(t *testing.T) {
	if s, err := parseStrategy("per-statement"); err != nil || s != taupsm.PerStatement {
		t.Fatalf("per-statement: %v %v", s, err)
	}
	if s, err := parseStrategy("AUTO"); err != nil || s != taupsm.Auto {
		t.Fatalf("AUTO: %v %v", s, err)
	}
}

// run opens a database per the flags and executes path's script —
// the one-shot (non-REPL, no-telemetry) path, kept for tests.
func run(mode, strategyFlag, now, data, path string) error {
	db, err := newDB(strategyFlag, now, data)
	if err != nil {
		return err
	}
	defer db.Close()
	return runScript(db, mode, path)
}
