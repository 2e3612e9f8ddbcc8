package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

func TestVetBadRoutines(t *testing.T) {
	var out strings.Builder
	code := runVet([]string{"../../testdata/bad_routines.sql"}, &out)
	if code == 0 {
		t.Fatalf("vet of bad_routines.sql exited 0; output:\n%s", out.String())
	}

	// Every finding prints as file:line:col: severity CODE: message.
	lineRE := regexp.MustCompile(`^(.+\.sql):(\d+):(\d+): (error|warning) (TAU\d{3}): .+$`)
	codes := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		m := lineRE.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed diagnostic line %q", line)
			continue
		}
		if m[2] == "0" || m[3] == "0" {
			t.Errorf("diagnostic without a real position: %q", line)
		}
		codes[m[5]] = true
	}
	if len(codes) < 8 {
		t.Errorf("want >= 8 distinct codes, got %d: %v\noutput:\n%s", len(codes), codes, out.String())
	}
	for _, want := range []string{
		"TAU001", "TAU002", "TAU003", "TAU004", "TAU006", "TAU007",
		"TAU009", "TAU010", "TAU012", "TAU013", "TAU020",
		"TAU040", "TAU041", "TAU042", "TAU043", "TAU044", "TAU045",
		"TAU046", "TAU047", "TAU048", "TAU050", "TAU051", "TAU052", "TAU053",
	} {
		if !codes[want] {
			t.Errorf("missing code %s in vet output:\n%s", want, out.String())
		}
	}
}

// TestVetSelfCorpusGolden is the self-vet gate: the analyzer's full
// output over the defect corpus must match the checked-in golden list
// line for line (regenerate with `go test ./cmd/taupsm -run
// SelfCorpus -update`), and the example scripts must vet silently.
func TestVetSelfCorpusGolden(t *testing.T) {
	var out strings.Builder
	if code := runVet([]string{"../../testdata/bad_routines.sql"}, &out); code != 1 {
		t.Fatalf("vet of bad_routines.sql = %d, want 1; output:\n%s", code, out.String())
	}
	got := strings.ReplaceAll(out.String(), "../../testdata/", "testdata/")
	golden := "../../testdata/bad_routines.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("vet output diverges from %s (rerun with -update after intentional changes)\n--- want\n%s\n--- got\n%s",
			golden, want, got)
	}

	// The clean side of the corpus: example scripts must stay silent.
	for _, path := range []string{"../../examples/quickstart/quickstart.sql"} {
		out.Reset()
		if code := runVet([]string{path}, &out); code != 0 || out.Len() != 0 {
			t.Errorf("%s: vet exit %d with output:\n%s", path, code, out.String())
		}
	}
}

func TestVetCleanScript(t *testing.T) {
	var out strings.Builder
	failed := vetSource(&out, "clean.sql", `
CREATE TABLE t (a INTEGER, b INTEGER);
CREATE FUNCTION sumab () RETURNS INTEGER READS SQL DATA
BEGIN
  RETURN (SELECT SUM(a + b) FROM t);
END;
SELECT a FROM t;
`)
	if failed {
		t.Fatalf("clean script failed vet:\n%s", out.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean script produced diagnostics:\n%s", out.String())
	}
}

func TestVetParseError(t *testing.T) {
	var out strings.Builder
	if !vetSource(&out, "broken.sql", "SELECT FROM FROM;") {
		t.Fatal("parse error did not fail vet")
	}
	if !strings.Contains(out.String(), "broken.sql:1:") {
		t.Errorf("parse error lacks position: %q", out.String())
	}
}

func TestVetNoArgs(t *testing.T) {
	var out strings.Builder
	if code := runVet(nil, &out); code != 2 {
		t.Fatalf("runVet with no args = %d, want 2", code)
	}
	out.Reset()
	if code := runVet([]string{"-json", "-Werror"}, &out); code != 2 {
		t.Fatalf("runVet with only flags = %d, want 2", code)
	}
}

func TestVetJSON(t *testing.T) {
	var out strings.Builder
	code := runVet([]string{"-json", "../../testdata/bad_routines.sql"}, &out)
	if code != 1 {
		t.Fatalf("vet -json of bad_routines.sql = %d, want 1; output:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("vet -json produced no output")
	}
	codes := map[string]bool{}
	for _, line := range lines {
		var f struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Severity string `json:"severity"`
			Code     string `json:"code"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("non-JSON line %q: %v", line, err)
		}
		if f.File == "" || f.Line == 0 || f.Col == 0 || f.Code == "" || f.Message == "" {
			t.Errorf("incomplete finding: %q", line)
		}
		if f.Severity != "error" && f.Severity != "warning" {
			t.Errorf("bad severity in %q", line)
		}
		codes[f.Code] = true
	}
	if len(codes) < 8 {
		t.Errorf("want >= 8 distinct codes in JSON output, got %d: %v", len(codes), codes)
	}
}

func TestVetWerror(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/warn.sql"
	// TAU042: a WHERE condition of string type is warning severity.
	src := "CREATE TABLE t (a INTEGER);\nSELECT a FROM t WHERE 'yes';\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := runVet([]string{path}, &out); code != 0 {
		t.Fatalf("warnings without -Werror = exit %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "warning") {
		t.Fatalf("expected a warning diagnostic, got:\n%s", out.String())
	}
	out.Reset()
	if code := runVet([]string{"-Werror", path}, &out); code != 1 {
		t.Fatalf("warnings with -Werror = exit %d, want 1; output:\n%s", code, out.String())
	}
}

// vetSource checks one script, printing findings in text form; it
// reports whether the script has a parse error or any error-severity
// diagnostic.
func vetSource(w io.Writer, path, src string) bool {
	findings, failed := vetCollect(path, src)
	for _, f := range findings {
		fmt.Fprintln(w, f.text())
	}
	return failed
}
