package check_test

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"taupsm/internal/check"
	"taupsm/internal/sqlparser"
	"taupsm/internal/taubench"
)

// FuzzLint drives the analyzer over arbitrary scripts the way `taupsm
// vet` does: parse, then check each statement against a script catalog
// that starts empty and follows the script's DDL. The temporal pass
// runs the whole translator over text that may never execute, so the
// contract covers it too: diagnostics or none, never a panic, and the
// diagnostics of a statement sorted by position. Seeds are the defect
// corpus and the benchmark corpus, whose schema and routines reach every
// transform.
func FuzzLint(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.sql"))
	for _, p := range paths {
		if src, err := os.ReadFile(p); err == nil {
			f.Add(string(src))
		}
	}
	for _, q := range taubench.Queries() {
		f.Add(taubench.Schema + q.Routines + "\nVALIDTIME " + q.Text + ";")
	}
	f.Add(`CREATE TABLE bt (k INTEGER) AS VALIDTIME AS TRANSACTIONTIME;
VALIDTIME (DATE '2011-01-01', DATE '2011-02-01') UPDATE bt SET k = 2 WHERE k = 1;
NONSEQUENCED VALIDTIME DELETE FROM bt;
CREATE VIEW v AS VALIDTIME SELECT k FROM bt;
CREATE TABLE a (k INTEGER) AS TRANSACTIONTIME;
ALTER TABLE a ADD VALIDTIME;
VALIDTIME DELETE FROM a;`)
	f.Add(`CREATE TABLE t (k INTEGER) AS VALIDTIME;
VALIDTIME (DATE '2009-12-01', DATE '2010-05-01') SELECT DISTINCT k FROM t;`)
	f.Add(`CREATE TABLE t (k INTEGER) AS VALIDTIME;
VALIDTIME (DATE '2009-12-01', DATE '2010-05-01') SELECT k FROM t ORDER BY k FETCH FIRST 1 ROWS ONLY;`)

	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := sqlparser.ParseScript(src)
		if err != nil {
			return
		}
		cat := check.NewScriptCatalog(nil)
		for _, s := range stmts {
			diags := check.Check(cat, s)
			if !sort.SliceIsSorted(diags, func(i, j int) bool {
				a, b := diags[i].Pos, diags[j].Pos
				return a.Line < b.Line || a.Line == b.Line && a.Col < b.Col
			}) {
				t.Fatalf("diagnostics out of order: %v\n%s", diags, s.SQL())
			}
			cat.Apply(s)
		}
	})
}
