package check_test

import (
	"fmt"
	"testing"

	"taupsm/internal/check"
	"taupsm/internal/enginetest"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/taubench"
)

// applyScript parses script and compares every statement's summary with
// the fixpoint's against cat as it stands, then applies it; it returns
// the routines the script defines. A script that does not parse (a
// scenario step expected to fail) is skipped.
func applyScript(t *testing.T, where string, cat *check.ScriptCatalog, script string) []string {
	t.Helper()
	stmts, err := sqlparser.ParseScript(script)
	if err != nil {
		return nil
	}
	var names []string
	for i, s := range stmts {
		check.CompareSummaries(t, fmt.Sprintf("%s stmt %d", where, i), cat, nil, s, nil)
		switch x := s.(type) {
		case *sqlast.CreateFunctionStmt:
			names = append(names, x.Name)
			check.CompareSummaries(t, where+" "+x.Name+" body", cat, nil, x.Body, nil)
		case *sqlast.CreateProcedureStmt:
			names = append(names, x.Name)
			check.CompareSummaries(t, where+" "+x.Name+" body", cat, nil, x.Body, nil)
		}
		cat.Apply(s)
	}
	return names
}

// The union over the call graph equals the fixpoint on every corpus
// routine and query, under each modifier, and on every statement and
// routine of the enginetest scenarios.
func TestSummaryEqualsFixpointOnCorpus(t *testing.T) {
	cat := check.NewScriptCatalog(nil)
	applyScript(t, "schema", cat, taubench.Schema)
	var names []string
	for _, q := range taubench.Queries() {
		names = append(names, applyScript(t, q.Name+" routines", cat, q.Routines)...)
	}
	for _, q := range taubench.Queries() {
		for _, mod := range []string{"", "VALIDTIME ", "VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') ", "NONSEQUENCED VALIDTIME "} {
			applyScript(t, q.Name+" "+mod, cat, mod+q.Text)
		}
	}
	check.CompareSummaries(t, "corpus", cat, nil, nil, names)

	for _, sc := range enginetest.Scenarios {
		cat := check.NewScriptCatalog(nil)
		var names []string
		for i, step := range append(append([]enginetest.Step{}, sc.Setup...), sc.Steps...) {
			for _, src := range []string{step.Exec, step.Query} {
				names = append(names, applyScript(t, fmt.Sprintf("%s step %d", sc.Name, i), cat, src)...)
			}
		}
		check.CompareSummaries(t, sc.Name, cat, nil, nil, names)
	}
}
