package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"taupsm/internal/check"
	"taupsm/internal/core"
	"taupsm/internal/enginetest"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/taubench"
)

// reachCase analyzes one statement under every dimension and, when it
// is a temporal statement or a routine definition, its body too.
func reachCase(t *testing.T, where string, info core.SchemaInfo, stmt sqlast.Node) {
	t.Helper()
	nodes := []sqlast.Node{stmt}
	switch x := stmt.(type) {
	case *sqlast.TemporalStmt:
		nodes = append(nodes, x.Body)
	case *sqlast.CreateFunctionStmt:
		nodes = append(nodes, x.Body)
	case *sqlast.CreateProcedureStmt:
		nodes = append(nodes, x.Body)
	}
	for _, n := range nodes {
		for _, dim := range []sqlast.TemporalDimension{core.DimAny, sqlast.DimValid, sqlast.DimTransaction} {
			if d := core.ReachDiff(info, n, dim); d != "" {
				t.Errorf("%s (%T, dim %d): %s", where, n, dim, d)
			}
		}
	}
}

// catalogOf replays a script's DDL into a fresh script catalog.
func catalogOf(stmts []sqlast.Stmt) *check.ScriptCatalog {
	cat := check.NewScriptCatalog(nil)
	for _, s := range stmts {
		cat.Apply(s)
	}
	return cat
}

func mustParse(t *testing.T, script string) []sqlast.Stmt {
	t.Helper()
	stmts, err := sqlparser.ParseScript(script)
	if err != nil {
		t.Fatalf("%v\n%s", err, script)
	}
	return stmts
}

// The translator's reach equals the reference's on the benchmark
// corpus under each modifier, on the translations' main statements
// with their clones registered, on every statement of the enginetest
// scenarios, and on generated call graphs.
func TestReachEqualsReference(t *testing.T) {
	schema := mustParse(t, taubench.Schema)
	for _, q := range taubench.Queries() {
		schema = append(schema, mustParse(t, q.Routines)...)
	}
	cat := catalogOf(schema)
	for _, s := range schema {
		reachCase(t, "corpus routine", cat, s)
	}
	tr := core.NewTranslator(cat)
	for _, q := range taubench.Queries() {
		for _, mod := range []string{"", "VALIDTIME ", "VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') ", "NONSEQUENCED VALIDTIME "} {
			stmt := mustParse(t, mod+q.Text)[0]
			reachCase(t, q.Name+" "+mod, cat, stmt)
			for _, strategy := range []core.Strategy{core.StrategyMax, core.StrategyPerStatement} {
				tl, err := tr.Translate(stmt, strategy)
				if err != nil {
					continue
				}
				reachCase(t, fmt.Sprintf("%s %s%v main", q.Name, mod, strategy), catalogOf(append(append([]sqlast.Stmt{}, schema...), tl.Routines...)), tl.Main)
			}
		}
	}

	for _, sc := range enginetest.Scenarios {
		cat := check.NewScriptCatalog(nil)
		for i, step := range append(append([]enginetest.Step{}, sc.Setup...), sc.Steps...) {
			for _, src := range []string{step.Exec, step.Query} {
				stmts, err := sqlparser.ParseScript(src)
				if err != nil {
					continue // a step expected to fail
				}
				for _, s := range stmts {
					reachCase(t, fmt.Sprintf("%s step %d", sc.Name, i), cat, s)
					cat.Apply(s)
				}
			}
		}
	}

	r := rand.New(rand.NewSource(1))
	for g := 0; g < 300; g++ {
		script, names := genReachGraph(r, 1+r.Intn(7))
		stmts := mustParse(t, script)
		cat := catalogOf(stmts)
		where := fmt.Sprintf("graph %d", g)
		for _, s := range stmts {
			reachCase(t, where, cat, s)
		}
		for _, root := range []string{
			fmt.Sprintf("SELECT %s(k), %s(k) FROM vt", names[0], strings.ToUpper(names[len(names)-1])),
			fmt.Sprintf("CALL %s(1)", names[r.Intn(len(names))]),
		} {
			reachCase(t, where+" "+root, cat, mustParse(t, root)[0])
		}
		if t.Failed() {
			t.Fatalf("%s:\n%s", where, script)
		}
	}
}

// genReachGraph writes a schema of tables of both dimensions, a view,
// and n routine names calling each other at random — self and mutual
// recursion, calls in the wrong form and to names that resolve to
// nothing, names in another case, inner modifiers — where some names
// are a function and a procedure both.
func genReachGraph(r *rand.Rand, n int) (script string, names []string) {
	var b strings.Builder
	b.WriteString(`
CREATE TABLE vt (k INTEGER) AS VALIDTIME;
CREATE TABLE tt (k INTEGER) AS TRANSACTIONTIME;
CREATE TABLE bt (k INTEGER) AS VALIDTIME AS TRANSACTIONTIME;
CREATE TABLE plain (k INTEGER);
CREATE VIEW vw AS SELECT k FROM vt;
`)
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("r%d", i))
	}
	tables := []string{"vt", "tt", "bt", "plain", "vw", "nowhere", "VT", "Plain"}
	callee := func() string {
		if r.Intn(8) == 0 {
			return "missing"
		}
		name := names[r.Intn(n)]
		if r.Intn(4) == 0 {
			name = strings.ToUpper(name)
		}
		return name
	}
	routine := func(name string, proc bool) {
		if proc {
			fmt.Fprintf(&b, "CREATE PROCEDURE %s (n INTEGER)\nBEGIN\n", name)
		} else {
			fmt.Fprintf(&b, "CREATE FUNCTION %s (n INTEGER) RETURNS INTEGER\nBEGIN\n", name)
		}
		for j, stmts := 0, 1+r.Intn(5); j < stmts; j++ {
			tab := tables[r.Intn(len(tables))]
			switch r.Intn(6) {
			case 0:
				fmt.Fprintf(&b, "  SET n = (SELECT COUNT(*) FROM %s);\n", tab)
			case 1:
				fmt.Fprintf(&b, "  %sINSERT INTO plain SELECT k FROM %s;\n",
					[]string{"", "VALIDTIME ", "NONSEQUENCED VALIDTIME ", "NONSEQUENCED TRANSACTIONTIME "}[r.Intn(4)], tab)
			case 2:
				fmt.Fprintf(&b, "  CALL %s(n);\n", callee())
			case 3:
				fmt.Fprintf(&b, "  SET n = %s(n - 1);\n", callee())
			case 4:
				fmt.Fprintf(&b, "  SET n = (SELECT %s(k) FROM %s);\n", callee(), tab)
			case 5:
				fmt.Fprintf(&b, "  FOR row AS SELECT k FROM %s DO\n    SET n = %s(row.k);\n  END FOR;\n", tab, callee())
			}
		}
		if !proc {
			b.WriteString("  RETURN n;\n")
		}
		b.WriteString("END;\n")
	}
	for _, name := range names {
		switch r.Intn(4) {
		case 0:
			routine(name, true)
		case 1:
			routine(name, false)
			routine(name, true)
		default:
			routine(name, false)
		}
	}
	return b.String(), names
}
