package taupsm_test

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"taupsm"
	"taupsm/internal/check"
	"taupsm/internal/enginetest"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/taubench"
)

// The catalog names a view's columns, and a CREATE TABLE … AS table's,
// with the rule the engine names a query's columns by
// (storage.QueryColumns): after every view and CREATE TABLE … AS
// definition of the scenarios, the corpus, the example script and the
// script catalog's test, and of generated definitions, TableColumns
// equals the column names the engine returns for SELECT * FROM the
// name. Every source here is a catalog relation, so nil never passes.

// definedName returns the relation a view or CREATE TABLE … AS
// definition names, or "".
func definedName(stmt sqlast.Stmt) string {
	switch x := stmt.(type) {
	case *sqlast.TemporalStmt:
		return definedName(x.Body)
	case *sqlast.CreateViewStmt:
		return x.Name
	case *sqlast.CreateTableStmt:
		if x.AsQuery != nil {
			return x.Name
		}
	}
	return ""
}

// execDefinition executes stmt on db and, when it defined a view or a
// table from a query, compares the catalogs' columns with the engine's.
// script, when set, is a script catalog that saw every statement before
// db did; the modifier of a temporal definition is the stratum's to
// apply, so only a plain one is compared there.
func execDefinition(t *testing.T, db *taupsm.DB, script *check.ScriptCatalog, stmt sqlast.Stmt, where string) bool {
	t.Helper()
	if script != nil {
		script.Apply(stmt)
	}
	if _, err := db.ExecParsed(stmt); err != nil {
		return false
	}
	name := definedName(stmt)
	if name == "" {
		return false
	}
	res, err := db.Engine().ExecScript("SELECT * FROM " + name)
	if err != nil {
		return false
	}
	if got := db.Engine().Cat.TableColumns(name); got == nil || !slices.Equal(got, res.Cols) {
		t.Errorf("%s: catalog names %s's columns %v, the engine %v\n  %s", where, name, got, res.Cols, stmt.SQL())
	}
	if _, temporal := stmt.(*sqlast.TemporalStmt); script != nil && !temporal {
		if got := script.TableColumns(name); got == nil || !slices.Equal(got, res.Cols) {
			t.Errorf("%s: script catalog names %s's columns %v, the engine %v\n  %s", where, name, got, res.Cols, stmt.SQL())
		}
	}
	return true
}

func TestCatalogColumnsAreTheEngines(t *testing.T) {
	defs := 0
	run := func(db *taupsm.DB, src, where string) {
		stmts, err := sqlparser.ParseScript(src)
		if err != nil {
			return
		}
		for _, stmt := range stmts {
			if execDefinition(t, db, nil, stmt, where) {
				defs++
			}
		}
	}

	for _, sc := range enginetest.Scenarios {
		db := taupsm.Open()
		now := sc.Now
		if now == (enginetest.Clock{}) {
			now = enginetest.Clock{Year: 2011, Month: 1, Day: 1}
		}
		db.SetNow(now.Year, now.Month, now.Day)
		for i, st := range append(append([]enginetest.Step(nil), sc.Setup...), sc.Steps...) {
			if st.SetNow != nil {
				db.SetNow(st.SetNow.Year, st.SetNow.Month, st.SetNow.Day)
			}
			run(db, st.Exec+st.Query, fmt.Sprintf("%s step %d", sc.Name, i))
		}
	}

	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}
	db := taupsm.Open()
	enginetest.LoadCorpus(t, db, spec)
	for _, q := range taubench.Queries() {
		run(db, q.Routines+";\n"+q.Text, q.Name)
	}

	example, err := os.ReadFile("examples/quickstart/quickstart.sql")
	if err != nil {
		t.Fatal(err)
	}
	run(taupsm.Open(), string(example), "quickstart.sql")

	db = taupsm.Open()
	db.MustExec(catalogSetup)
	for _, st := range catalogScript {
		run(db, st.sql, "script catalog test")
	}
	if defs < 8 {
		t.Fatalf("only %d definitions swept", defs)
	}

	generatedDefinitions(t)
}

// generatedDefinitions defines ≥ 200 views, and tables from the same
// queries, over two tables and the views defined before them: every
// select-list form (*, t.*, a column, an alias, an unaliased
// expression), derived tables with and without column lists, joins,
// set operators and VALUES. Each definition is also applied to a
// script catalog, the analyzer's, which must name the same columns.
func generatedDefinitions(t *testing.T) {
	db := taupsm.Open()
	db.SetNow(2010, 3, 5)
	const schema = `CREATE TABLE a (x INTEGER, y INTEGER) AS VALIDTIME;
CREATE TABLE b (x INTEGER, z VARCHAR(5));
INSERT INTO a VALUES (1, 2);
INSERT INTO b VALUES (1, 'p');`
	db.MustExec(schema)
	script := check.NewScriptCatalog(db.Engine().Cat)
	g := &defGen{r: rand.New(rand.NewSource(36)), cols: map[string][]string{
		"a": {"x", "y", "begin_time", "end_time"}, "b": {"x", "z"}}}
	views := 0
	for i := 0; views < 200; i++ {
		if i == 4000 {
			t.Fatalf("only %d of 4000 generated views ran", views)
		}
		q := g.query(0)
		name := fmt.Sprintf("gv%d", i)
		src := fmt.Sprintf("CREATE VIEW %s AS %s", name, q)
		if g.r.Intn(4) == 0 {
			name = fmt.Sprintf("gt%d", i)
			src = fmt.Sprintf("CREATE TABLE %s AS (%s) WITH DATA", name, q)
		}
		stmt, err := sqlparser.ParseStatement(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !execDefinition(t, db, script, stmt, "generated") {
			// A definition the engine refuses, or whose rows it cannot
			// produce, names nothing to compare.
			script.Apply(&sqlast.DropViewStmt{Name: name})
			script.Apply(&sqlast.DropTableStmt{Name: name})
			_, _ = db.Exec("DROP VIEW " + name)
			continue
		}
		res, _ := db.Engine().ExecScript("SELECT * FROM " + name)
		g.cols[name] = res.Cols
		g.names = append(g.names, name)
		if strings.HasPrefix(name, "gv") {
			views++
		}
	}
}

// defGen generates the queries of view definitions. cols holds the
// engine's columns of every relation defined so far.
type defGen struct {
	r     *rand.Rand
	cols  map[string][]string
	names []string
}

func (g *defGen) query(depth int) string {
	switch n := g.r.Intn(10); {
	case n == 0:
		return "VALUES (1, 'v'), (2, 'w')"
	case n == 1 && depth < 2:
		op := []string{"UNION", "UNION ALL", "EXCEPT", "INTERSECT"}[g.r.Intn(4)]
		q := g.selectQ(depth + 1)
		return q + " " + op + " " + q
	}
	return g.selectQ(depth)
}

// selectQ is a SELECT over one or two sources, each a table, an earlier
// definition or a derived table.
func (g *defGen) selectQ(depth int) string {
	type source struct {
		alias string
		cols  []string // nil for a derived table: only its stars are used
	}
	var from []string
	var srcs []source
	for i := 0; i < 1+g.r.Intn(2); i++ {
		alias := fmt.Sprintf("s%d", i)
		switch {
		case depth < 2 && g.r.Intn(4) == 0:
			inner := g.query(depth + 1)
			if g.r.Intn(2) == 0 {
				from = append(from, fmt.Sprintf("(%s) %s", inner, alias))
			} else {
				from = append(from, fmt.Sprintf("(%s) %s (c1, c2)", inner, alias))
			}
			srcs = append(srcs, source{alias: alias})
		default:
			names := append([]string{"a", "b"}, g.names...)
			name := names[g.r.Intn(len(names))]
			from = append(from, name+" "+alias)
			srcs = append(srcs, source{alias: alias, cols: g.cols[name]})
		}
	}
	var items []string
	for i := 0; i < 1+g.r.Intn(3); i++ {
		s := srcs[g.r.Intn(len(srcs))]
		col := ""
		if len(s.cols) > 0 {
			col = s.alias + "." + s.cols[g.r.Intn(len(s.cols))]
		}
		switch n := g.r.Intn(7); {
		case n == 0:
			items = append(items, "*")
		case n == 1 || col == "":
			items = append(items, s.alias+".*")
		case n == 2:
			items = append(items, col)
		case n == 3:
			items = append(items, fmt.Sprintf("%s AS n%d", col, i))
		case n == 4:
			items = append(items, col+" IS NULL")
		case n == 5:
			items = append(items, fmt.Sprintf("%d + %d", i, g.r.Intn(9)))
		default:
			items = append(items, "'k'")
		}
	}
	return "SELECT " + strings.Join(items, ", ") + " FROM " + strings.Join(from, ", ")
}
