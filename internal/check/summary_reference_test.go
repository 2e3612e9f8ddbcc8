package check

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"taupsm/internal/core"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/types"
)

// The effect summary as it was computed before each routine body was
// walked once: a bottom-up fixpoint that re-walks every reachable body
// per round until no per-routine summary grows. Kept as the oracle the
// union over the call graph (summary.go) must equal, field for field and
// on every Callees entry.

func refSummarize(cat Catalog, locals map[string]sqlast.Stmt, n sqlast.Node) *core.Summary {
	s := &refSummarizer{cat: cat, locals: locals, memo: map[string]*core.Summary{}}
	var out *core.Summary
	for range [64]struct{}{} {
		s.changed = false
		s.done = map[string]bool{}
		out = newRefSummary()
		s.walk(n, out, nil, 0, 0)
		if !s.changed {
			break
		}
	}
	out.Callees = s.memo
	return out
}

func refSummarizeRoutine(cat Catalog, name string) *core.Summary {
	s := &refSummarizer{cat: cat, memo: map[string]*core.Summary{}}
	var out *core.Summary
	for range [64]struct{}{} {
		s.changed = false
		s.done = map[string]bool{}
		out = newRefSummary()
		out.Routines[fold(name)] = true
		refMerge(out, s.routineSummary(name))
		if !s.changed {
			break
		}
	}
	return out
}

func newRefSummary() *core.Summary {
	return &core.Summary{
		Reads:       map[string]core.AccessDims{},
		Writes:      map[string]core.AccessDims{},
		LocalWrites: map[string]bool{},
		Routines:    map[string]bool{},
		Tables:      map[string]bool{},
	}
}

func routineBody(cat Catalog, name string) sqlast.Stmt {
	if fn := cat.Function(name); fn != nil {
		return fn.Body
	}
	if pr := cat.Procedure(name); pr != nil {
		return pr.Body
	}
	return nil
}

func localTemps(cat Catalog, body sqlast.Stmt) map[string]bool {
	var temps map[string]bool
	sqlast.Walk(body, func(m sqlast.Node) bool {
		if x, ok := m.(*sqlast.CreateTableStmt); ok && x.Temporary && !cat.IsTable(x.Name) {
			if temps == nil {
				temps = map[string]bool{}
			}
			temps[fold(x.Name)] = true
		}
		return true
	})
	return temps
}

// refMerge folds o into s, reporting whether s grew.
func refMerge(s, o *core.Summary) bool {
	if o == nil {
		return false
	}
	grew := false
	for k, d := range o.Reads {
		if have, ok := s.Reads[k]; !ok || have&d != d {
			s.Reads[k] = have | d
			grew = true
		}
	}
	for k, d := range o.Writes {
		if have, ok := s.Writes[k]; !ok || have&d != d {
			s.Writes[k] = have | d
			grew = true
		}
	}
	for k := range o.LocalWrites {
		if !s.LocalWrites[k] {
			s.LocalWrites[k] = true
			grew = true
		}
	}
	if o.DDL && !s.DDL {
		s.DDL = true
		grew = true
	}
	if o.Unknown && !s.Unknown {
		s.Unknown = true
		grew = true
	}
	for k := range o.Routines {
		if !s.Routines[k] {
			s.Routines[k] = true
			grew = true
		}
	}
	for k, v := range o.Tables {
		if have, ok := s.Tables[k]; !ok || have != v {
			s.Tables[k] = v
			grew = true
		}
	}
	return grew
}

type refSummarizer struct {
	cat     Catalog
	locals  map[string]sqlast.Stmt
	memo    map[string]*core.Summary
	done    map[string]bool
	onStack map[string]bool
	changed bool
}

func (s *refSummarizer) resolve(name string) (sqlast.Stmt, bool) {
	if s.locals != nil {
		if body, ok := s.locals[fold(name)]; ok {
			return body, true
		}
	}
	if body := routineBody(s.cat, name); body != nil {
		return body, true
	}
	return nil, false
}

func (s *refSummarizer) routineSummary(name string) *core.Summary {
	k := fold(name)
	if s.onStack[k] || s.done[k] {
		return s.memo[k]
	}
	body, ok := s.resolve(name)
	if !ok {
		return nil
	}
	if s.onStack == nil {
		s.onStack = map[string]bool{}
	}
	s.onStack[k] = true
	sum := newRefSummary()
	s.walk(body, sum, localTemps(s.cat, body), 1, 0)
	delete(s.onStack, k)
	s.done[k] = true
	prev := s.memo[k]
	if prev == nil {
		s.memo[k] = sum
		s.changed = true
		return sum
	}
	if refMerge(prev, sum) {
		s.changed = true
	}
	return prev
}

func (s *refSummarizer) walk(n sqlast.Node, sum *core.Summary, temps map[string]bool, depth int, dim core.AccessDims) {
	sqlast.Walk(n, func(m sqlast.Node) bool {
		switch x := m.(type) {
		case *sqlast.TemporalStmt:
			d := core.AccessValid
			if x.Dim == sqlast.DimTransaction {
				d = core.AccessTransaction
			}
			if x.Mod == sqlast.ModCurrent {
				d = 0
			}
			if x.Period != nil {
				s.walk(x.Period.Begin, sum, temps, depth, dim)
				s.walk(x.Period.End, sum, temps, depth, dim)
			}
			if x.Ctx != nil && x.Ctx.Period != nil {
				s.walk(x.Ctx.Period.Begin, sum, temps, depth, dim)
				s.walk(x.Ctx.Period.End, sum, temps, depth, dim)
			}
			s.walk(x.Body, sum, temps, depth, dim|d)
			return false
		case *sqlast.BaseTable:
			s.access(x.Name, sum, temps, dim, false)
		case *sqlast.InsertStmt:
			s.access(x.Table, sum, temps, dim, true)
		case *sqlast.UpdateStmt:
			s.access(x.Table, sum, temps, dim, true)
		case *sqlast.DeleteStmt:
			s.access(x.Table, sum, temps, dim, true)
		case *sqlast.CreateTableStmt:
			if x.Temporary && depth > 0 && temps[fold(x.Name)] {
				sum.LocalWrites[fold(x.Name)] = true
			} else {
				sum.DDL = true
			}
			sum.Tables[fold(x.Name)] = s.cat.IsTable(x.Name)
		case *sqlast.DropTableStmt:
			if depth > 0 && temps[fold(x.Name)] {
				sum.LocalWrites[fold(x.Name)] = true
			} else {
				sum.DDL = true
			}
		case *sqlast.CreateViewStmt, *sqlast.DropViewStmt,
			*sqlast.CreateFunctionStmt, *sqlast.CreateProcedureStmt,
			*sqlast.DropRoutineStmt, *sqlast.AlterAddValidTime:
			sum.DDL = true
		case *sqlast.FuncCall:
			s.call(x.Name, sum)
		case *sqlast.CallStmt:
			s.call(x.Name, sum)
		}
		return true
	})
}

func (s *refSummarizer) access(name string, sum *core.Summary, temps map[string]bool, dim core.AccessDims, write bool) {
	k := fold(name)
	if temps[k] {
		if write {
			sum.LocalWrites[k] = true
		}
		return
	}
	isTable := s.cat.IsTable(name)
	sum.Tables[k] = isTable
	if !isTable {
		if !write && s.cat.ViewQuery(name) != nil {
			sum.Reads[k] |= s.tableDim(name, dim)
		}
		return
	}
	d := s.tableDim(name, dim)
	if write {
		sum.Writes[k] |= d
	} else {
		sum.Reads[k] |= d
	}
}

func (s *refSummarizer) tableDim(name string, dim core.AccessDims) core.AccessDims {
	if !s.cat.IsTemporalTable(name) {
		return 0
	}
	if dim != 0 {
		if s.cat.IsBitemporalTable(name) {
			return dim | core.AccessValid | core.AccessTransaction
		}
		return dim
	}
	return core.AccessCurrent
}

func (s *refSummarizer) call(name string, sum *core.Summary) {
	k := fold(name)
	sum.Routines[k] = true
	if cs := s.routineSummary(name); cs != nil {
		refMerge(sum, cs)
	} else if _, ok := s.resolve(name); !ok {
		if types.BuiltinNamed(name) == nil && !sqlast.IsAggregate(name) {
			sum.Unknown = true
		}
	}
}

// summaryDiff describes how got differs from want, field by field and
// Callees entry by entry; "" when they are equal.
func summaryDiff(got, want *core.Summary) string {
	var out []string
	field := func(name string, g, w any) {
		if !reflect.DeepEqual(g, w) {
			out = append(out, fmt.Sprintf("%s = %v, want %v", name, g, w))
		}
	}
	field("Reads", got.Reads, want.Reads)
	field("Writes", got.Writes, want.Writes)
	field("LocalWrites", got.LocalWrites, want.LocalWrites)
	field("DDL", got.DDL, want.DDL)
	field("Unknown", got.Unknown, want.Unknown)
	field("Routines", got.Routines, want.Routines)
	field("Tables", got.Tables, want.Tables)
	if (got.Callees == nil) != (want.Callees == nil) {
		out = append(out, fmt.Sprintf("Callees nil = %v, want %v", got.Callees == nil, want.Callees == nil))
	}
	names := map[string]bool{}
	for k := range got.Callees {
		names[k] = true
	}
	for k := range want.Callees {
		names[k] = true
	}
	for _, k := range sortedSet(names) {
		g, w := got.Callees[k], want.Callees[k]
		switch {
		case g == nil || w == nil:
			out = append(out, fmt.Sprintf("Callees[%s] present = %v, want %v", k, g != nil, w != nil))
		default:
			if d := summaryDiff(g, w); d != "" {
				out = append(out, fmt.Sprintf("Callees[%s]: %s", k, d))
			}
		}
	}
	return strings.Join(out, "; ")
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// compareSummaries checks Summarize against the fixpoint on root, and
// SummarizeRoutine on every named routine. The fixpoint does not walk a
// view's query, so where the inputs reach one the expectation is written
// by hand (viewExpectation).
func compareSummaries(t *testing.T, where string, cat Catalog, locals map[string]sqlast.Stmt, root sqlast.Node, routines []string) {
	t.Helper()
	if root != nil {
		if d := summaryDiff(core.Summarize(cat, locals, root), viewExpectation(cat, refSummarize(cat, locals, root))); d != "" {
			t.Errorf("%s: Summarize differs from the fixpoint: %s", where, d)
		}
	}
	for _, name := range routines {
		if d := summaryDiff(core.SummarizeRoutine(cat, name), viewExpectation(cat, refSummarizeRoutine(cat, name))); d != "" {
			t.Errorf("%s: SummarizeRoutine(%s) differs from the fixpoint: %s", where, name, d)
		}
	}
}

// viewExpectation adds to the fixpoint's answer what the one view the
// inputs define, genCallGraph's vw (SELECT k FROM plain), contributes:
// a summary that reads vw also consults plain. Its reads stay behind the
// view, and it calls nothing. The corpus defines no view, and the
// enginetest scenario that does (view-columns-shadow-variables) defines
// vw over plain alone; TestSummaryFollowsViews covers views that call.
func viewExpectation(cat Catalog, want *core.Summary) *core.Summary {
	if cat.ViewQuery("vw") == nil {
		return want
	}
	for _, s := range append([]*core.Summary{want}, mapValues(want.Callees)...) {
		if _, ok := s.Reads["vw"]; ok {
			s.Tables["plain"] = true
		}
	}
	return want
}

func mapValues(m map[string]*core.Summary) []*core.Summary {
	var out []*core.Summary
	for _, s := range m {
		out = append(out, s)
	}
	return out
}

// genCallGraph writes a schema of tables and n routines calling each
// other at random: self and mutual recursion, calls to names that
// resolve to nothing and to builtins, frame-local temporary tables,
// DML under VALIDTIME and TRANSACTIONTIME, and DDL.
func genCallGraph(r *rand.Rand, n int) (script string, names []string) {
	var b strings.Builder
	b.WriteString(`
CREATE TABLE vt (k INTEGER) AS VALIDTIME;
CREATE TABLE tt (k INTEGER) AS TRANSACTIONTIME;
CREATE TABLE bt (k INTEGER) AS VALIDTIME AS TRANSACTIONTIME;
CREATE TABLE plain (k INTEGER);
CREATE VIEW vw AS SELECT k FROM plain;
`)
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("r%d", i))
	}
	tables := []string{"vt", "tt", "bt", "plain", "vw", "nowhere"}
	callee := func() string {
		switch r.Intn(8) {
		case 0:
			return "missing" + fmt.Sprint(r.Intn(2))
		case 1:
			return "ABS"
		}
		name := names[r.Intn(n)]
		if r.Intn(4) == 0 {
			name = strings.ToUpper(name)
		}
		return name
	}
	for i, name := range names {
		proc := r.Intn(3) == 0
		if proc {
			fmt.Fprintf(&b, "CREATE PROCEDURE %s (n INTEGER)\nBEGIN\n", name)
		} else {
			fmt.Fprintf(&b, "CREATE FUNCTION %s (n INTEGER) RETURNS INTEGER\nBEGIN\n", name)
		}
		temp := fmt.Sprintf("tmp%d", i%3)
		for j, stmts := 0, 1+r.Intn(5); j < stmts; j++ {
			tab := tables[r.Intn(len(tables))]
			mod := []string{"", "VALIDTIME ", "NONSEQUENCED VALIDTIME ", "TRANSACTIONTIME ", "NONSEQUENCED TRANSACTIONTIME "}[r.Intn(5)]
			switch r.Intn(9) {
			case 0:
				fmt.Fprintf(&b, "  SET n = (SELECT COUNT(*) FROM %s);\n", tab)
			case 1:
				fmt.Fprintf(&b, "  %sINSERT INTO %s VALUES (n);\n", mod, tab)
			case 2:
				fmt.Fprintf(&b, "  %sDELETE FROM %s WHERE k = n;\n", mod, tab)
			case 3:
				fmt.Fprintf(&b, "  CREATE TEMPORARY TABLE %s (k INTEGER);\n  INSERT INTO %s VALUES (n);\n  DROP TABLE %s;\n", temp, temp, temp)
			case 4:
				fmt.Fprintf(&b, "  UPDATE %s SET k = n;\n", temp)
			case 5:
				fmt.Fprintf(&b, "  CALL %s(n);\n", callee())
			case 6:
				fmt.Fprintf(&b, "  SET n = %s(n - 1);\n", callee())
			case 7:
				fmt.Fprintf(&b, "  %sINSERT INTO %s SELECT %s(k) FROM %s;\n", mod, tables[r.Intn(len(tables))], callee(), tab)
			case 8:
				b.WriteString("  CREATE VIEW dv AS SELECT k FROM plain;\n")
			}
		}
		if !proc {
			b.WriteString("  RETURN n;\n")
		}
		b.WriteString("END;\n")
	}
	return b.String(), names
}

func TestSummaryEqualsFixpoint(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for g := 0; g < 300; g++ {
		script, names := genCallGraph(r, 1+r.Intn(7))
		stmts, err := sqlparser.ParseScript(script)
		if err != nil {
			t.Fatalf("graph %d: %v\n%s", g, err, script)
		}
		cat := NewScriptCatalog(nil)
		var bodies []sqlast.Stmt
		for _, s := range stmts {
			cat.Apply(s)
			switch x := s.(type) {
			case *sqlast.CreateFunctionStmt:
				bodies = append(bodies, x.Body)
			case *sqlast.CreateProcedureStmt:
				bodies = append(bodies, x.Body)
			}
		}
		where := fmt.Sprintf("graph %d", g)
		compareSummaries(t, where, cat, nil, nil, append(names, "missing0"))
		// Each body at top level, then again under locals: a translation's
		// clones, some shadowing a catalog routine with another's body,
		// one resolving a name the catalog lacks.
		locals := map[string]sqlast.Stmt{}
		for i := range names {
			if r.Intn(2) == 0 {
				locals[names[r.Intn(len(names))]] = bodies[i]
			}
		}
		locals["missing1"] = bodies[r.Intn(len(bodies))]
		for i, body := range bodies {
			compareSummaries(t, fmt.Sprintf("%s body %d", where, i), cat, nil, body, nil)
			compareSummaries(t, fmt.Sprintf("%s body %d with locals", where, i), cat, locals, body, nil)
		}
		root, err := sqlparser.ParseStatement(fmt.Sprintf("VALIDTIME SELECT %s(k), missing1(k) FROM vt", names[0]))
		if err != nil {
			t.Fatal(err)
		}
		compareSummaries(t, where+" top-level query", cat, locals, root, nil)
		if t.Failed() {
			t.Fatalf("%s:\n%s", where, script)
		}
	}
}
