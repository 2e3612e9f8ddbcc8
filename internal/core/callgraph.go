package core

import (
	"strings"

	"taupsm/internal/sqlast"
)

// The call graph, closed in one place. Each routine body, view query and
// statement an analysis meets is walked once, into a body record; the
// closure is a breadth-first search over those records in call order —
// a union, which covers direct and mutual recursion alike. Two readings
// share it: the translator's reach (analysis, analyze.go: which tables a
// statement reaches, which routines it must clone) and the effect
// summary (effects.go: what the code may read and write). A view is a
// node for effects only: the translator keeps it one name and clones
// nothing behind it.

// body is what one routine body, view query or statement references by
// itself; its calls are only names here.
type body struct {
	reads  []access   // tables and views read, first-seen, names as written
	writes []access   // targets of INSERT, UPDATE and DELETE
	calls  []call     // in call order, once per name and form
	tables []tableDDL // CREATE and DROP TABLE, in order
	// ddl reports any other schema change; modifier a temporal modifier
	// other than CURRENT anywhere in the body.
	ddl, modifier bool
}

// access is one table name and the contexts it is accessed under:
// AccessValid and AccessTransaction for the modifiers around it,
// AccessCurrent for none.
type access struct {
	name string
	ctx  AccessDims
}

// call is one routine invocation: a function call, or a CALL statement.
type call struct {
	name string
	proc bool
}

// tableDDL is one CREATE TABLE (temporary or not) or DROP TABLE.
type tableDDL struct {
	name            string
	temporary, drop bool
}

func fold(name string) string { return strings.ToLower(name) }

// walkBody is the one walk of a body.
func walkBody(n sqlast.Node) *body {
	b := &body{}
	b.walk(n, 0)
	return b
}

// walk records the subtree n, whose enclosing modifiers give the
// context ctx: a TemporalStmt's bounds are in the enclosing context, its
// body also in the modifier's dimension (CURRENT adds none).
func (b *body) walk(n sqlast.Node, ctx AccessDims) {
	sqlast.Walk(n, func(m sqlast.Node) bool {
		switch x := m.(type) {
		case *sqlast.TemporalStmt:
			d := AccessValid
			if x.Dim == sqlast.DimTransaction {
				d = AccessTransaction
			}
			if x.Mod == sqlast.ModCurrent {
				d = 0
			} else {
				b.modifier = true
			}
			if x.Period != nil {
				b.walk(x.Period.Begin, ctx)
				b.walk(x.Period.End, ctx)
			}
			if x.Ctx != nil && x.Ctx.Period != nil {
				b.walk(x.Ctx.Period.Begin, ctx)
				b.walk(x.Ctx.Period.End, ctx)
			}
			b.walk(x.Body, ctx|d)
			return false
		case *sqlast.BaseTable:
			b.reads = note(b.reads, x.Name, ctx)
		case *sqlast.InsertStmt:
			b.writes = note(b.writes, x.Table, ctx)
		case *sqlast.UpdateStmt:
			b.writes = note(b.writes, x.Table, ctx)
		case *sqlast.DeleteStmt:
			b.writes = note(b.writes, x.Table, ctx)
		case *sqlast.CreateTableStmt:
			b.tables = append(b.tables, tableDDL{name: x.Name, temporary: x.Temporary})
		case *sqlast.DropTableStmt:
			b.tables = append(b.tables, tableDDL{name: x.Name, drop: true})
		case *sqlast.CreateViewStmt, *sqlast.DropViewStmt,
			*sqlast.CreateFunctionStmt, *sqlast.CreateProcedureStmt,
			*sqlast.DropRoutineStmt, *sqlast.AlterAddValidTime:
			b.ddl = true
		case *sqlast.FuncCall:
			b.noteCall(x.Name, false)
		case *sqlast.CallStmt:
			b.noteCall(x.Name, true)
		}
		return true
	})
}

// note adds an access under ctx to the list, once per table.
func note(list []access, name string, ctx AccessDims) []access {
	if ctx == 0 {
		ctx = AccessCurrent
	}
	for i := range list {
		if strings.EqualFold(list[i].name, name) {
			list[i].ctx |= ctx
			return list
		}
	}
	return append(list, access{name, ctx})
}

func (b *body) noteCall(name string, proc bool) {
	for _, c := range b.calls {
		if c.proc == proc && strings.EqualFold(c.name, name) {
			return
		}
	}
	b.calls = append(b.calls, call{name, proc})
}

// localTemp reports that name is a temporary table the routine body
// creates for itself: the engine gives each invocation a private
// instance, so DML against it is not a shared effect. A name that is
// already a stored base table is not: the CREATE fails at run time
// rather than shadowing it.
func (b *body) localTemp(info SchemaInfo, name string) bool {
	for _, t := range b.tables {
		if t.temporary && strings.EqualFold(t.name, name) {
			return !info.IsTable(name)
		}
	}
	return false
}

// node is one routine or view of the graph.
type node struct {
	name     string      // as first written
	def      sqlast.Stmt // a stored routine's definition; nil for a local body or a view
	b        *body
	mark     int  // the search that last reached it
	temporal bool // the translator's reading: its closure reads a temporal table
}

// graph is the call graph as one analysis sees it: routine names resolve
// through locals (folded name → body: a translation's clones, before
// they are registered) first, then info, a function before a procedure.
type graph struct {
	info     SchemaInfo
	locals   map[string]sqlast.Stmt
	routines map[string]*node // folded name → node; nil: resolves to nothing
	views    map[string]*node
	search   int
}

func newGraph(info SchemaInfo, locals map[string]sqlast.Stmt) *graph {
	return &graph{info: info, locals: locals, routines: map[string]*node{}}
}

// routine returns the node of the named routine, walking its body on
// first use; nil when the name resolves to no routine.
func (g *graph) routine(name string) *node {
	k := fold(name)
	if n, ok := g.routines[k]; ok {
		return n
	}
	var n *node
	if body, ok := g.locals[k]; ok {
		n = &node{name: name, b: walkBody(body)}
	} else if fn := g.info.Function(name); fn != nil {
		n = &node{name: name, def: fn, b: walkBody(fn.Body)}
	} else if pr := g.info.Procedure(name); pr != nil {
		n = &node{name: name, def: pr, b: walkBody(pr.Body)}
	}
	g.routines[k] = n
	return n
}

// view returns the node of the named view's query, walked on first use;
// nil when name is no view.
func (g *graph) view(name string) *node {
	k := fold(name)
	if n, ok := g.views[k]; ok {
		return n
	}
	var n *node
	if q := g.info.ViewQuery(name); q != nil {
		n = &node{name: name, b: walkBody(q)}
	}
	if g.views == nil {
		g.views = map[string]*node{}
	}
	g.views[k] = n
	return n
}

// reach extends order, breadth first in call order, with every node that
// next leads to from a node of order, each once: next appends a node's
// successors to the slice it is given. Every node already in order must
// carry the current search's mark (newSearch).
func (g *graph) reach(order []*node, next func(n *node, succ []*node) []*node) []*node {
	for i := 0; i < len(order); i++ {
		tail := len(order)
		succ := next(order[i], order)
		order = succ[:tail] // the new ones are kept in place, in order
		for _, m := range succ[tail:] {
			if m != nil && m.mark != g.search {
				m.mark = g.search
				order = append(order, m)
			}
		}
	}
	return order
}

// newSearch starts a search from n: nothing is marked but n.
func (g *graph) newSearch(n *node) []*node {
	g.search++
	n.mark = g.search
	return append(make([]*node, 0, 8), n)
}

// calls appends every routine the node calls: the edges of the effect
// summary, where a call resolves whatever its form.
func (g *graph) calls(n *node, succ []*node) []*node {
	for _, c := range n.b.calls {
		succ = append(succ, g.routine(c.name))
	}
	return succ
}
