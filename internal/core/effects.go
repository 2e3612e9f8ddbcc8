package core

import (
	"sort"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

// Interprocedural effect summaries — the one effect analysis, a reading
// of the call graph (callgraph.go). Per statement or routine they give
// the exact set of stored tables read and written, the temporal
// dimension each access touches, and the dependency set (routines and
// table names consulted) the verdict rests on.
//
// The engine uses summaries four ways: a function's results are
// memoized, and parallel MAX evaluation runs fragments concurrently,
// when the shared write set is empty (writes confined to collection
// variables and frame-local temporary tables don't count); EXPLAIN
// renders the read/write sets and each routine's verdict; and the
// translation/plan/purity caches revalidate against the dependency set
// instead of discarding on every catalog version bump.

// AccessDims records which temporal context(s) a table access occurs
// under, as a bitmask.
type AccessDims uint8

// Access-dimension bits. A non-temporal table access has no bits set.
const (
	// AccessCurrent is a current-semantics access to a temporal table.
	AccessCurrent AccessDims = 1 << iota
	// AccessValid is an access under a VALIDTIME modifier.
	AccessValid
	// AccessTransaction is an access under a TRANSACTIONTIME modifier.
	AccessTransaction
)

// String renders the dimension set for EXPLAIN output.
func (d AccessDims) String() string {
	if d == 0 {
		return "snapshot"
	}
	var parts []string
	if d&AccessCurrent != 0 {
		parts = append(parts, "current")
	}
	if d&AccessValid != 0 {
		parts = append(parts, "validtime")
	}
	if d&AccessTransaction != 0 {
		parts = append(parts, "transactiontime")
	}
	return strings.Join(parts, "+")
}

// Summary is the inferred effect set of one statement or routine,
// closed over everything it can call and every view it reads.
type Summary struct {
	// Reads and Writes map folded stored-table (or view) names to the
	// temporal dimensions the accesses touch. A view read is the view's
	// name: what its query reads stays behind it, while what its query
	// writes (through a routine it calls) is the reader's write.
	Reads  map[string]AccessDims
	Writes map[string]AccessDims
	// LocalWrites are writes confined to the invocation: DML against
	// temporary tables a called routine itself creates. They never
	// escape the call and are discounted from parallel-safety.
	LocalWrites map[string]bool
	// DDL reports a schema change against the shared catalog (a
	// routine's own temporary tables are frame-local and don't count).
	DDL bool
	// Unknown reports the analysis could not bound the effect set: a
	// callee that is neither a routine nor a builtin (it may be defined,
	// with effects, before the code runs).
	Unknown bool
	// Routines is the dependency set: every routine name (folded) whose
	// definition the verdict depends on, including unresolved callees —
	// defining one later changes the verdict — and those behind a view.
	Routines map[string]bool
	// Tables maps every table name consulted (folded), behind views too,
	// to whether it existed as a stored base table at analysis time;
	// creating or dropping one of these, or redefining a view of that
	// name, invalidates the summary.
	Tables map[string]bool
	// Callees holds, on the summary Summarize returns, the closed summary
	// of every routine the root can reach by calls (folded name →
	// summary). Nil on the entries themselves.
	Callees map[string]*Summary
}

func newSummary() *Summary {
	return &Summary{
		Reads:       map[string]AccessDims{},
		Writes:      map[string]AccessDims{},
		LocalWrites: map[string]bool{},
		Routines:    map[string]bool{},
		Tables:      map[string]bool{},
	}
}

// SharedWriteFree reports that the summarized code writes no stored
// table and changes no schema: all its effects (if any) are confined
// to collection variables and frame-local temporary tables, so
// identical concurrent invocations cannot interfere, and equal
// arguments give equal results for as long as nothing else writes.
func (s *Summary) SharedWriteFree() bool { return s.SharedEffect() == "" }

// SharedEffect names what keeps the summarized code from being
// SharedWriteFree, for EXPLAIN: "writes <tables>", "ddl" or "unknown
// callee"; "" when nothing does.
func (s *Summary) SharedEffect() string {
	switch {
	case len(s.Writes) > 0:
		return "writes " + strings.Join(s.WriteList(), ", ")
	case s.DDL:
		return "ddl"
	case s.Unknown:
		return "unknown callee"
	}
	return ""
}

// ReadList returns the read set sorted for deterministic output.
func (s *Summary) ReadList() []string { return sortedKeys(s.Reads) }

// WriteList returns the write set sorted for deterministic output.
func (s *Summary) WriteList() []string { return sortedKeys(s.Writes) }

func sortedKeys(m map[string]AccessDims) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Summarize computes the effect summary of n, resolving routine calls
// through locals (folded name → body) first, then info. The root n is
// analyzed at top level: a CREATE TEMPORARY TABLE there is shared DDL,
// while the same statement inside a called routine is frame-local.
func Summarize(info SchemaInfo, locals map[string]sqlast.Stmt, n sqlast.Node) *Summary {
	g := newGraph(info, locals)
	out, called := g.summarize(&node{b: walkBody(n)}, true)
	out.Callees = make(map[string]*Summary, len(called))
	for _, c := range called {
		out.Callees[fold(c.name)], _ = g.summarize(c, false)
	}
	return out
}

// SummarizeRoutine computes the effect summary of invoking the named
// stored routine (its own temporary tables discounted as frame-local).
// The routine itself is always part of the dependency set, so callers
// get an invalidation stamp even for an unresolved name.
func SummarizeRoutine(info SchemaInfo, name string) *Summary {
	g := newGraph(info, nil)
	n := g.routine(name)
	if n == nil {
		n = &node{b: &body{}}
	}
	out, _ := g.summarize(n, false)
	out.Routines[fold(name)] = true
	return out
}

// summarize closes the graph from root, a statement at top level or a
// routine: the union of the effects of everything reached, and the
// routines reached by calls alone. Those come first in the search; the
// views they read, and what those reach, come after them and add their
// effects and dependencies but not their reads.
func (g *graph) summarize(root *node, top bool) (*Summary, []*node) {
	sum := newSummary()
	called := g.reach(g.newSearch(root), g.calls)
	i := 0
	g.reach(called, func(n *node, succ []*node) []*node {
		succ = g.apply(sum, n.b, top && i == 0, i < len(called), succ)
		i++
		return g.calls(n, succ)
	})
	return sum, called[1:]
}

// apply adds one body's own effects to sum and appends each view it
// reads to views. top marks a statement at top level, where no temporary
// table is frame-local; reads whether its reads enter sum.Reads.
func (g *graph) apply(sum *Summary, b *body, top, reads bool, views []*node) []*node {
	local := func(name string) bool { return !top && b.localTemp(g.info, name) }
	for _, r := range b.reads {
		if local(r.name) {
			continue
		}
		k := fold(r.name)
		isTable := g.info.IsTable(r.name)
		sum.Tables[k] = isTable
		if !isTable {
			v := g.view(r.name)
			if v == nil {
				continue // a collection variable or an unknown name: no stored effect
			}
			views = append(views, v)
		}
		if reads {
			sum.Reads[k] |= g.tableDim(r)
		}
	}
	for _, w := range b.writes {
		k := fold(w.name)
		if local(w.name) {
			sum.LocalWrites[k] = true
			continue
		}
		isTable := g.info.IsTable(w.name)
		sum.Tables[k] = isTable
		if isTable {
			sum.Writes[k] |= g.tableDim(w)
		}
	}
	for _, t := range b.tables {
		k := fold(t.name)
		if (t.drop || t.temporary) && local(t.name) {
			sum.LocalWrites[k] = true
		} else {
			sum.DDL = true
		}
		if !t.drop {
			sum.Tables[k] = g.info.IsTable(t.name)
		}
	}
	sum.DDL = sum.DDL || b.ddl
	for _, c := range b.calls {
		sum.Routines[fold(c.name)] = true
		if g.routine(c.name) == nil && types.BuiltinNamed(c.name) == nil && !sqlast.IsAggregate(c.name) {
			sum.Unknown = true
		}
	}
	return views
}

// tableDim resolves the dimensions an access touches: non-temporal
// tables have none; temporal tables are touched in the modifier's
// dimension, or with current semantics outside any modifier. A
// bitemporal table under any modifier is touched in both dimensions
// (the sliced one plus the orthogonal context filter).
func (g *graph) tableDim(a access) AccessDims {
	if !g.info.IsTemporalTable(a.name) {
		return 0
	}
	d := a.ctx
	if d&^AccessCurrent != 0 && g.info.IsBitemporalTable(a.name) {
		d |= AccessValid | AccessTransaction
	}
	return d
}
