package check

import (
	"sort"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

// Interprocedural effect summaries — the one effect analysis. Per
// statement or routine they give the exact set of stored tables read
// and written, the temporal dimension each access touches, and the
// dependency set (routines and table names consulted) the verdict rests
// on. Each routine body is walked once, for its own effects; a summary
// is the union of those over everything reachable in the call graph,
// which covers direct and mutual recursion alike.
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
// closed over everything it can call.
type Summary struct {
	// Reads and Writes map folded stored-table (or view) names to the
	// temporal dimensions the accesses touch.
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
	// defining one later changes the verdict.
	Routines map[string]bool
	// Tables maps every table name consulted (folded) to whether it
	// existed as a stored base table at analysis time; creating or
	// dropping one of these invalidates the summary.
	Tables map[string]bool
	// Callees holds, on the summary Summarize returns, the closed summary
	// of every routine the root can reach (folded name → summary). Nil
	// on the entries themselves.
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

// merge folds o into s. It is a monotone join, so a summary closed over
// a call graph is the union of the own effects of every routine in it.
func (s *Summary) merge(o *Summary) {
	// |= on a missing key stores it: a non-temporal access has the
	// empty dimension mask, and must still enter the set.
	for k, d := range o.Reads {
		s.Reads[k] |= d
	}
	for k, d := range o.Writes {
		s.Writes[k] |= d
	}
	for k := range o.LocalWrites {
		s.LocalWrites[k] = true
	}
	s.DDL = s.DDL || o.DDL
	s.Unknown = s.Unknown || o.Unknown
	for k := range o.Routines {
		s.Routines[k] = true
	}
	for k, v := range o.Tables {
		s.Tables[k] = v
	}
}

// Summarize computes the effect summary of n, resolving routine calls
// through locals (folded name → body) first, then cat. The root n is
// analyzed at top level: a CREATE TEMPORARY TABLE there is shared DDL,
// while the same statement inside a called routine is frame-local.
func Summarize(cat Catalog, locals map[string]sqlast.Stmt, n sqlast.Node) *Summary {
	s := &summarizer{cat: cat, locals: locals, own: map[string]*Summary{}}
	out := newSummary()
	s.walk(n, out, nil, 0, 0)
	reached := s.close(out)
	out.Callees = make(map[string]*Summary, len(reached))
	for _, k := range reached {
		c := newSummary()
		c.merge(s.own[k])
		s.close(c)
		out.Callees[k] = c
	}
	return out
}

// SummarizeRoutine computes the effect summary of invoking the named
// stored routine (its own temporary tables discounted as frame-local).
// The routine itself is always part of the dependency set, so callers
// get an invalidation stamp even for an unresolved name.
func SummarizeRoutine(cat Catalog, name string) *Summary {
	s := &summarizer{cat: cat, own: map[string]*Summary{}}
	out := newSummary()
	out.Routines[fold(name)] = true
	s.close(out)
	return out
}

// summarizer walks each routine body at most once, for its own
// effects; a summary's closure over the call graph is then a union.
type summarizer struct {
	cat    Catalog
	locals map[string]sqlast.Stmt
	own    map[string]*Summary // folded name → the body's own effects; nil when it resolves to nothing
}

func (s *summarizer) resolve(name string) (sqlast.Stmt, bool) {
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

// ownSummary returns the effects of the named routine's body alone,
// walking it on first use: its calls appear only as names in Routines.
func (s *summarizer) ownSummary(k string) *Summary {
	if sum, ok := s.own[k]; ok {
		return sum
	}
	body, ok := s.resolve(k)
	if !ok {
		s.own[k] = nil
		return nil
	}
	sum := newSummary()
	s.walk(body, sum, localTemps(s.cat, body), 1, 0)
	s.own[k] = sum
	return sum
}

// close merges into sum the own effects of every routine reachable
// through the names sum calls, and returns those routines' names.
func (s *summarizer) close(sum *Summary) []string {
	var reached []string
	seen := map[string]bool{}
	var visit func(calls map[string]bool)
	visit = func(calls map[string]bool) {
		for k := range calls {
			if seen[k] {
				continue
			}
			seen[k] = true
			if own := s.ownSummary(k); own != nil {
				reached = append(reached, k)
				visit(own.Routines)
			}
		}
	}
	visit(sum.Routines)
	for _, k := range reached {
		sum.merge(s.own[k])
	}
	return reached
}

// localTemps collects the names of temporary tables a routine body
// creates for itself. The engine binds those frames-locally (each
// invocation gets a private instance), so DML against them is not a
// shared effect. A name that is already a stored base table is
// excluded: the CREATE fails at run time rather than shadowing it.
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

// walk accumulates one subtree's own effects into sum. temps is the
// frame-local temporary-table set of the enclosing routine body (nil
// at top level); depth distinguishes top-level statements (0) from
// routine bodies (1). dim is the temporal context, tracked through
// TemporalStmt wrappers; no dimension crosses a call.
func (s *summarizer) walk(n sqlast.Node, sum *Summary, temps map[string]bool, depth int, dim AccessDims) {
	sqlast.Walk(n, func(m sqlast.Node) bool {
		switch x := m.(type) {
		case *sqlast.TemporalStmt:
			d := AccessValid
			if x.Dim == sqlast.DimTransaction {
				d = AccessTransaction
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
				// Frame-local: each invocation creates a private instance.
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

// access records one table read or write. Collection variables and
// names that are neither stored tables nor views are skipped — but
// every name is recorded in the dependency set, because creating a
// table with that name later changes the resolution.
func (s *summarizer) access(name string, sum *Summary, temps map[string]bool, dim AccessDims, write bool) {
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
		if !write && s.cat.IsView(name) {
			sum.Reads[k] |= s.tableDim(name, dim)
		}
		// Collection variable or unknown name: no stored effect.
		return
	}
	d := s.tableDim(name, dim)
	if write {
		sum.Writes[k] |= d
	} else {
		sum.Reads[k] |= d
	}
}

// tableDim resolves the dimension an access touches: non-temporal
// tables have none; temporal tables are touched in the statement's
// modifier dimension, or with current semantics outside any modifier.
// A bitemporal table under any modifier is touched in both dimensions
// (the sliced one plus the orthogonal context filter).
func (s *summarizer) tableDim(name string, dim AccessDims) AccessDims {
	if !s.cat.IsTemporalTable(name) {
		return 0
	}
	if dim != 0 {
		if s.cat.IsBitemporalTable(name) {
			return dim | AccessValid | AccessTransaction
		}
		return dim
	}
	return AccessCurrent
}

// call records a callee's name; one that resolves to neither a routine
// nor a builtin leaves the effect set unbounded.
func (s *summarizer) call(name string, sum *Summary) {
	sum.Routines[fold(name)] = true
	if _, ok := s.resolve(name); !ok {
		if types.BuiltinNamed(name) == nil && !sqlast.IsAggregate(name) {
			sum.Unknown = true
		}
	}
}
