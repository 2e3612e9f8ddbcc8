package core

import (
	"fmt"
	"slices"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/sqlscan"
)

// analysis is the compile-time reachability information the transforms
// rely on (paper §V-A: "collect at compile time all the temporal tables
// that are referenced directly or indirectly by the query"), and the
// diagnostics report (Reach): the translator's reading of the call graph
// (callgraph.go). A view is one of its tables; nothing behind it is read.
type analysis struct {
	dim            sqlast.TemporalDimension
	tables         []string // reachable tables and views, first-seen order
	temporalTables []string // temporal tables of the analyzed dimension
	mismatched     []string // temporal tables of the *other* dimension
	routines       []string // reachable routines, first-seen order
	g              *graph
}

// routine returns the node of a reachable routine: its definition, its
// body's record; nil for any other name.
func (a *analysis) routine(name string) *node { return a.g.routines[fold(name)] }

// temporalRoutine reports whether the named routine transitively
// references temporal data.
func (a *analysis) temporalRoutine(name string) bool {
	n := a.routine(name)
	return n != nil && n.temporal
}

// dimAny is the sentinel dimension used by current-semantics analysis,
// where valid-time and transaction-time tables are treated alike.
const dimAny = sqlast.TemporalDimension(255)

// Reach is the closure as the diagnostics read it: every table and view
// stmt reaches, directly or through routines, and of the temporal ones
// those that carry dim (sliced) and those that carry only the other
// dimension (mismatched: filtered to a context, not sliced).
func (tr *Translator) Reach(stmt sqlast.Stmt, dim sqlast.TemporalDimension) (tables, sliced, mismatched []string) {
	a := tr.analyze(stmt, dim)
	return a.tables, a.temporalTables, a.mismatched
}

// analyze computes the reachability closure of stmt over the routine
// call graph, classifying each routine as temporal or not, relative to
// the statement's time dimension (dimAny matches both).
func (tr *Translator) analyze(stmt sqlast.Node, dim sqlast.TemporalDimension) *analysis {
	a := &analysis{dim: dim, g: newGraph(tr.Info, nil)}
	order := a.g.reach(a.g.newSearch(&node{b: walkBody(stmt)}), a.edges)
	for i, n := range order {
		for _, r := range n.b.reads {
			t := r.name
			if !tr.Info.IsTable(t) && tr.Info.ViewQuery(t) == nil ||
				slices.ContainsFunc(a.tables, func(s string) bool { return strings.EqualFold(s, t) }) {
				continue
			}
			a.tables = append(a.tables, t)
			if tr.Info.IsTemporalTable(t) {
				if tr.carriesDim(t, dim) {
					a.temporalTables = append(a.temporalTables, t)
				} else {
					a.mismatched = append(a.mismatched, t)
				}
			}
		}
		if i > 0 {
			a.routines = append(a.routines, n.name)
		}
	}
	// A routine is temporal if its closure reads a temporal table — of
	// either dimension: one that reaches only tables of the dimension the
	// statement does not slice is still cloned, so its clone filters them
	// to the context.
	for _, r := range order[1:] {
		r.temporal = slices.ContainsFunc(a.g.reach(a.g.newSearch(r), a.edges), func(n *node) bool {
			return slices.ContainsFunc(n.b.reads, func(t access) bool { return tr.Info.IsTemporalTable(t.name) })
		})
	}
	return a
}

// edges appends the routines a node calls in the form they are defined
// in — a function by a function call, a procedure by CALL.
func (a *analysis) edges(n *node, succ []*node) []*node {
	for _, c := range n.b.calls {
		if c.proc && a.g.info.Procedure(c.name) != nil || !c.proc && a.g.info.Function(c.name) != nil {
			succ = append(succ, a.g.routine(c.name))
		}
	}
	return succ
}

// callees lists the routines the named one calls itself, each once.
func (a *analysis) callees(name string) (out []*node) {
	for _, n := range a.edges(a.routine(name), nil) {
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// checkNoInnerModifiers returns ErrSequencedModifierInRoutine when any
// reachable routine contains a temporal statement modifier: such
// routines may only be invoked from nonsequenced contexts (§IV-A).
func (tr *Translator) checkNoInnerModifiers(a *analysis) error {
	for _, r := range a.routines {
		if a.routine(r).b.modifier {
			return fmt.Errorf("routine %s: %w", r, ErrSequencedModifierInRoutine)
		}
	}
	return nil
}

// cloneRoutine copies the definition of the named routine as CREATE OR
// REPLACE prefix+name, with any extra parameters appended: the clone a
// transform then rewrites in place.
func (a *analysis) cloneRoutine(name, prefix string, extra ...sqlast.ParamDef) sqlast.Stmt {
	def := sqlast.CloneStmt(a.routine(name).def)
	switch d := def.(type) {
	case *sqlast.CreateFunctionStmt:
		d.Name, d.Replace = prefix+d.Name, true
		d.Params = append(d.Params, extra...)
	case *sqlast.CreateProcedureStmt:
		d.Name, d.Replace = prefix+d.Name, true
		d.Params = append(d.Params, extra...)
	}
	return def
}

// renameCalls rewrites invocations of routines satisfying pred to
// prefix+name, in expressions (function calls) and CALL statements.
func renameCalls(stmt sqlast.Stmt, a *analysis, prefix string, pred func(name string) bool) {
	rename := func(name *string) {
		if a.routine(*name) != nil && pred(*name) {
			*name = prefix + *name
		}
	}
	sqlast.Rewrite(stmt, func(n sqlast.Node) sqlast.Node {
		switch x := n.(type) {
		case *sqlast.FuncCall:
			rename(&x.Name)
		case *sqlast.CallStmt:
			rename(&x.Name)
		}
		return n
	})
}

// eachTemporalEntry is the one pass behind every "for every SELECT, for
// every FROM entry that is a temporal table" rule — the predicate of the
// current timeslice, of MAX's instant, of the orthogonal dimension's
// context (f restricts the entry: fromEntry.restrict), the refusal of a
// sequenced outer join. Every SELECT means those in subqueries, cursor
// declarations and routine-body statements too.
func (tr *Translator) eachTemporalEntry(stmt sqlast.Node, f func(fromEntry)) {
	sqlast.Walk(stmt, func(n sqlast.Node) bool {
		if sel, ok := n.(*sqlast.SelectStmt); ok {
			eachFromEntry(sel, func(fe fromEntry) {
				if tr.Info.IsTemporalTable(fe.Name) {
					f(fe)
				}
			})
		}
		return true
	})
}

// andExpr conjoins two expressions, tolerating nils.
func andExpr(a, b sqlast.Expr) sqlast.Expr {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return &sqlast.BinaryExpr{Op: "AND", L: a, R: b}
}

// fromEntry is one base table of a SELECT's FROM clause.
type fromEntry struct {
	Alias, Name string
	Pos         sqlscan.Pos
	// filter is where a predicate over this entry alone belongs: the
	// SELECT's WHERE, or — for an entry on the null-supplying side of a
	// LEFT JOIN — that join's ON, where it decides which rows can match
	// instead of discarding the NULL-extended ones.
	filter *sqlast.Expr
	// nullSupplied reports the second case.
	nullSupplied bool
}

// restrict conjoins a predicate that names only the entry's own columns
// (and constants) where it belongs.
func (fe fromEntry) restrict(pred sqlast.Expr) { *fe.filter = andExpr(*fe.filter, pred) }

// eachFromEntry calls f for every base table of a select's FROM clause,
// JOIN trees flattened.
func eachFromEntry(sel *sqlast.SelectStmt, f func(fromEntry)) {
	for _, r := range sel.From {
		eachEntryOf(r, &sel.Where, false, f)
	}
}

func eachEntryOf(r sqlast.TableRef, filter *sqlast.Expr, nullSupplied bool, f func(fromEntry)) {
	switch x := r.(type) {
	case *sqlast.BaseTable:
		alias := x.Alias
		if alias == "" {
			alias = x.Name
		}
		f(fromEntry{Alias: alias, Name: x.Name, Pos: x.Pos, filter: filter, nullSupplied: nullSupplied})
	case *sqlast.JoinExpr:
		eachEntryOf(x.L, filter, nullSupplied, f)
		if x.Type == "LEFT" {
			filter, nullSupplied = &x.On, true
		}
		eachEntryOf(x.R, filter, nullSupplied, f)
	}
}

func col(table, name string) sqlast.Expr {
	return &sqlast.ColumnRef{Table: table, Column: name}
}

// checkNoManualTransactionDML rejects modifications of
// transaction-time-only tables under NONSEQUENCED or sequenced
// modifiers: transaction time is system-maintained and append-only, so
// only current modifications (automatic auditing) are legal. A
// bitemporal target is fine — its valid-time dimension is user-visible
// and the transforms version transaction time automatically.
func (tr *Translator) checkNoManualTransactionDML(body sqlast.Stmt) error {
	var err error
	sqlast.Walk(body, func(n sqlast.Node) bool {
		if t := dmlTarget(n); err == nil && t != "" && tr.Info.IsTransactionTable(t) && !tr.Info.IsBitemporalTable(t) {
			err = refuse(sqlast.PosOf(n), "%w: only current modifications of table %s are allowed", ErrTransactionTimeManual, t)
		}
		return err == nil
	})
	return err
}

// dmlTarget names the stored table the modification statement n writes;
// "" for a table-variable target and for any other node.
func dmlTarget(n sqlast.Node) string {
	switch x := n.(type) {
	case *sqlast.InsertStmt:
		if !x.VarTarget {
			return x.Table
		}
	case *sqlast.UpdateStmt:
		if !x.VarTarget {
			return x.Table
		}
	case *sqlast.DeleteStmt:
		if !x.VarTarget {
			return x.Table
		}
	}
	return ""
}
