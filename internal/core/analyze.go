package core

import (
	"fmt"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/sqlscan"
)

// analysis is the compile-time reachability information the transforms
// rely on (paper §V-A: "collect at compile time all the temporal tables
// that are referenced directly or indirectly by the query"), and the
// diagnostics report (Reach).
type analysis struct {
	dim            sqlast.TemporalDimension
	tables         []string // reachable tables and views, first-seen order
	temporalTables []string // temporal tables of the analyzed dimension
	mismatched     []string // temporal tables of the *other* dimension
	routines       []string // reachable routines, first-seen order

	routineDef      map[string]sqlast.Stmt // lowercased name -> definition
	isProc          map[string]bool
	routineTemporal map[string]bool // routine (transitively) touches temporal data
	modifierIn      map[string]bool // routine contains a temporal modifier
	directTables    map[string][]string
	callees         map[string][]string
}

// temporalRoutine reports whether the named routine transitively
// references temporal data.
func (a *analysis) temporalRoutine(name string) bool {
	return a.routineTemporal[strings.ToLower(name)]
}

// direct holds what one statement references without recursion.
type direct struct {
	tables      []string
	calls       []string
	hasModifier bool
}

// collectDirect finds tables and views, routine invocations, and
// temporal modifiers in a single pass over one statement.
func (tr *Translator) collectDirect(stmt sqlast.Node) direct {
	var d direct
	seenT := map[string]bool{}
	seenC := map[string]bool{}
	sqlast.Walk(stmt, func(n sqlast.Node) bool {
		switch x := n.(type) {
		case *sqlast.BaseTable:
			k := strings.ToLower(x.Name)
			if !seenT[k] && (tr.Info.IsTable(x.Name) || tr.Info.IsView(x.Name)) {
				seenT[k] = true
				d.tables = append(d.tables, x.Name)
			}
		case *sqlast.FuncCall:
			k := strings.ToLower(x.Name)
			if !seenC[k] && tr.Info.Function(x.Name) != nil {
				seenC[k] = true
				d.calls = append(d.calls, x.Name)
			}
		case *sqlast.CallStmt:
			k := strings.ToLower(x.Name)
			if !seenC[k] && tr.Info.Procedure(x.Name) != nil {
				seenC[k] = true
				d.calls = append(d.calls, x.Name)
			}
		case *sqlast.TemporalStmt:
			if x.Mod != sqlast.ModCurrent {
				d.hasModifier = true
			}
		}
		return true
	})
	return d
}

// dimAny is the sentinel dimension used by current-semantics analysis,
// where valid-time and transaction-time tables are treated alike.
const dimAny = sqlast.TemporalDimension(255)

// analyze computes the reachability closure of stmt over the routine
// call graph, classifying each routine as temporal or not, relative to
// the statement's time dimension (dimAny matches both).
func (tr *Translator) analyze(stmt sqlast.Stmt) (*analysis, error) {
	return tr.analyzeDim(stmt, dimAny)
}

// Reach is the closure as the diagnostics read it: every table and view
// stmt reaches, directly or through routines, and of the temporal ones
// those that carry dim (sliced) and those that carry only the other
// dimension (mismatched: filtered to a context, not sliced).
func (tr *Translator) Reach(stmt sqlast.Stmt, dim sqlast.TemporalDimension) (tables, sliced, mismatched []string) {
	a, err := tr.analyzeDim(stmt, dim)
	if err != nil {
		return nil, nil, nil
	}
	return a.tables, a.temporalTables, a.mismatched
}

func (tr *Translator) analyzeDim(stmt sqlast.Node, dim sqlast.TemporalDimension) (*analysis, error) {
	a := &analysis{
		dim:             dim,
		routineDef:      map[string]sqlast.Stmt{},
		isProc:          map[string]bool{},
		routineTemporal: map[string]bool{},
		modifierIn:      map[string]bool{},
		directTables:    map[string][]string{},
		callees:         map[string][]string{},
	}
	seenTable := map[string]bool{}
	seenRoutine := map[string]bool{}

	addTables := func(tables []string) {
		for _, t := range tables {
			k := strings.ToLower(t)
			if !seenTable[k] {
				seenTable[k] = true
				a.tables = append(a.tables, t)
				if tr.Info.IsTemporalTable(t) {
					if tr.carriesDim(t, dim) {
						a.temporalTables = append(a.temporalTables, t)
					} else {
						a.mismatched = append(a.mismatched, t)
					}
				}
			}
		}
	}

	root := tr.collectDirect(stmt)
	addTables(root.tables)
	queue := append([]string{}, root.calls...)

	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		k := strings.ToLower(name)
		if seenRoutine[k] {
			continue
		}
		seenRoutine[k] = true
		a.routines = append(a.routines, name)
		var body sqlast.Stmt
		if fn := tr.Info.Function(name); fn != nil {
			a.routineDef[k] = fn
			body = fn.Body
		} else if pr := tr.Info.Procedure(name); pr != nil {
			a.routineDef[k] = pr
			a.isProc[k] = true
			body = pr.Body
		} else {
			return nil, fmt.Errorf("routine %s referenced but not defined", name)
		}
		d := tr.collectDirect(body)
		addTables(d.tables)
		a.directTables[k] = d.tables
		a.callees[k] = d.calls
		a.modifierIn[k] = d.hasModifier
		queue = append(queue, d.calls...)
	}

	// Fixpoint: a routine is temporal if it references a temporal table
	// directly or calls a temporal routine — of either dimension: one
	// that reaches only tables of the dimension the statement does not
	// slice is still cloned, so its clone filters them to the context.
	for changed := true; changed; {
		changed = false
		for _, r := range a.routines {
			k := strings.ToLower(r)
			if a.routineTemporal[k] {
				continue
			}
			temporal := false
			for _, t := range a.directTables[k] {
				if tr.Info.IsTemporalTable(t) {
					temporal = true
					break
				}
			}
			if !temporal {
				for _, c := range a.callees[k] {
					if a.routineTemporal[strings.ToLower(c)] {
						temporal = true
						break
					}
				}
			}
			if temporal {
				a.routineTemporal[k] = true
				changed = true
			}
		}
	}
	return a, nil
}

// checkNoInnerModifiers returns ErrSequencedModifierInRoutine when any
// reachable routine contains a temporal statement modifier: such
// routines may only be invoked from nonsequenced contexts (§IV-A).
func (tr *Translator) checkNoInnerModifiers(a *analysis) error {
	for _, r := range a.routines {
		if a.modifierIn[strings.ToLower(r)] {
			return fmt.Errorf("routine %s: %w", r, ErrSequencedModifierInRoutine)
		}
	}
	return nil
}

// cloneRoutine copies the definition of the named routine as CREATE OR
// REPLACE prefix+name, with any extra parameters appended: the clone a
// transform then rewrites in place.
func (a *analysis) cloneRoutine(name, prefix string, extra ...sqlast.ParamDef) sqlast.Stmt {
	def := sqlast.CloneStmt(a.routineDef[strings.ToLower(name)])
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
		if _, known := a.routineDef[strings.ToLower(*name)]; known && pred(*name) {
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
