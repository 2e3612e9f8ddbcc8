package core

import (
	"fmt"
	"strings"

	"taupsm/internal/sqlast"
)

// Per-statement slicing (paper §VI): each sequenced routine becomes a
// semantically equivalent conventional routine operating on temporal
// tables. The signature gains (period_begin, period_end); the return
// value becomes a temporal table ROW(taupsm_result T, begin_time,
// end_time) ARRAY; time-varying local variables become table-valued;
// SET becomes a sequenced delete+insert; RETURN inserts into the return
// collection; cursors and FOR loops over temporal queries process rows
// per period. The mapping is not complete: constructs it cannot express
// (notably the non-nested FETCH of τPSM q17b, temporal subqueries,
// temporal aggregation and every set operator but UNION ALL) yield
// ErrNotTransformable, and callers fall back to MAX.

func (tr *Translator) perStatement(out *Translation, a *analysis, main sqlast.QueryExpr, ctxBegin, ctxEnd sqlast.Expr) (*Translation, error) {
	for _, rn := range a.routines {
		if !a.temporalRoutine(rn) {
			continue
		}
		def, ppc, err := tr.psRoutine(a, rn)
		if err != nil {
			return nil, err
		}
		out.Routines = append(out.Routines, def)
		out.UsesPerPeriodCursor = out.UsesPerPeriodCursor || ppc
	}

	counter := 0
	if err := tr.rewriteSequencedQuery(main, seqCtx{a: a, pBegin: out.ContextBegin, pEnd: out.ContextEnd,
		ctxBegin: ctxBegin, ctxEnd: ctxEnd, lateralCounter: &counter}); err != nil {
		return nil, err
	}
	out.Main = main.(sqlast.Stmt)
	return out, nil
}

// PerStatementRoutine is the dry run CREATE-time lint asks of the stored
// routine name: the error of its per-statement transform
// (ErrNotTransformable when sequenced invocations will fall back to MAX);
// nil when the transform applies or, the routine reaching no temporal
// data, is never made.
func (tr *Translator) PerStatementRoutine(name string) error {
	var call sqlast.Node = &sqlast.FuncCall{Name: name}
	if tr.Info.Function(name) == nil {
		call = &sqlast.CallStmt{Name: name}
	}
	a := tr.analyze(call, sqlast.DimValid)
	if !a.temporalRoutine(name) {
		return nil
	}
	_, _, err := tr.psRoutine(a, name)
	return err
}

// ---------- routine transformation ----------

const returnVar = "taupsm_return"

// psState is the per-routine transformation state.
type psState struct {
	tr *Translator
	a  *analysis

	tv            map[string]bool            // time-varying variables
	varTypes      map[string]sqlast.TypeName // declared variable types
	hasDefault    map[string]bool            // variables declared with DEFAULT
	assignCount   map[string]int             // assignments per variable
	cursorQueries map[string]sqlast.Stmt     // cursor name -> query
	tempLoopVars  map[string]bool            // FOR loop vars over temporal queries
	localTemporal map[string]bool            // local temp tables holding temporal data
	localTables   map[string][]string        // local temp tables' declared columns

	usesPPC        bool
	lateralCounter int
	auxCounter     int

	// pending auxiliary declarations for the innermost compound
	pendingDecls []*sqlast.VarDecl
}

// psEnv is the evaluation-period environment at one point in the body.
type psEnv struct {
	pBegin, pEnd   sqlast.Expr
	inTemporalLoop bool
}

func (tr *Translator) psRoutine(a *analysis, name string) (sqlast.Stmt, bool, error) {
	def := a.cloneRoutine(name, "ps_",
		sqlast.ParamDef{Name: "period_begin", Type: sqlast.TypeName{Base: "DATE"}},
		sqlast.ParamDef{Name: "period_end", Type: sqlast.TypeName{Base: "DATE"}})
	st := &psState{
		tr: tr, a: a,
		tv:            map[string]bool{},
		varTypes:      map[string]sqlast.TypeName{},
		hasDefault:    map[string]bool{},
		assignCount:   map[string]int{},
		cursorQueries: map[string]sqlast.Stmt{},
		tempLoopVars:  map[string]bool{},
		localTemporal: map[string]bool{},
		localTables:   map[string][]string{},
	}
	var body sqlast.Stmt
	var origReturns sqlast.TypeName
	isFunc := false
	switch d := def.(type) {
	case *sqlast.CreateFunctionStmt:
		isFunc = true
		origReturns = d.Returns
		if d.Returns.IsCollection() {
			d.Returns.Row = append(append([]sqlast.ColumnDef{}, d.Returns.Row...),
				sqlast.ColumnDef{Name: "begin_time", Type: sqlast.TypeName{Base: "DATE"}},
				sqlast.ColumnDef{Name: "end_time", Type: sqlast.TypeName{Base: "DATE"}})
		} else {
			d.Returns = psCollectionType(d.Returns)
		}
		body = d.Body
	case *sqlast.CreateProcedureStmt:
		// OUT/INOUT parameters of a sequenced procedure carry temporal
		// tables (§VI-A: "the output and return values are all
		// temporal tables").
		for i := range d.Params {
			if d.Params[i].Mode != sqlast.ModeIn && !d.Params[i].Type.IsCollection() {
				st.tv[strings.ToLower(d.Params[i].Name)] = true
				st.varTypes[strings.ToLower(d.Params[i].Name)] = d.Params[i].Type
				d.Params[i].Type = psCollectionType(d.Params[i].Type)
			}
		}
		body = d.Body
	default:
		return nil, false, fmt.Errorf("%w: cannot transform routine %s", ErrNotTransformable, name)
	}

	comp, ok := body.(*sqlast.CompoundStmt)
	if !ok {
		comp = &sqlast.CompoundStmt{Stmts: []sqlast.Stmt{body}}
	}

	st.preAnalyze(comp)
	env := psEnv{pBegin: &sqlast.ColumnRef{Column: "period_begin"}, pEnd: &sqlast.ColumnRef{Column: "period_end"}}
	newComp, err := st.transformCompound(comp, env)
	if err != nil {
		return nil, false, fmt.Errorf("routine %s: %w", name, err)
	}

	if isFunc && !origReturns.IsCollection() {
		// Declare the return collection and make sure the function ends
		// by returning it.
		newComp.VarDecls = append([]*sqlast.VarDecl{{
			Names: []string{returnVar}, Type: psCollectionType(origReturns),
		}}, newComp.VarDecls...)
		last := len(newComp.Stmts)
		if last == 0 || !isReturn(newComp.Stmts[last-1]) {
			newComp.Stmts = append(newComp.Stmts, &sqlast.ReturnStmt{Value: &sqlast.ColumnRef{Column: returnVar}})
		}
	}

	switch d := def.(type) {
	case *sqlast.CreateFunctionStmt:
		d.Body = newComp
	case *sqlast.CreateProcedureStmt:
		d.Body = newComp
	}
	return def, st.usesPPC, nil
}

func isReturn(s sqlast.Stmt) bool {
	_, ok := s.(*sqlast.ReturnStmt)
	return ok
}

// psCollectionType builds ROW(taupsm_result T, begin_time DATE,
// end_time DATE) ARRAY.
func psCollectionType(t sqlast.TypeName) sqlast.TypeName {
	return sqlast.TypeName{Base: "ROW", Array: true, Row: []sqlast.ColumnDef{
		{Name: "taupsm_result", Type: t},
		{Name: "begin_time", Type: sqlast.TypeName{Base: "DATE"}},
		{Name: "end_time", Type: sqlast.TypeName{Base: "DATE"}},
	}}
}

// ---------- compile-time analysis of the routine body ----------

// preAnalyze records variable types, cursor queries, assignment counts,
// temporal loop variables and locally created temporal temp tables, and
// runs the time-varying fixpoint (§VI-C: "Compile-time analysis is used
// [to] determine the scope of each time-varying variable").
func (st *psState) preAnalyze(body sqlast.Stmt) {
	sqlast.Walk(body, func(n sqlast.Node) bool {
		switch x := n.(type) {
		case *sqlast.CompoundStmt:
			for _, d := range x.VarDecls {
				for _, nm := range d.Names {
					k := strings.ToLower(nm)
					st.varTypes[k] = d.Type
					if d.Default != nil {
						st.hasDefault[k] = true
					}
					if d.Type.IsCollection() {
						// Collection variables in a temporal routine
						// carry periods and act as temporal operands.
						st.localTemporal[k] = true
					}
				}
			}
			for _, c := range x.Cursors {
				st.cursorQueries[strings.ToLower(c.Name)] = c.Query
			}
		case *sqlast.SetStmt:
			st.assignCount[strings.ToLower(x.Target)]++
		case *sqlast.FetchStmt:
			for _, v := range x.Into {
				st.assignCount[strings.ToLower(v)]++
			}
		case *sqlast.CallStmt:
			if pr := st.tr.Info.Procedure(x.Name); pr != nil {
				for i, p := range pr.Params {
					if p.Mode != sqlast.ModeIn && i < len(x.Args) {
						if cr, ok := x.Args[i].(*sqlast.ColumnRef); ok && cr.Table == "" {
							st.assignCount[strings.ToLower(cr.Column)]++
						}
					}
				}
			}
		case *sqlast.CreateTableStmt:
			if x.Temporary {
				// Locally created table: temporal if anything temporal
				// is ever inserted (resolved after the fixpoint).
				k := strings.ToLower(x.Name)
				if _, seen := st.localTemporal[k]; !seen {
					st.localTemporal[k] = false
				}
				var cols []string
				for _, c := range x.Cols {
					cols = append(cols, c.Name)
				}
				st.localTables[k] = cols
			}
		}
		return true
	})

	// Time-varying fixpoint.
	for changed := true; changed; {
		changed = false
		mark := func(name string) {
			k := strings.ToLower(name)
			if !st.tv[k] {
				st.tv[k] = true
				changed = true
			}
		}
		sqlast.Walk(body, func(n sqlast.Node) bool {
			switch x := n.(type) {
			case *sqlast.SetStmt:
				if st.exprTemporal(x.Value) {
					mark(x.Target)
				}
			case *sqlast.FetchStmt:
				q := st.cursorQueries[strings.ToLower(x.Cursor)]
				if q != nil && st.nodeTemporal(q) {
					for _, v := range x.Into {
						mark(v)
					}
				}
			case *sqlast.ForStmt:
				if st.nodeTemporal(x.Query) {
					k := strings.ToLower(x.LoopVar)
					if !st.tempLoopVars[k] {
						st.tempLoopVars[k] = true
						changed = true
					}
				}
			case *sqlast.CallStmt:
				if pr := st.tr.Info.Procedure(x.Name); pr != nil && st.a.temporalRoutine(x.Name) {
					for i, p := range pr.Params {
						if p.Mode != sqlast.ModeIn && i < len(x.Args) {
							if cr, ok := x.Args[i].(*sqlast.ColumnRef); ok && cr.Table == "" {
								mark(cr.Column)
							}
						}
					}
				}
			case *sqlast.InsertStmt:
				k := strings.ToLower(x.Table)
				if lt, isLocal := st.localTemporal[k]; isLocal && !lt && st.nodeTemporal(x.Source) {
					st.localTemporal[k] = true
					changed = true
				}
			}
			return true
		})
		// Accumulator rule: a self-referencing assignment (SET n =
		// n + 1) inside per-period iteration — a loop containing a
		// temporal FETCH, or the body of a FOR over a temporal query —
		// accumulates per period and is therefore time-varying.
		if st.markAccumulators(bodyStmts(body), false) {
			changed = true
		}
	}
}

// bodyStmts unwraps a compound body into its statement list.
func bodyStmts(s sqlast.Stmt) []sqlast.Stmt {
	if c, ok := s.(*sqlast.CompoundStmt); ok {
		return c.Stmts
	}
	return []sqlast.Stmt{s}
}

// containsTemporalFetch reports a FETCH of a temporal cursor anywhere
// under the statements.
func (st *psState) containsTemporalFetch(stmts []sqlast.Stmt) bool {
	found := false
	for _, s := range stmts {
		sqlast.Walk(s, func(n sqlast.Node) bool {
			if f, ok := n.(*sqlast.FetchStmt); ok {
				if q := st.cursorQueries[strings.ToLower(f.Cursor)]; q != nil && st.nodeTemporal(q) {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// markAccumulators walks the body marking self-referencing assignment
// targets inside per-period iteration as time-varying; it reports
// whether anything changed.
func (st *psState) markAccumulators(stmts []sqlast.Stmt, inPerPeriod bool) bool {
	changed := false
	for _, s := range stmts {
		switch x := s.(type) {
		case *sqlast.SetStmt:
			if inPerPeriod && referencesVar(x.Value, x.Target) {
				k := strings.ToLower(x.Target)
				if !st.tv[k] {
					st.tv[k] = true
					changed = true
				}
			}
		case *sqlast.CompoundStmt:
			changed = st.markAccumulators(x.Stmts, inPerPeriod) || changed
		case *sqlast.IfStmt:
			changed = st.markAccumulators(x.Then, inPerPeriod) || changed
			for _, ei := range x.ElseIfs {
				changed = st.markAccumulators(ei.Then, inPerPeriod) || changed
			}
			changed = st.markAccumulators(x.Else, inPerPeriod) || changed
		case *sqlast.CaseStmt:
			for _, w := range x.Whens {
				changed = st.markAccumulators(w.Then, inPerPeriod) || changed
			}
			changed = st.markAccumulators(x.Else, inPerPeriod) || changed
		case *sqlast.WhileStmt:
			pp := inPerPeriod || st.containsTemporalFetch(x.Body)
			changed = st.markAccumulators(x.Body, pp) || changed
		case *sqlast.RepeatStmt:
			pp := inPerPeriod || st.containsTemporalFetch(x.Body)
			changed = st.markAccumulators(x.Body, pp) || changed
		case *sqlast.LoopStmt:
			pp := inPerPeriod || st.containsTemporalFetch(x.Body)
			changed = st.markAccumulators(x.Body, pp) || changed
		case *sqlast.ForStmt:
			pp := inPerPeriod || st.nodeTemporal(x.Query) || st.containsTemporalFetch(x.Body)
			changed = st.markAccumulators(x.Body, pp) || changed
		}
	}
	return changed
}

// exprTemporal reports whether evaluating e involves temporal data:
// temporal tables (in subqueries), temporal routines, time-varying
// variables, or temporal loop variables.
func (st *psState) exprTemporal(e sqlast.Expr) bool {
	if e == nil {
		return false
	}
	return st.nodeTemporal(e)
}

func (st *psState) nodeTemporal(n sqlast.Node) bool {
	found := false
	sqlast.Walk(n, func(m sqlast.Node) bool {
		switch x := m.(type) {
		case *sqlast.BaseTable:
			if st.tr.Info.IsTemporalTable(x.Name) || st.localTemporal[strings.ToLower(x.Name)] {
				found = true
			}
		case *sqlast.FuncCall:
			if st.a.temporalRoutine(x.Name) {
				found = true
			}
		case *sqlast.ColumnRef:
			if x.Table == "" && st.tv[strings.ToLower(x.Column)] {
				found = true
			}
			if x.Table != "" && st.tempLoopVars[strings.ToLower(x.Table)] {
				found = true
			}
		}
		return !found
	})
	return found
}

func (st *psState) freshAux(prefix string) string {
	st.auxCounter++
	return fmt.Sprintf("taupsm_%s%d", prefix, st.auxCounter)
}
