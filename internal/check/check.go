package check

import (
	"fmt"

	"taupsm/internal/core"
	"taupsm/internal/engine"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlscan"
	"taupsm/internal/types"
)

// checker carries the state of one analysis run.
type checker struct {
	cat       Catalog
	diags     []Diagnostic
	inRoutine bool        // analyzing a routine body (late binding: relax table/column severity)
	isFunc    bool        // the routine being defined is a function
	retKind   types.Kind  // declared scalar return kind (KindNull: unknown/procedure/collection)
	curPos    sqlscan.Pos // position of the statement being checked (expression-diagnostic anchor)

	// The engine's layout of the routine or top-level block being
	// checked binds its names; the walk marks each slot and cursor.
	names engine.Names
	marks []mark // by slot
	used  []bool // by cursor
}

// Check analyzes one top-level statement against cat and returns its
// diagnostics sorted by position. CREATE FUNCTION/PROCEDURE statements
// get the full routine analysis (scopes, call graph, control flow,
// temporal applicability); queries and DML are checked for name
// resolution and temporal applicability directly.
func Check(cat Catalog, stmt sqlast.Stmt) []Diagnostic {
	c := &checker{cat: cat}
	c.top(stmt)
	sortDiags(c.diags)
	return c.diags
}

// CheckRoutine analyzes a routine definition. stmt must be a
// *sqlast.CreateFunctionStmt or *sqlast.CreateProcedureStmt.
func CheckRoutine(cat Catalog, stmt sqlast.Stmt) []Diagnostic {
	c := &checker{cat: cat}
	switch x := stmt.(type) {
	case *sqlast.CreateFunctionStmt:
		c.routine(x)
	case *sqlast.CreateProcedureStmt:
		c.routine(x)
	}
	sortDiags(c.diags)
	return c.diags
}

func (c *checker) add(code string, sev Severity, pos sqlscan.Pos, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{Code: code, Severity: sev, Pos: pos,
		Message: fmt.Sprintf(format, args...)})
}

func (c *checker) addHint(code string, sev Severity, pos sqlscan.Pos, hint, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{Code: code, Severity: sev, Pos: pos,
		Message: fmt.Sprintf(format, args...), Hint: hint})
}

// tableSev is the severity for unknown-table/column findings: errors
// at top level, warnings inside routine bodies, where name binding is
// late (a table may legitimately be created before the routine runs,
// even by the routine itself).
func (c *checker) tableSev() Severity {
	if c.inRoutine {
		return Warning
	}
	return Error
}

// top dispatches a top-level statement.
func (c *checker) top(stmt sqlast.Stmt) {
	switch x := stmt.(type) {
	case nil:
	case *sqlast.ExplainStmt:
		c.top(x.Body)
	case *sqlast.CreateFunctionStmt:
		c.routine(x)
	case *sqlast.CreateProcedureStmt:
		c.routine(x)
	case *sqlast.TemporalStmt:
		c.applicability(x)
		c.timeColumnWrites(x.Body, x.Mod)
		c.foldPeriod(x)
		c.stmt(x.Body, &scope{}, nil)
	case *sqlast.CreateViewStmt:
		c.applicability(x)
		c.query(x.Query, &scope{})
	case *sqlast.CreateTableStmt:
		if x.AsQuery != nil {
			c.applicability(x)
			c.query(x.AsQuery, &scope{})
		}
	case *sqlast.DropTableStmt, *sqlast.DropViewStmt, *sqlast.DropRoutineStmt,
		*sqlast.AlterAddValidTime, *sqlast.AnalyzeStmt,
		*sqlast.ShowProcessListStmt, *sqlast.KillStmt:
	default:
		c.applicability(stmt)
		c.timeColumnWrites(stmt, sqlast.ModCurrent)
		c.stmt(stmt, &scope{}, nil)
	}
}

// routine analyzes one CREATE FUNCTION/PROCEDURE definition.
func (c *checker) routine(def sqlast.Stmt) {
	var (
		name   string
		params []sqlast.ParamDef
		body   sqlast.Stmt
		pos    sqlscan.Pos
	)
	switch x := def.(type) {
	case *sqlast.CreateFunctionStmt:
		name, params, body, pos = x.Name, x.Params, x.Body, x.Pos
		c.isFunc = true
		if !x.Returns.IsCollection() {
			c.retKind = x.Returns.Kind()
		}
		c.cat = withRoutine{Catalog: c.cat, name: x.Name, fn: x}
	case *sqlast.CreateProcedureStmt:
		name, params, body, pos = x.Name, x.Params, x.Body, x.Pos
		c.cat = withRoutine{Catalog: c.cat, name: x.Name, proc: x}
	default:
		return
	}
	c.inRoutine = true
	c.bind(params, body, false)
	c.stmt(body, &scope{env: c.names.Root()}, nil)
	c.unused()

	if c.isFunc && !definitelyReturns(body) {
		c.add(CodeMissingRet, Warning, pos, "function %s may end without RETURN", name)
	}
	// A routine in its own body's dependency set reaches itself, directly
	// or mutually: legal at run time, but it defeats the purity cache and
	// is usually a mistake in SQL/PSM, so it is a warning.
	if core.Summarize(c.cat, nil, body).Routines[fold(name)] {
		c.add(CodeRecursion, Warning, pos, "routine %s is directly or mutually recursive", name)
	}
	c.perstRoutine(name, pos)
}
