package check

import (
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/sqlscan"
	"taupsm/internal/types"
)

// varInfo tracks one declared variable or parameter.
type varInfo struct {
	name       string // folded
	display    string
	declPos    sqlscan.Pos
	isParam    bool
	mode       sqlast.ParamMode
	collection bool
	kind       types.Kind   // declared scalar kind; KindNull when unknown
	rowCols    []string     // ROW field names for collection types
	rowKinds   []types.Kind // ROW field kinds, parallel to rowCols
	read       bool
	written    bool
	warnedUse  bool // use-before-declare already reported
}

// cursorInfo tracks one declared cursor.
type cursorInfo struct {
	name    string // folded
	display string
	declPos sqlscan.Pos
	query   sqlast.Stmt
	used    bool
}

// rowEntry is one FROM-clause binding (or loop-variable binding)
// visible to column references.
type rowEntry struct {
	alias  string       // folded, "" when the source has no name
	cols   []string     // output columns; nil when unknown
	kinds  []types.Kind // column kinds, parallel to cols; nil when unknown
	opaque bool         // columns not statically known
}

// kindOf returns the statically-known kind of the named column, or
// KindNull when the entry's kinds are unknown or the column is absent.
func (r *rowEntry) kindOf(name string) types.Kind {
	if r.kinds == nil {
		return types.KindNull
	}
	for i, c := range r.cols {
		if i < len(r.kinds) && strings.EqualFold(c, name) {
			return r.kinds[i]
		}
	}
	return types.KindNull
}

func (r *rowEntry) hasCol(name string) bool {
	if r.opaque {
		return true
	}
	for _, c := range r.cols {
		if strings.EqualFold(c, name) {
			return true
		}
	}
	return false
}

// scope is one lexical frame: a routine's parameter frame, a BEGIN/END
// block, or a query's FROM bindings. Frames chain outward.
type scope struct {
	parent  *scope
	vars    []*varInfo
	cursors []*cursorInfo
	rows    []rowEntry
}

func newScope(parent *scope) *scope { return &scope{parent: parent} }

func (s *scope) localVar(name string) *varInfo {
	f := fold(name)
	for _, v := range s.vars {
		if v.name == f {
			return v
		}
	}
	return nil
}

func (s *scope) lookupVar(name string) *varInfo {
	for sc := s; sc != nil; sc = sc.parent {
		if v := sc.localVar(name); v != nil {
			return v
		}
	}
	return nil
}

func (s *scope) localCursor(name string) *cursorInfo {
	f := fold(name)
	for _, c := range s.cursors {
		if c.name == f {
			return c
		}
	}
	return nil
}

func (s *scope) lookupCursor(name string) *cursorInfo {
	for sc := s; sc != nil; sc = sc.parent {
		if c := sc.localCursor(name); c != nil {
			return c
		}
	}
	return nil
}

// anyOpaque reports whether any visible FROM binding has statically
// unknown columns, in which case unresolved names must not be reported
// (they may well be columns of that binding).
func (s *scope) anyOpaque() bool {
	for sc := s; sc != nil; sc = sc.parent {
		for i := range sc.rows {
			if sc.rows[i].opaque {
				return true
			}
		}
	}
	return false
}

// aliasEntry finds the FROM binding with the given alias.
func (s *scope) aliasEntry(alias string) *rowEntry {
	f := fold(alias)
	for sc := s; sc != nil; sc = sc.parent {
		for i := range sc.rows {
			if sc.rows[i].alias == f {
				return &sc.rows[i]
			}
		}
	}
	return nil
}

// posBefore reports a < b in source order (both nonzero).
func posBefore(a, b sqlscan.Pos) bool {
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}

// markRead records a read of v, reporting use-before-declare once.
func (c *checker) markRead(v *varInfo, use sqlscan.Pos) {
	v.read = true
	c.useBeforeDecl(v, use)
}

func (c *checker) useBeforeDecl(v *varInfo, use sqlscan.Pos) {
	if v.warnedUse || v.isParam {
		return
	}
	zero := sqlscan.Pos{}
	if use == zero || v.declPos == zero || !posBefore(use, v.declPos) {
		return
	}
	v.warnedUse = true
	c.add(CodeUseBeforeDec, Warning, use,
		"%s is used before its declaration at %s (declarations are hoisted, but this is fragile)",
		v.display, v.declPos)
}

// ---------- Expressions ----------

func (c *checker) expr(e sqlast.Expr, sc *scope) {
	switch x := e.(type) {
	case nil, *sqlast.Literal:
	case *sqlast.ColumnRef:
		c.columnRef(x, sc)
	case *sqlast.BinaryExpr:
		c.expr(x.L, sc)
		c.expr(x.R, sc)
		c.checkBinary(x, sc)
	case *sqlast.UnaryExpr:
		c.expr(x.X, sc)
		c.checkUnary(x, sc)
	case *sqlast.IsNullExpr:
		c.expr(x.X, sc)
	case *sqlast.BetweenExpr:
		c.expr(x.X, sc)
		c.expr(x.Lo, sc)
		c.expr(x.Hi, sc)
	case *sqlast.InExpr:
		c.expr(x.X, sc)
		for _, it := range x.List {
			c.expr(it, sc)
		}
		if x.Sub != nil {
			c.query(x.Sub, sc)
		}
	case *sqlast.ExistsExpr:
		c.query(x.Sub, sc)
	case *sqlast.LikeExpr:
		c.expr(x.X, sc)
		c.expr(x.Pattern, sc)
	case *sqlast.CaseExpr:
		c.expr(x.Operand, sc)
		for _, w := range x.Whens {
			c.expr(w.When, sc)
			c.expr(w.Then, sc)
		}
		c.expr(x.Else, sc)
	case *sqlast.CastExpr:
		c.expr(x.X, sc)
	case *sqlast.FuncCall:
		c.funcCall(x, sc)
	case *sqlast.SubqueryExpr:
		c.query(x.Query, sc)
	}
}

// columnRef resolves a name the way the engine does: FROM bindings
// first (SQL scoping), then variables.
func (c *checker) columnRef(x *sqlast.ColumnRef, sc *scope) {
	if x.Table != "" {
		if e := sc.aliasEntry(x.Table); e != nil {
			if !e.hasCol(x.Column) {
				c.add(CodeUnknownColumn, c.tableSev(), x.Pos,
					"column %s.%s does not exist", x.Table, x.Column)
			}
			return
		}
		if !sc.anyOpaque() {
			c.add(CodeUnknownColumn, c.tableSev(), x.Pos,
				"column %s.%s not found", x.Table, x.Column)
		}
		return
	}
	// Bare name: any FROM binding providing the column wins.
	for s := sc; s != nil; s = s.parent {
		for i := range s.rows {
			if s.rows[i].hasCol(x.Column) {
				return
			}
		}
	}
	if v := sc.lookupVar(x.Column); v != nil {
		c.markRead(v, x.Pos)
		return
	}
	if sc.anyOpaque() {
		return
	}
	c.addHint(CodeUndeclaredVar, Error, x.Pos,
		"declare the variable with DECLARE, or check the column name",
		"name %s is neither a column in scope nor a variable", x.Column)
}

func (c *checker) funcCall(x *sqlast.FuncCall, sc *scope) {
	for _, a := range x.Args {
		c.expr(a, sc)
	}
	if fn := c.cat.Function(x.Name); fn != nil {
		if len(x.Args) != len(fn.Params) {
			c.add(CodeBadArity, Error, x.Pos,
				"function %s expects %d arguments, got %d",
				x.Name, len(fn.Params), len(x.Args))
			return
		}
		c.checkArgs(x.Name, fn.Params, x.Args, sc, x.Pos)
		return
	}
	if c.cat.Procedure(x.Name) != nil {
		c.addHint(CodeKindMismatch, Error, x.Pos,
			"use CALL "+x.Name+"(...) as a statement",
			"%s is a procedure; it cannot be invoked in an expression", x.Name)
		return
	}
	if sqlast.IsAggregate(x.Name) {
		// Evaluated by the grouping machinery, not the scalar builtin
		// dispatcher; context (HAVING vs WHERE) is not modeled.
		return
	}
	if bi := types.BuiltinNamed(x.Name); bi != nil {
		if err := bi.Arity(x.Name, len(x.Args)); err != nil {
			c.add(CodeBadArity, Error, x.Pos, "%v", err)
		}
		return
	}
	c.add(CodeUnknownRoutine, Error, x.Pos, "unknown function %s", x.Name)
}

// ---------- Queries and FROM resolution ----------

func (c *checker) query(q sqlast.QueryExpr, parent *scope) {
	switch x := q.(type) {
	case nil:
	case *sqlast.SelectStmt:
		c.selectStmt(x, parent)
	case *sqlast.SetOpExpr:
		c.query(x.L, parent)
		c.query(x.R, parent)
		// ORDER BY on a set operation addresses output columns or
		// ordinals; no scope to check against.
	case *sqlast.ValuesExpr:
		for _, row := range x.Rows {
			for _, e := range row {
				c.expr(e, parent)
			}
		}
	}
}

func (c *checker) selectStmt(s *sqlast.SelectStmt, parent *scope) {
	sc := newScope(parent)
	for _, ref := range s.From {
		c.fromRef(ref, sc)
	}
	for _, it := range s.Items {
		switch {
		case it.Star:
		case it.TableStar != "":
			if sc.aliasEntry(it.TableStar) == nil && !sc.anyOpaque() {
				c.add(CodeUnknownColumn, c.tableSev(), s.Pos,
					"column %s.* not found", it.TableStar)
			}
		default:
			c.expr(it.Expr, sc)
		}
	}
	// Select-list aliases are referable from GROUP BY / ORDER BY;
	// expose them as an extra unnamed binding.
	var aliases []string
	for _, it := range s.Items {
		if it.Alias != "" {
			aliases = append(aliases, it.Alias)
		}
	}
	if len(aliases) > 0 {
		sc.rows = append(sc.rows, rowEntry{cols: aliases})
	}
	c.expr(s.Where, sc)
	c.condition(s.Where, s.Pos, sc)
	for _, g := range s.GroupBy {
		c.expr(g, sc)
	}
	c.expr(s.Having, sc)
	c.condition(s.Having, s.Pos, sc)
	for _, o := range s.OrderBy {
		c.expr(o.Expr, sc)
	}
	c.expr(s.Limit, sc)
}

// fromRef resolves one FROM element, appending its bindings to sc.
// Join conditions are checked after both sides are bound.
func (c *checker) fromRef(ref sqlast.TableRef, sc *scope) {
	switch x := ref.(type) {
	case *sqlast.BaseTable:
		alias := x.Alias
		if alias == "" {
			alias = x.Name
		}
		// A collection-typed variable is a legal row source.
		if v := sc.lookupVar(x.Name); v != nil && v.collection {
			c.markRead(v, x.Pos)
			sc.rows = append(sc.rows, rowEntry{alias: fold(alias),
				cols: v.rowCols, kinds: v.rowKinds, opaque: v.rowCols == nil})
			return
		}
		if cols := c.cat.TableColumns(x.Name); cols != nil {
			sc.rows = append(sc.rows, rowEntry{alias: fold(alias), cols: cols,
				kinds: c.cat.TableColumnKinds(x.Name)})
			return
		}
		if c.cat.IsTable(x.Name) || c.cat.View(x.Name) != nil {
			sc.rows = append(sc.rows, rowEntry{alias: fold(alias), opaque: true})
			return
		}
		c.add(CodeUnknownTable, c.tableSev(), x.Pos,
			"table or view %s does not exist", x.Name)
		sc.rows = append(sc.rows, rowEntry{alias: fold(alias), opaque: true})
	case *sqlast.DerivedTable:
		c.query(x.Query, sc.parent)
		cols := x.Cols
		if cols == nil {
			cols = deriveQueryCols(x.Query)
		}
		sc.rows = append(sc.rows, rowEntry{alias: fold(x.Alias),
			cols: cols, opaque: cols == nil})
	case *sqlast.TableFunc:
		c.expr(x.Call, sc)
		cols := x.Cols
		var kinds []types.Kind
		if cols == nil {
			if fn := c.cat.Function(x.Call.Name); fn != nil && fn.Returns.IsCollection() {
				cols = rowColNames(fn.Returns)
				kinds = rowColKinds(fn.Returns)
			}
		}
		sc.rows = append(sc.rows, rowEntry{alias: fold(x.Alias),
			cols: cols, kinds: kinds, opaque: cols == nil})
	case *sqlast.JoinExpr:
		c.fromRef(x.L, sc)
		c.fromRef(x.R, sc)
		c.expr(x.On, sc)
	}
}

// queryScope builds the row binding a FOR loop or cursor produces.
func loopEntry(alias string, q sqlast.Stmt) rowEntry {
	cols := cursorCols(q)
	return rowEntry{alias: fold(alias), cols: cols, opaque: cols == nil}
}

// cursorCols derives the output columns of a cursor/loop query, or nil
// when unknown (temporal wrappers append period columns at run time,
// so their shape is left opaque).
func cursorCols(q sqlast.Stmt) []string {
	switch x := q.(type) {
	case *sqlast.TemporalStmt:
		return nil
	case sqlast.QueryExpr:
		return deriveQueryCols(x)
	}
	return nil
}
