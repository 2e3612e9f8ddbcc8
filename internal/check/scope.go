package check

import (
	"cmp"
	"errors"
	"fmt"
	"strings"

	"taupsm/internal/engine"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlscan"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// rowEntry is one FROM-clause binding (or loop-variable binding)
// visible to column references.
type rowEntry struct {
	alias string       // folded, "" when the source has no name
	cols  []string     // output columns; nil when not known statically (opaque)
	kinds []types.Kind // column kinds, parallel to cols; nil when unknown
}

func (r *rowEntry) opaque() bool { return r.cols == nil }

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
	if r.opaque() {
		return true
	}
	for _, c := range r.cols {
		if strings.EqualFold(c, name) {
			return true
		}
	}
	return false
}

// scope is one level of a statement: a block, or a query's FROM
// bindings. Levels chain outward. env is where the statement stands in
// the engine's layout of the body (c.names), which binds its variables,
// cursors and temporary tables.
type scope struct {
	parent *scope
	env    engine.Scope
	rows   []rowEntry
}

func newScope(parent *scope) *scope { return &scope{parent: parent, env: parent.env} }

// mark is what the walk has seen of one slot of the layout.
type mark struct {
	read, written, warned bool
	live                  bool            // a temporary table's: created, and not dropped since, in walk order
	schema                *storage.Schema // a table slot's columns; nil while not named statically
}

// bind lays out the names of body as the engine does when it runs it.
func (c *checker) bind(params []sqlast.ParamDef, body sqlast.Stmt, top bool) {
	c.names = engine.BindNames(params, body, top)
	c.marks = make([]mark, len(c.names.Slots))
	c.used = make([]bool, len(c.names.Cursors))
	for i, d := range c.names.Slots {
		if d.Create == nil && d.IsTable() {
			c.marks[i].schema = (*storage.Routine)(nil).CollectionSchema(d.Type)
		}
	}
}

// bound returns the first of slots (a name's, innermost first) that
// holds the name where the walk stands, -1 for none: a temporary table's
// only while it exists.
func (c *checker) bound(slots []int32) int32 {
	for _, i := range slots {
		if c.names.Slots[i].Create == nil || c.marks[i].live {
			return i
		}
	}
	return -1
}

// decl is what declared slot i.
func (c *checker) decl(i int32) *engine.Decl { return &c.names.Slots[i] }

// relation names what a relation name reaches where env stands, as the
// engine resolves it (execCtx.RelationColumns): a table slot bound there
// (slot ≥ 0), then the catalog.
func (c *checker) relation(name string, env engine.Scope) (cols []string, kinds []types.Kind, slot int32, err error) {
	if i := c.bound(env.Table(name)); i >= 0 {
		if s := c.marks[i].schema; s != nil {
			return s.Names(), s.Kinds(), i, nil
		}
		return nil, nil, i, storage.ErrUnnamed
	}
	if cols = c.cat.TableColumns(name); cols != nil {
		return cols, c.cat.TableColumnKinds(name), -1, nil
	}
	if c.cat.IsTable(name) || c.cat.ViewQuery(name) != nil {
		return nil, nil, -1, storage.ErrUnnamed
	}
	return nil, nil, -1, fmt.Errorf("table or view %s does not exist", name)
}

// relations is the checker's relation naming read as storage.Relations.
type relations struct {
	c   *checker
	env engine.Scope
}

func (r relations) RelationColumns(name string) ([]string, error) {
	cols, _, _, err := r.c.relation(name, r.env)
	return cols, err
}

func (r relations) Function(name string) *sqlast.CreateFunctionStmt { return r.c.cat.Function(name) }

// columns names the output columns of a query, a cursor's or a loop's
// included, as the engine will: nil when it reads a relation whose
// columns are not known statically, or is wrapped in a temporal
// modifier, which appends period columns at run time.
func (c *checker) columns(q sqlast.Node, sc *scope) []string {
	x, ok := q.(sqlast.QueryExpr)
	if !ok {
		return nil
	}
	cols, _ := storage.QueryColumns(relations{c, sc.env}, x)
	return cols
}

// anyOpaque reports whether any visible FROM binding has statically
// unknown columns, in which case unresolved names must not be reported
// (they may well be columns of that binding).
func (s *scope) anyOpaque() bool {
	for sc := s; sc != nil; sc = sc.parent {
		for i := range sc.rows {
			if sc.rows[i].opaque() {
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

// markRead records a read of slot i, reporting use-before-declare once.
func (c *checker) markRead(i int32, use sqlscan.Pos) {
	c.marks[i].read = true
	c.useBeforeDecl(i, use)
}

func (c *checker) useBeforeDecl(i int32, use sqlscan.Pos) {
	d, m, zero := c.decl(i), &c.marks[i], sqlscan.Pos{}
	if m.warned || d.Param || use == zero || d.Pos == zero ||
		use.Line > d.Pos.Line || use.Line == d.Pos.Line && use.Col >= d.Pos.Col {
		return
	}
	m.warned = true
	c.add(CodeUseBeforeDec, Warning, use,
		"%s is used before its declaration at %s (declarations are hoisted, but this is fragile)",
		d.Name, d.Pos)
}

// unused reports the variables and cursors nothing reads (TAU010) and
// the names a block declares twice (TAU012), once the walk is done.
func (c *checker) unused() {
	for i, d := range c.names.Slots {
		switch m := c.marks[i]; {
		case d.Param || d.Create != nil || m.read:
		case m.written:
			c.add(CodeDeadStore, Warning, d.Pos, "value assigned to %s is never read", d.Name)
		default:
			c.add(CodeDeadStore, Warning, d.Pos, "variable %s is declared but never used", d.Name)
		}
	}
	for i, d := range c.names.Cursors {
		if !c.used[i] {
			c.add(CodeDeadStore, Warning, d.Pos, "cursor %s is declared but never used", d.Name)
		}
	}
	for _, d := range c.names.Duplicates {
		switch {
		case d.Param:
			c.add(CodeDuplicate, Warning, d.Pos, "duplicate parameter %s", d.Name)
		case d.Query != nil:
			c.add(CodeDuplicate, Warning, d.Pos, "duplicate declaration of cursor %s", d.Name)
		default:
			c.add(CodeDuplicate, Warning, d.Pos, "duplicate declaration of %s", d.Name)
		}
	}
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

// entry is the FROM binding a column reference reaches: its alias's, or
// for a bare name the first providing the column (SQL scoping); nil for
// none.
func (sc *scope) entry(x *sqlast.ColumnRef) *rowEntry {
	if x.Table != "" {
		return sc.aliasEntry(x.Table)
	}
	for s := sc; s != nil; s = s.parent {
		for i := range s.rows {
			if s.rows[i].hasCol(x.Column) {
				return &s.rows[i]
			}
		}
	}
	return nil
}

// columnRef resolves a name the way the engine does: FROM bindings
// first (SQL scoping), then variables.
func (c *checker) columnRef(x *sqlast.ColumnRef, sc *scope) {
	e := sc.entry(x)
	switch {
	case x.Table != "" && e != nil && !e.hasCol(x.Column):
		c.add(CodeUnknownColumn, c.tableSev(), x.Pos,
			"column %s.%s does not exist", x.Table, x.Column)
	case x.Table != "" && e == nil && !sc.anyOpaque():
		c.add(CodeUnknownColumn, c.tableSev(), x.Pos,
			"column %s.%s not found", x.Table, x.Column)
	}
	if x.Table != "" || e != nil {
		return
	}
	if i := c.bound(sc.env.Name(x.Column)); i >= 0 {
		c.markRead(i, x.Pos)
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

// fromRef binds one FROM element in sc, named as the engine names it
// (storage.Bindings); its kinds come from the catalog or the collection
// type. An element whose columns are not named statically keeps its
// alias, opaque. A join's condition is checked once both sides are bound.
func (c *checker) fromRef(ref sqlast.TableRef, sc *scope) {
	var kinds []types.Kind
	e := rowEntry{}
	switch x := ref.(type) {
	case *sqlast.JoinExpr:
		c.fromRef(x.L, sc)
		c.fromRef(x.R, sc)
		c.expr(x.On, sc)
		return
	case *sqlast.BaseTable:
		e.alias = fold(cmp.Or(x.Alias, x.Name))
		var i int32
		var err error
		if _, kinds, i, err = c.relation(x.Name, sc.env); i >= 0 {
			c.markRead(i, x.Pos)
		} else if err != nil && !errors.Is(err, storage.ErrUnnamed) {
			c.add(CodeUnknownTable, c.tableSev(), x.Pos, "%v", err)
		}
	case *sqlast.DerivedTable:
		e.alias = fold(x.Alias)
		c.query(x.Query, sc.parent)
	case *sqlast.TableFunc:
		e.alias = fold(x.Alias)
		c.expr(x.Call, sc)
		if fn := c.cat.Function(x.Call.Name); fn != nil && x.Cols == nil && fn.Returns.IsCollection() {
			kinds = (*storage.Routine)(nil).CollectionSchema(&fn.Returns).Kinds()
		}
	}
	if bs, err := storage.Bindings(relations{c, sc.env}, ref); err == nil {
		e.cols, e.kinds = bs[0].Cols, kinds
	}
	sc.rows = append(sc.rows, e)
}
