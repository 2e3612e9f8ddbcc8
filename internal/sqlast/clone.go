package sqlast

import "slices"

// CloneExpr returns a deep copy of an expression.
func CloneExpr(e Expr) Expr { c, _ := clone(e).(Expr); return c }

// CloneQuery returns a deep copy of a query body.
func CloneQuery(q QueryExpr) QueryExpr { c, _ := clone(q).(QueryExpr); return c }

// CloneTableRef returns a deep copy of a FROM-clause element.
func CloneTableRef(r TableRef) TableRef { c, _ := clone(r).(TableRef); return c }

// CloneStmt returns a deep copy of any statement. The transforms in
// internal/core clone a routine or query first, then rewrite the clone
// in place, so the catalog's original AST is never mutated.
func CloneStmt(s Stmt) Stmt { c, _ := clone(s).(Stmt); return c }

// clone is own, then the same for every child: children stores each
// child's clone back into the slot own just un-shared. Nil stays nil.
func clone(n Node) Node {
	if n == nil {
		return nil
	}
	c := own(n)
	children(c, clone)
	return c
}

// own returns a copy of n that shares n's child nodes and nothing else
// that is ever written through. It copies *x whole, so a scalar field
// added to a node is cloned without anyone remembering to, then
// un-shares what a struct copy still shares: the node's own slices and
// the declaration and period structs it points to. (A TypeName's Row,
// like a Literal's Val, is a value nobody edits in place; it stays.)
func own(n Node) Node {
	switch x := n.(type) {
	case *Literal:
		return cp(x)
	case *ColumnRef:
		return cp(x)
	case *BinaryExpr:
		return cp(x)
	case *UnaryExpr:
		return cp(x)
	case *IsNullExpr:
		return cp(x)
	case *BetweenExpr:
		return cp(x)
	case *InExpr:
		c := *x
		c.List = slices.Clone(x.List)
		return &c
	case *ExistsExpr:
		return cp(x)
	case *LikeExpr:
		return cp(x)
	case *CaseExpr:
		c := *x
		c.Whens = slices.Clone(x.Whens)
		return &c
	case *CastExpr:
		return cp(x)
	case *FuncCall:
		c := *x
		c.Args = slices.Clone(x.Args)
		return &c
	case *SubqueryExpr:
		return cp(x)

	case *SelectStmt:
		c := *x
		c.Items = slices.Clone(x.Items)
		c.From = slices.Clone(x.From)
		c.GroupBy = slices.Clone(x.GroupBy)
		c.OrderBy = slices.Clone(x.OrderBy)
		return &c
	case *SetOpExpr:
		c := *x
		c.OrderBy = slices.Clone(x.OrderBy)
		return &c
	case *ValuesExpr:
		c := *x
		c.Rows = slices.Clone(x.Rows)
		for i, row := range c.Rows {
			c.Rows[i] = slices.Clone(row)
		}
		return &c

	case *BaseTable:
		return cp(x)
	case *DerivedTable:
		c := *x
		c.Cols = slices.Clone(x.Cols)
		return &c
	case *TableFunc:
		c := *x
		c.Cols = slices.Clone(x.Cols)
		return &c
	case *JoinExpr:
		return cp(x)

	case *TemporalStmt:
		c := *x
		c.Period = cp(x.Period)
		if c.Ctx = cp(x.Ctx); c.Ctx != nil {
			c.Ctx.Period = cp(c.Ctx.Period)
		}
		return &c
	case *ExplainStmt:
		return cp(x)
	case *AnalyzeStmt:
		return cp(x)
	case *ShowProcessListStmt:
		return cp(x)
	case *KillStmt:
		return cp(x)
	case *InsertStmt:
		c := *x
		c.Cols = slices.Clone(x.Cols)
		return &c
	case *UpdateStmt:
		c := *x
		c.Sets = slices.Clone(x.Sets)
		return &c
	case *DeleteStmt:
		return cp(x)
	case *CreateTableStmt:
		c := *x
		c.Cols = slices.Clone(x.Cols)
		return &c
	case *DropTableStmt:
		return cp(x)
	case *CreateViewStmt:
		c := *x
		c.Cols = slices.Clone(x.Cols)
		return &c
	case *DropViewStmt:
		return cp(x)
	case *AlterAddValidTime:
		return cp(x)
	case *CreateFunctionStmt:
		c := *x
		c.Params = slices.Clone(x.Params)
		c.Options = slices.Clone(x.Options)
		return &c
	case *CreateProcedureStmt:
		c := *x
		c.Params = slices.Clone(x.Params)
		c.Options = slices.Clone(x.Options)
		return &c
	case *DropRoutineStmt:
		return cp(x)

	case *CompoundStmt:
		c := *x
		c.VarDecls = slices.Clone(x.VarDecls)
		for i, d := range c.VarDecls {
			d = cp(d)
			d.Names = slices.Clone(d.Names)
			c.VarDecls[i] = d
		}
		c.Cursors = slices.Clone(x.Cursors)
		for i, d := range c.Cursors {
			c.Cursors[i] = cp(d)
		}
		c.Handlers = slices.Clone(x.Handlers)
		for i, d := range c.Handlers {
			c.Handlers[i] = cp(d)
		}
		c.Stmts = slices.Clone(x.Stmts)
		return &c
	case *SetStmt:
		return cp(x)
	case *IfStmt:
		c := *x
		c.Then = slices.Clone(x.Then)
		c.ElseIfs = slices.Clone(x.ElseIfs)
		for i := range c.ElseIfs {
			c.ElseIfs[i].Then = slices.Clone(c.ElseIfs[i].Then)
		}
		c.Else = slices.Clone(x.Else)
		return &c
	case *CaseStmt:
		c := *x
		c.Whens = slices.Clone(x.Whens)
		for i := range c.Whens {
			c.Whens[i].Then = slices.Clone(c.Whens[i].Then)
		}
		c.Else = slices.Clone(x.Else)
		return &c
	case *WhileStmt:
		c := *x
		c.Body = slices.Clone(x.Body)
		return &c
	case *RepeatStmt:
		c := *x
		c.Body = slices.Clone(x.Body)
		return &c
	case *LoopStmt:
		c := *x
		c.Body = slices.Clone(x.Body)
		return &c
	case *ForStmt:
		c := *x
		c.Body = slices.Clone(x.Body)
		return &c
	case *LeaveStmt:
		return cp(x)
	case *IterateStmt:
		return cp(x)
	case *ReturnStmt:
		return cp(x)
	case *CallStmt:
		c := *x
		c.Args = slices.Clone(x.Args)
		return &c
	case *OpenStmt:
		return cp(x)
	case *FetchStmt:
		c := *x
		c.Into = slices.Clone(x.Into)
		return &c
	case *CloseStmt:
		return cp(x)
	case *SignalStmt:
		return cp(x)
	}
	panic("sqlast: clone of an unknown node type")
}

// cp copies the struct x points to; nil stays nil.
func cp[T any](x *T) *T {
	if x == nil {
		return nil
	}
	c := *x
	return &c
}
