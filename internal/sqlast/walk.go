package sqlast

// children is the one place that knows which nodes a node holds: it
// calls f on every non-nil child slot of n — expressions, queries, table
// references, statements, period bounds, and the slots of the
// declarations a block owns — in source order, and stores back what f
// returns. Walk, Rewrite, MapExprs and the cloner derive from it; a slot
// missing here fails TestTraversalsAgree (internal/sqlparser), which
// finds child nodes by reflection.
func children(n Node, f func(Node) Node) {
	switch x := n.(type) {
	// ----- expressions -----
	case *BinaryExpr:
		slot(&x.L, f)
		slot(&x.R, f)
	case *UnaryExpr:
		slot(&x.X, f)
	case *IsNullExpr:
		slot(&x.X, f)
	case *BetweenExpr:
		slot(&x.X, f)
		slot(&x.Lo, f)
		slot(&x.Hi, f)
	case *InExpr:
		slot(&x.X, f)
		slots(x.List, f)
		slot(&x.Sub, f)
	case *ExistsExpr:
		slot(&x.Sub, f)
	case *LikeExpr:
		slot(&x.X, f)
		slot(&x.Pattern, f)
	case *CaseExpr:
		slot(&x.Operand, f)
		for i := range x.Whens {
			slot(&x.Whens[i].When, f)
			slot(&x.Whens[i].Then, f)
		}
		slot(&x.Else, f)
	case *CastExpr:
		slot(&x.X, f)
	case *FuncCall:
		slots(x.Args, f)
	case *SubqueryExpr:
		slot(&x.Query, f)

	// ----- queries -----
	case *SelectStmt:
		for i := range x.Items {
			slot(&x.Items[i].Expr, f)
		}
		slots(x.From, f)
		slot(&x.Where, f)
		slots(x.GroupBy, f)
		slot(&x.Having, f)
		for i := range x.OrderBy {
			slot(&x.OrderBy[i].Expr, f)
		}
		slot(&x.Limit, f)
	case *SetOpExpr:
		slot(&x.L, f)
		slot(&x.R, f)
		for i := range x.OrderBy {
			slot(&x.OrderBy[i].Expr, f)
		}
	case *ValuesExpr:
		for _, row := range x.Rows {
			slots(row, f)
		}

	// ----- table refs -----
	case *DerivedTable:
		slot(&x.Query, f)
	case *TableFunc:
		if x.Call != nil {
			slot(&x.Call, f)
		}
	case *JoinExpr:
		slot(&x.L, f)
		slot(&x.R, f)
		slot(&x.On, f)

	// ----- statements -----
	case *TemporalStmt:
		if x.Period != nil {
			slot(&x.Period.Begin, f)
			slot(&x.Period.End, f)
		}
		if x.Ctx != nil && x.Ctx.Period != nil {
			slot(&x.Ctx.Period.Begin, f)
			slot(&x.Ctx.Period.End, f)
		}
		slot(&x.Body, f)
	case *ExplainStmt:
		slot(&x.Body, f)
	case *InsertStmt:
		slot(&x.Source, f)
	case *UpdateStmt:
		for i := range x.Sets {
			slot(&x.Sets[i].Value, f)
		}
		slot(&x.Where, f)
	case *DeleteStmt:
		slot(&x.Where, f)
	case *CreateTableStmt:
		slot(&x.AsQuery, f)
	case *CreateViewStmt:
		slot(&x.Query, f)
	case *CreateFunctionStmt:
		slot(&x.Body, f)
	case *CreateProcedureStmt:
		slot(&x.Body, f)
	case *CompoundStmt:
		for _, d := range x.VarDecls {
			slot(&d.Default, f)
		}
		for _, c := range x.Cursors {
			slot(&c.Query, f)
		}
		for _, h := range x.Handlers {
			slot(&h.Action, f)
		}
		slots(x.Stmts, f)
	case *SetStmt:
		slot(&x.Value, f)
	case *IfStmt:
		slot(&x.Cond, f)
		slots(x.Then, f)
		for i := range x.ElseIfs {
			slot(&x.ElseIfs[i].Cond, f)
			slots(x.ElseIfs[i].Then, f)
		}
		slots(x.Else, f)
	case *CaseStmt:
		slot(&x.Operand, f)
		for i := range x.Whens {
			slot(&x.Whens[i].When, f)
			slots(x.Whens[i].Then, f)
		}
		slots(x.Else, f)
	case *WhileStmt:
		slot(&x.Cond, f)
		slots(x.Body, f)
	case *RepeatStmt:
		slots(x.Body, f)
		slot(&x.Until, f)
	case *LoopStmt:
		slots(x.Body, f)
	case *ForStmt:
		slot(&x.Query, f)
		slots(x.Body, f)
	case *ReturnStmt:
		slot(&x.Value, f)
	case *CallStmt:
		slots(x.Args, f)
	}
}

// slot passes the child held in *p, unless the slot is empty, through f
// and stores a replacement back, which must fit the slot's type. A slot
// f leaves alone is not written: Walk over a tree other goroutines are
// reading (a routine definition in the catalog) stays a read.
func slot[T Node](p *T, f func(Node) Node) {
	if old := Node(*p); old != nil {
		if c := f(old); c != old {
			*p = c.(T)
		}
	}
}

func slots[T Node](s []T, f func(Node) Node) {
	for i := range s {
		slot(&s[i], f)
	}
}

// Walk traverses the AST rooted at n in depth-first pre-order, calling
// visit for every node (statements, queries, table references, and
// expressions). If visit returns false for a node, its children are
// skipped.
func Walk(n Node, visit func(Node) bool) {
	if n != nil && visit(n) {
		children(n, func(c Node) Node { Walk(c, visit); return c })
	}
}

// Rewrite rebuilds the AST rooted at n bottom-up and in place: every
// node's children are rewritten first and stored back into their slots,
// then the node itself goes through f, whose result takes its place. It
// returns what f made of the root. A replacement is not descended into.
func Rewrite(n Node, f func(Node) Node) Node {
	if n == nil {
		return nil
	}
	children(n, func(c Node) Node { return Rewrite(c, f) })
	return f(n)
}

// MapExprs is Rewrite for expressions only: every expression contained
// in the AST rooted at n (including those inside subqueries, PSM
// statement bodies, declarations and period bounds) goes through f,
// bottom-up, and every other node stays. A caller that must replace the
// root expression itself uses Rewrite.
func MapExprs(n Node, f func(Expr) Expr) {
	Rewrite(n, func(m Node) Node {
		if e, ok := m.(Expr); ok {
			return f(e)
		}
		return m
	})
}
