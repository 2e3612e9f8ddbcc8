package engine

// The reference evaluator of TestCompiledEqualsTreeWalk: the tree-walking
// evalExpr, its binder and its builtin dispatch exactly as they were
// before expressions were compiled (compile.go), kept as the oracle the
// compiled form is compared against. Nothing outside the tests uses it.

import (
	"fmt"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// refEval walks bound expression trees. aggVals holds, keyed by bound
// node, the aggregate values of the group being output (nil outside one).
type refEval struct {
	db      *DB
	aggVals map[*sqlast.FuncCall]types.Value
}

// colSlot is a column reference resolved by the reference binder: eval
// reads rows[entry][col] of the level's scope instead of resolving the
// name. entry < 0 records that the name is no column of this level, so
// the dynamic lookup starts at the enclosing scope; col < 0 that the
// qualifier matched an entry lacking the column.
type colSlot struct {
	*sqlast.ColumnRef
	entry, col int
}

// column is the dynamic name resolution of a column reference:
// the scope chain from sc outwards, then PSM variables.
func (ref *refEval) column(ctx *execCtx, sc *rowScope, x *sqlast.ColumnRef) (types.Value, error) {
	v, ok, err := sc.lookup(x.Table, x.Column)
	if err != nil || ok {
		return v, err
	}
	if x.Table == "" {
		if v, ok := ctx.vars.get(strings.ToLower(x.Column)); ok {
			return v, nil
		}
	}
	if x.Table != "" {
		return types.Null, fmt.Errorf("column %s.%s not found", x.Table, x.Column)
	}
	return types.Null, fmt.Errorf("name %s is neither a column in scope nor a variable", x.Column)
}

// eval evaluates a scalar expression in ctx: the tree walker, as it was.
func (ref *refEval) eval(ctx *execCtx, e sqlast.Expr) (types.Value, error) {
	switch x := e.(type) {
	case *sqlast.Literal:
		return x.Val, nil
	case *colSlot:
		switch {
		case x.entry < 0:
			return ref.column(ctx, ctx.scope.parent, x.ColumnRef)
		case x.col < 0:
			return types.Null, fmt.Errorf("column %s.%s does not exist", x.Table, x.Column)
		}
		return ctx.scope.rows[x.entry][x.col], nil
	case *sqlast.ColumnRef:
		return ref.column(ctx, ctx.scope, x)
	case *sqlast.BinaryExpr:
		return ref.binary(ctx, x)
	case *sqlast.UnaryExpr:
		v, err := ref.eval(ctx, x.X)
		if err != nil {
			return types.Null, err
		}
		switch x.Op {
		case "NOT":
			return types.TriboolFromValue(v).Not().Value(), nil
		case "-":
			return types.Arith("-", types.NewInt(0), v)
		}
		return types.Null, fmt.Errorf("unknown unary operator %q", x.Op)
	case *sqlast.IsNullExpr:
		v, err := ref.eval(ctx, x.X)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(v.IsNull() != x.Not), nil
	case *sqlast.BetweenExpr:
		v, err := ref.eval(ctx, x.X)
		if err != nil {
			return types.Null, err
		}
		lo, err := ref.eval(ctx, x.Lo)
		if err != nil {
			return types.Null, err
		}
		hi, err := ref.eval(ctx, x.Hi)
		if err != nil {
			return types.Null, err
		}
		r := types.CompareOp(">=", v, lo).And(types.CompareOp("<=", v, hi))
		if x.Not {
			r = r.Not()
		}
		return r.Value(), nil
	case *sqlast.InExpr:
		return ref.in(ctx, x)
	case *sqlast.ExistsExpr:
		res, err := ref.db.evalQueryLimited(ctx, x.Sub, 1)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool((len(res.Rows) > 0) != x.Not), nil
	case *sqlast.LikeExpr:
		v, err := ref.eval(ctx, x.X)
		if err != nil {
			return types.Null, err
		}
		pat, err := ref.eval(ctx, x.Pattern)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() || pat.IsNull() {
			return types.Null, nil
		}
		m := likeMatch(v.Text(), pat.Text())
		return types.NewBool(m != x.Not), nil
	case *sqlast.CaseExpr:
		return ref.caseExpr(ctx, x)
	case *sqlast.CastExpr:
		v, err := ref.eval(ctx, x.X)
		if err != nil {
			return types.Null, err
		}
		return cast(v, x.Type)
	case *sqlast.FuncCall:
		if ref.aggVals != nil {
			if v, ok := ref.aggVals[x]; ok {
				return v, nil
			}
		}
		return ref.funcCall(ctx, x, false)
	case *sqlast.SubqueryExpr:
		return ref.db.evalScalarSubquery(ctx, x.Query)
	}
	return types.Null, fmt.Errorf("engine: unsupported expression %T", e)
}

func (ref *refEval) binary(ctx *execCtx, x *sqlast.BinaryExpr) (types.Value, error) {
	switch x.Op {
	case "AND":
		l, err := ref.eval(ctx, x.L)
		if err != nil {
			return types.Null, err
		}
		lt := types.TriboolFromValue(l)
		if lt == types.False {
			return types.NewBool(false), nil
		}
		r, err := ref.eval(ctx, x.R)
		if err != nil {
			return types.Null, err
		}
		return lt.And(types.TriboolFromValue(r)).Value(), nil
	case "OR":
		l, err := ref.eval(ctx, x.L)
		if err != nil {
			return types.Null, err
		}
		lt := types.TriboolFromValue(l)
		if lt == types.True {
			return types.NewBool(true), nil
		}
		r, err := ref.eval(ctx, x.R)
		if err != nil {
			return types.Null, err
		}
		return lt.Or(types.TriboolFromValue(r)).Value(), nil
	case "=", "<>", "<", "<=", ">", ">=":
		l, err := ref.eval(ctx, x.L)
		if err != nil {
			return types.Null, err
		}
		r, err := ref.eval(ctx, x.R)
		if err != nil {
			return types.Null, err
		}
		return types.CompareOp(x.Op, l, r).Value(), nil
	default:
		l, err := ref.eval(ctx, x.L)
		if err != nil {
			return types.Null, err
		}
		r, err := ref.eval(ctx, x.R)
		if err != nil {
			return types.Null, err
		}
		return types.Arith(x.Op, l, r)
	}
}

func (ref *refEval) in(ctx *execCtx, x *sqlast.InExpr) (types.Value, error) {
	v, err := ref.eval(ctx, x.X)
	if err != nil {
		return types.Null, err
	}
	result := types.False
	sawNull := v.IsNull()
	if x.Sub != nil {
		res, err := ref.db.evalQuery(ctx, x.Sub)
		if err != nil {
			return types.Null, err
		}
		if len(res.Cols) != 1 {
			return types.Null, fmt.Errorf("IN subquery must return one column, got %d", len(res.Cols))
		}
		for _, r := range res.Rows {
			switch types.CompareOp("=", v, r[0]) {
			case types.True:
				result = types.True
			case types.Unknown:
				sawNull = true
			}
		}
	} else {
		for _, le := range x.List {
			lv, err := ref.eval(ctx, le)
			if err != nil {
				return types.Null, err
			}
			switch types.CompareOp("=", v, lv) {
			case types.True:
				result = types.True
			case types.Unknown:
				sawNull = true
			}
		}
	}
	if result != types.True && sawNull {
		result = types.Unknown
	}
	if x.Not {
		result = result.Not()
	}
	return result.Value(), nil
}

func (ref *refEval) caseExpr(ctx *execCtx, x *sqlast.CaseExpr) (types.Value, error) {
	if x.Operand != nil {
		op, err := ref.eval(ctx, x.Operand)
		if err != nil {
			return types.Null, err
		}
		for _, w := range x.Whens {
			wv, err := ref.eval(ctx, w.When)
			if err != nil {
				return types.Null, err
			}
			if types.CompareOp("=", op, wv) == types.True {
				return ref.eval(ctx, w.Then)
			}
		}
	} else {
		for _, w := range x.Whens {
			wv, err := ref.eval(ctx, w.When)
			if err != nil {
				return types.Null, err
			}
			if types.TriboolFromValue(wv) == types.True {
				return ref.eval(ctx, w.Then)
			}
		}
	}
	if x.Else != nil {
		return ref.eval(ctx, x.Else)
	}
	return types.Null, nil
}

// funcCall dispatches a function invocation: stored routines take
// precedence over builtins, matching a DBMS where user definitions
// shadow library functions of the same name. The catalog is asked on
// every call, so a function created mid-statement shadows at once.
// fromSite marks the call of a FROM source (see callFunction).
func (ref *refEval) funcCall(ctx *execCtx, fc *sqlast.FuncCall, fromSite bool) (types.Value, error) {
	if sqlast.IsAggregate(fc.Name) {
		return types.Null, fmt.Errorf("aggregate %s used outside an aggregation context", fc.Name)
	}
	if r := ref.db.Cat.Routine(fc.Name); r != nil && r.Kind == storage.KindFunction {
		args := make([]operand, len(fc.Args))
		for i, a := range fc.Args {
			args[i] = operand{kind: opFn, fn: func(c *execCtx) (types.Value, error) { return ref.eval(c, a) }}
		}
		return ref.db.callFunction(ctx, r, &callSite{fc: fc, args: args, fromSite: fromSite})
	}
	return ref.builtin(ctx, fc)
}

func (ref *refEval) builtin(ctx *execCtx, fc *sqlast.FuncCall) (types.Value, error) {
	name := strings.ToUpper(fc.Name)
	var few [4]types.Value // as in callFunction: the arguments stay off the heap
	args := few[:]
	if len(fc.Args) > len(few) {
		args = make([]types.Value, len(fc.Args))
	}
	for i, a := range fc.Args {
		// COALESCE evaluates lazily.
		if name == "COALESCE" {
			break
		}
		v, err := ref.eval(ctx, a)
		if err != nil {
			return types.Null, err
		}
		args[i] = v
	}
	arity := func(n int) error {
		if len(fc.Args) != n {
			return fmt.Errorf("%s expects %d argument(s), got %d", name, n, len(fc.Args))
		}
		return nil
	}
	switch name {
	case "CURRENT_DATE", "CURRENT_TIME", "CURRENT_TIMESTAMP":
		return types.NewDate(ref.db.Now), nil
	case "FIRST_INSTANCE":
		// The earlier of two instants (paper Figure 4).
		if err := arity(2); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return types.Null, nil
		}
		if c, ok := types.Compare(args[0], args[1]); ok && c > 0 {
			return args[1], nil
		}
		return args[0], nil
	case "LAST_INSTANCE":
		// The later of two instants (paper Figure 4).
		if err := arity(2); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return types.Null, nil
		}
		if c, ok := types.Compare(args[0], args[1]); ok && c < 0 {
			return args[1], nil
		}
		return args[0], nil
	case "UPPER", "UCASE":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewString(strings.ToUpper(args[0].Text())), nil
	case "LOWER", "LCASE":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewString(strings.ToLower(args[0].Text())), nil
	case "LENGTH", "CHAR_LENGTH", "CHARACTER_LENGTH":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewInt(int64(len(args[0].Text()))), nil
	case "TRIM":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewString(strings.TrimSpace(args[0].Text())), nil
	case "SUBSTR", "SUBSTRING":
		if len(fc.Args) != 2 && len(fc.Args) != 3 {
			return types.Null, fmt.Errorf("%s expects 2 or 3 arguments", name)
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		s := args[0].Text()
		start := 0
		if p := args[1].Int(); p > 1 {
			start = len(s)
			if p-1 < int64(len(s)) {
				start = int(p - 1)
			}
		}
		end := len(s)
		if len(fc.Args) == 3 {
			n := args[2].Int()
			if n < 0 {
				return types.Null, fmt.Errorf("substring error: negative length %d", n)
			}
			if n < int64(end-start) {
				end = start + int(n)
			}
		}
		return types.NewString(s[start:end]), nil
	case "ABS":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		if args[0].Kind == types.KindFloat {
			f := args[0].F
			if f < 0 {
				f = -f
			}
			return types.NewFloat(f), nil
		}
		n := args[0].Int()
		if n < 0 {
			n = -n
		}
		return types.NewInt(n), nil
	case "MOD":
		if err := arity(2); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return types.Null, nil
		}
		d := args[1].Int()
		if d == 0 {
			return types.Null, fmt.Errorf("MOD by zero")
		}
		return types.NewInt(args[0].Int() % d), nil
	case "COALESCE":
		for _, a := range fc.Args {
			v, err := ref.eval(ctx, a)
			if err != nil {
				return types.Null, err
			}
			if !v.IsNull() {
				return v, nil
			}
		}
		return types.Null, nil
	case "NULLIF":
		if err := arity(2); err != nil {
			return types.Null, err
		}
		if types.CompareOp("=", args[0], args[1]) == types.True {
			return types.Null, nil
		}
		return args[0], nil
	case "YEAR":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		day, err := types.Convert(args[0], types.KindDate)
		if err != nil {
			return types.Null, err
		}
		y, _, _ := types.DaysToCivil(day.I)
		return types.NewInt(int64(y)), nil
	case "MONTH":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		day, err := types.Convert(args[0], types.KindDate)
		if err != nil {
			return types.Null, err
		}
		_, m, _ := types.DaysToCivil(day.I)
		return types.NewInt(int64(m)), nil
	case "DAY":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		day, err := types.Convert(args[0], types.KindDate)
		if err != nil {
			return types.Null, err
		}
		_, _, d := types.DaysToCivil(day.I)
		return types.NewInt(int64(d)), nil
	case "DATE":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		return cast(args[0], sqlast.TypeName{Base: "DATE"})
	}
	return types.Null, fmt.Errorf("unknown function %s", fc.Name)
}

// refBinder rewrites the expressions of one query level for execution:
// a copy in which every column reference the entries [lo, hi) of metas
// resolve is a colSlot, so evaluation indexes the level's row scope
// instead of comparing names per row. Subqueries are left as they are —
// each SELECT is bound by its own plan — and so are names that are
// ambiguous here, which the dynamic lookup reports when (and only if) a
// row is evaluated. The AST itself is shared and never modified.
type refBinder struct {
	metas  []storage.Binding
	lo, hi int
	aggs   *[]*sqlast.FuncCall // when set, collects the outermost aggregate calls
}

func (b *refBinder) expr(e sqlast.Expr) sqlast.Expr {
	switch x := e.(type) {
	case *sqlast.ColumnRef:
		return b.column(x)
	case *sqlast.BinaryExpr:
		c := *x
		c.L, c.R = b.expr(x.L), b.expr(x.R)
		return &c
	case *sqlast.UnaryExpr:
		c := *x
		c.X = b.expr(x.X)
		return &c
	case *sqlast.IsNullExpr:
		c := *x
		c.X = b.expr(x.X)
		return &c
	case *sqlast.BetweenExpr:
		c := *x
		c.X, c.Lo, c.Hi = b.expr(x.X), b.expr(x.Lo), b.expr(x.Hi)
		return &c
	case *sqlast.InExpr:
		c := *x
		c.X, c.List = b.expr(x.X), b.exprs(x.List)
		return &c
	case *sqlast.LikeExpr:
		c := *x
		c.X, c.Pattern = b.expr(x.X), b.expr(x.Pattern)
		return &c
	case *sqlast.CaseExpr:
		c := *x
		c.Whens = make([]sqlast.WhenClause, len(x.Whens))
		for i, w := range x.Whens {
			c.Whens[i] = sqlast.WhenClause{When: b.expr(w.When), Then: b.expr(w.Then)}
		}
		if x.Operand != nil {
			c.Operand = b.expr(x.Operand)
		}
		if x.Else != nil {
			c.Else = b.expr(x.Else)
		}
		return &c
	case *sqlast.CastExpr:
		c := *x
		c.X = b.expr(x.X)
		return &c
	case *sqlast.FuncCall:
		c := *x
		aggs := b.aggs
		if sqlast.IsAggregate(x.Name) {
			b.aggs = nil // no nested aggregates
		}
		c.Args = b.exprs(x.Args)
		if b.aggs = aggs; aggs != nil && sqlast.IsAggregate(x.Name) {
			*aggs = append(*aggs, &c)
		}
		return &c
	}
	return e // nil, literals, subqueries, already bound
}

func (b *refBinder) exprs(es []sqlast.Expr) []sqlast.Expr {
	if es == nil {
		return nil
	}
	out := make([]sqlast.Expr, len(es))
	for i, e := range es {
		out[i] = b.expr(e)
	}
	return out
}

// column resolves a reference the way rowScope.lookup would with every
// visible entry bound: a qualifier selects the first entry carrying it,
// a bare name must match exactly one column.
func (b *refBinder) column(x *sqlast.ColumnRef) sqlast.Expr {
	entry, col, matches := -1, -1, 0
	for i := b.lo; i < b.hi; i++ {
		m := b.metas[i]
		if x.Table != "" && !strings.EqualFold(m.Alias, x.Table) {
			continue
		}
		for j, c := range m.Cols {
			if strings.EqualFold(c, x.Column) {
				if matches++; matches == 1 {
					entry, col = i, j
				}
			}
		}
		if x.Table != "" {
			if matches == 0 {
				entry = i // evaluates to "column t.c does not exist"
			}
			matches = 1
			break
		}
	}
	if matches > 1 || entry >= maxSlotEntry {
		return x
	}
	return &colSlot{ColumnRef: x, entry: entry, col: col}
}
