package engine

import (
	"fmt"
	"strings"
	"sync/atomic"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// The evaluator is a compiler. An expression is turned, once, into a
// closure over *execCtx — when the plan of its SELECT is built, or on the
// first execution of the routine statement it belongs to (DB.rootExpr) —
// and every evaluation runs the closure: node kinds and operators are
// decided at compile time, a column of the plan's own query level is an
// index into the level's row scope, a call site keeps what its name
// resolved to. Compilation never fails: whatever is wrong with an
// expression (an unknown column, function or operator, an aggregate out
// of place) is raised by its closure when — and only if — a row gets that
// far. A compiled expression is immutable but for the resolution a call
// site caches atomically, so plans are shared by concurrent sessions;
// what an execution writes lives in its level and its session.

// evalFn is a compiled expression.
type evalFn func(*execCtx) (types.Value, error)

// testFn is a compiled predicate in its truth-valued form: conjuncts and
// conditions run it, so a comparison's result is never boxed into a
// Value only to be unboxed by the filter.
type testFn func(*execCtx) (types.Tribool, error)

// binder compiles the expressions of one query level: every column
// reference the entries [lo, hi) of metas resolve becomes a read of
// rows[entry][col] of the level's row scope, instead of a name compared
// per row. Subqueries are compiled by their own plans, and names this
// level cannot decide — ambiguous here, or no column of it — stay
// dynamic: the lookup reports or resolves them when (and only if) a row
// is evaluated. A nil binder compiles an expression that belongs to no
// query level (a routine statement's): every name is dynamic. The AST is
// shared and never modified.
type binder struct {
	metas  []storage.Binding
	lo, hi int
	aggs   *[]aggPlan // when set, collects the outermost aggregate calls
}

// noLevel compiles an expression that belongs to no query level.
var noLevel *binder

// maxSlotEntry bounds the entries a conjunct's entSet can record;
// references beyond it stay dynamic.
const maxSlotEntry = 64

// resolve decides a reference the way rowScope.lookup would with every
// visible entry bound: a qualifier selects the first entry carrying it,
// a bare name must match exactly one column. entry < 0 records that the
// name is no column of this level, so the dynamic lookup starts at the
// enclosing scope; col < 0 that the qualifier matched an entry lacking
// the column; bound=false that the level cannot tell.
func (b *binder) resolve(x *sqlast.ColumnRef) (entry, col int, bound bool) {
	if b == nil {
		return -1, -1, false
	}
	entry, col = -1, -1
	matches := 0
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
	return entry, col, matches <= 1 && entry < maxSlotEntry
}

// nameRef is a reference resolved by name when it is evaluated: an
// outer-query column, a PSM variable or a parameter (one SELECT node is
// reached from different frames, so these cannot be slots of its plan).
// It carries the name folded the way variable frames store names; under
// an empty scope chain — every top-level SELECT of a routine body — the
// lookup is one varFrame.get.
type nameRef struct {
	*sqlast.ColumnRef
	key   string
	outer bool // the plan ruled out its own level: start at the enclosing scope
}

func (n *nameRef) eval(ctx *execCtx) (types.Value, error) {
	sc := ctx.scope
	if n.outer {
		sc = sc.parent
	}
	v, ok, err := sc.lookup(n.Table, n.Column)
	if err != nil || ok {
		return v, err
	}
	if n.Table != "" {
		return types.Null, fmt.Errorf("column %s.%s not found", n.Table, n.Column)
	}
	if v, ok := ctx.vars.get(n.key); ok {
		return v, nil
	}
	return types.Null, fmt.Errorf("name %s is neither a column in scope nor a variable", n.Column)
}

// operand is where a compiled node finds one of its operands. The three
// shapes the translators emit by the thousand — a column of the plan's
// own level, a literal, a variable or parameter — are read where they
// are, with no closure call; anything else is a compiled expression whose
// value get parks in the caller's temporary.
type operand struct {
	entry, col int32        // a slot of the level's row scope, when the rest is unset
	lit        *types.Value // a literal of the statement
	name       *nameRef
	fn         evalFn
}

func (b *binder) operand(e sqlast.Expr) operand {
	switch x := e.(type) {
	case *sqlast.Literal:
		return operand{lit: &x.Val}
	case *sqlast.ColumnRef:
		entry, col, bound := b.resolve(x)
		switch {
		case !bound || entry < 0:
			return operand{name: &nameRef{ColumnRef: x, key: strings.ToLower(x.Column), outer: bound}}
		case col >= 0:
			return operand{entry: int32(entry), col: int32(col)}
		}
		return operand{fn: func(*execCtx) (types.Value, error) {
			return types.Null, fmt.Errorf("column %s.%s does not exist", x.Table, x.Column)
		}}
	}
	return operand{fn: b.expr(e)}
}

func (o operand) get(ctx *execCtx, tmp *types.Value) (*types.Value, error) {
	var err error
	switch {
	case o.lit != nil:
		return o.lit, nil
	case o.name != nil:
		*tmp, err = o.name.eval(ctx)
	case o.fn != nil:
		*tmp, err = o.fn(ctx)
	default:
		return &ctx.scope.rows[o.entry][o.col], nil
	}
	return tmp, err
}

// expr compiles e to its value.
func (b *binder) expr(e sqlast.Expr) evalFn {
	switch x := e.(type) {
	case *sqlast.Literal:
		return func(*execCtx) (types.Value, error) { return x.Val, nil }
	case *sqlast.ColumnRef:
		o := b.operand(x)
		switch {
		case o.name != nil:
			return o.name.eval
		case o.fn != nil:
			return o.fn
		}
		return func(ctx *execCtx) (types.Value, error) { return ctx.scope.rows[o.entry][o.col], nil }
	case *sqlast.BinaryExpr:
		if op := types.ParseOp(x.Op); x.Op != "AND" && x.Op != "OR" && !op.IsComparison() {
			l, r, text := b.operand(x.L), b.operand(x.R), x.Op
			return func(ctx *execCtx) (types.Value, error) {
				var lt, rt types.Value
				lv, err := l.get(ctx, &lt)
				if err != nil {
					return types.Null, err
				}
				rv, err := r.get(ctx, &rt)
				if err != nil {
					return types.Null, err
				}
				if op == types.OpNone {
					return types.Arith(text, *lv, *rv)
				}
				return op.Arith(*lv, *rv)
			}
		}
	case *sqlast.UnaryExpr:
		if x.Op == "NOT" {
			break
		}
		f, minus := b.expr(x.X), x.Op == "-"
		return func(ctx *execCtx) (types.Value, error) {
			v, err := f(ctx)
			if err != nil {
				return types.Null, err
			}
			if !minus {
				return types.Null, fmt.Errorf("unknown unary operator %q", x.Op)
			}
			return types.OpSub.Arith(types.NewInt(0), v)
		}
	case *sqlast.IsNullExpr, *sqlast.BetweenExpr, *sqlast.InExpr, *sqlast.ExistsExpr, *sqlast.LikeExpr:
	case *sqlast.CaseExpr:
		return b.caseExpr(x)
	case *sqlast.CastExpr:
		f, t := b.expr(x.X), x.Type
		return func(ctx *execCtx) (types.Value, error) {
			v, err := f(ctx)
			if err != nil {
				return types.Null, err
			}
			return cast(v, t)
		}
	case *sqlast.FuncCall:
		if !sqlast.IsAggregate(x.Name) || b == nil || b.aggs == nil {
			return b.call(x, false).eval
		}
		// The k-th aggregate of the plan: evalGrouped computes it per
		// group and, while it evaluates the group's output, binds the
		// aggregates' values as one more row of the level's scope, after
		// its entries. Aggregates do not nest, so the argument is compiled
		// with collection off.
		aggs := b.aggs
		b.aggs = nil
		ap := aggPlan{fc: x}
		if !x.Star && len(x.Args) > 0 {
			ap.arg = b.expr(x.Args[0])
		}
		b.aggs = aggs
		e, k := len(b.metas), len(*aggs)
		*aggs = append(*aggs, ap)
		return func(ctx *execCtx) (types.Value, error) { return ctx.scope.rows[e][k], nil }
	case *sqlast.SubqueryExpr:
		return func(ctx *execCtx) (types.Value, error) { return ctx.db.evalScalarSubquery(ctx, x.Query) }
	default:
		return func(*execCtx) (types.Value, error) {
			return types.Null, fmt.Errorf("engine: unsupported expression %T", e)
		}
	}
	// What is left is a predicate: its truth value, as a Value.
	t := b.cond(e)
	return func(ctx *execCtx) (types.Value, error) {
		v, err := t(ctx)
		if err != nil {
			return types.Null, err
		}
		return v.Value(), nil
	}
}

// cond compiles e to its truth value. AND and OR evaluate their right
// side only when the left one does not decide; every other node
// evaluates all its operands, left to right, as its SQL form reads.
func (b *binder) cond(e sqlast.Expr) testFn {
	switch x := e.(type) {
	case *sqlast.BinaryExpr:
		op := types.ParseOp(x.Op)
		switch {
		case x.Op == "AND" || x.Op == "OR":
			l, r, decides := b.cond(x.L), b.cond(x.R), types.TriboolOf(x.Op == "OR")
			return func(ctx *execCtx) (types.Tribool, error) {
				lt, err := l(ctx)
				if err != nil || lt == decides {
					return lt, err
				}
				rt, err := r(ctx)
				if err != nil {
					return types.Unknown, err
				}
				if decides == types.True {
					return lt.Or(rt), nil
				}
				return lt.And(rt), nil
			}
		case op.IsComparison():
			l, r := b.operand(x.L), b.operand(x.R)
			return func(ctx *execCtx) (types.Tribool, error) {
				var lt, rt types.Value
				lv, err := l.get(ctx, &lt)
				if err != nil {
					return types.Unknown, err
				}
				rv, err := r.get(ctx, &rt)
				if err != nil {
					return types.Unknown, err
				}
				return op.Compare(lv, rv), nil
			}
		}
	case *sqlast.UnaryExpr:
		if x.Op == "NOT" {
			t := b.cond(x.X)
			return func(ctx *execCtx) (types.Tribool, error) {
				v, err := t(ctx)
				return v.Not(), err
			}
		}
	case *sqlast.IsNullExpr:
		o, not := b.operand(x.X), x.Not
		return func(ctx *execCtx) (types.Tribool, error) {
			var t types.Value
			v, err := o.get(ctx, &t)
			if err != nil {
				return types.Unknown, err
			}
			return types.TriboolOf(v.IsNull() != not), nil
		}
	case *sqlast.BetweenExpr:
		o, lo, hi, not := b.operand(x.X), b.operand(x.Lo), b.operand(x.Hi), x.Not
		return func(ctx *execCtx) (types.Tribool, error) {
			var t [3]types.Value
			v, err := o.get(ctx, &t[0])
			if err != nil {
				return types.Unknown, err
			}
			l, err := lo.get(ctx, &t[1])
			if err != nil {
				return types.Unknown, err
			}
			h, err := hi.get(ctx, &t[2])
			if err != nil {
				return types.Unknown, err
			}
			r := types.OpGe.Compare(v, l).And(types.OpLe.Compare(v, h))
			if not {
				r = r.Not()
			}
			return r, nil
		}
	case *sqlast.InExpr:
		return b.in(x)
	case *sqlast.ExistsExpr:
		return func(ctx *execCtx) (types.Tribool, error) {
			m, _, rows, err := ctx.db.stackQuery(ctx, x.Sub, 1)
			found := len(rows) > 0
			ctx.db.pop(m)
			if err != nil {
				return types.Unknown, err
			}
			return types.TriboolOf(found != x.Not), nil
		}
	case *sqlast.LikeExpr:
		o, pat, not := b.operand(x.X), b.operand(x.Pattern), x.Not
		return func(ctx *execCtx) (types.Tribool, error) {
			var t [2]types.Value
			v, err := o.get(ctx, &t[0])
			if err != nil {
				return types.Unknown, err
			}
			p, err := pat.get(ctx, &t[1])
			if err != nil || v.IsNull() || p.IsNull() {
				return types.Unknown, err
			}
			return types.TriboolOf(likeMatch(v.Text(), p.Text()) != not), nil
		}
	}
	f := b.expr(e)
	return func(ctx *execCtx) (types.Tribool, error) {
		v, err := f(ctx)
		if err != nil {
			return types.Unknown, err
		}
		return types.TriboolFromValue(v), nil
	}
}

// in compiles X [NOT] IN (list | subquery). Every element is evaluated
// and compared, also after a match: a later one that raises still does.
func (b *binder) in(x *sqlast.InExpr) testFn {
	o := b.operand(x.X)
	list := make([]operand, len(x.List))
	for i, le := range x.List {
		list[i] = b.operand(le)
	}
	return func(ctx *execCtx) (types.Tribool, error) {
		var t, lt types.Value
		v, err := o.get(ctx, &t)
		if err != nil {
			return types.Unknown, err
		}
		result, sawNull := types.False, v.IsNull()
		note := func(lv *types.Value) {
			switch types.OpEq.Compare(v, lv) {
			case types.True:
				result = types.True
			case types.Unknown:
				sawNull = true
			}
		}
		if x.Sub != nil {
			m, cols, rows, err := ctx.db.stackQuery(ctx, x.Sub, 0)
			defer ctx.db.pop(m)
			if err != nil {
				return types.Unknown, err
			}
			if len(cols) != 1 {
				return types.Unknown, fmt.Errorf("IN subquery must return one column, got %d", len(cols))
			}
			for _, r := range rows {
				note(&r[0])
			}
		} else {
			for i := range list {
				lv, err := list[i].get(ctx, &lt)
				if err != nil {
					return types.Unknown, err
				}
				note(lv)
			}
		}
		if result != types.True && sawNull {
			result = types.Unknown
		}
		if x.Not {
			result = result.Not()
		}
		return result, nil
	}
}

// caseExpr compiles a simple or searched CASE: arms are tried in order
// and only the chosen result is evaluated.
func (b *binder) caseExpr(x *sqlast.CaseExpr) evalFn {
	var subject, els evalFn
	if x.Operand != nil {
		subject = b.expr(x.Operand)
	}
	if x.Else != nil {
		els = b.expr(x.Else)
	}
	type arm struct {
		when evalFn // of a simple CASE
		test testFn // of a searched one
		then evalFn
	}
	arms := make([]arm, len(x.Whens))
	for i, w := range x.Whens {
		if arms[i].then = b.expr(w.Then); subject != nil {
			arms[i].when = b.expr(w.When)
		} else {
			arms[i].test = b.cond(w.When)
		}
	}
	return func(ctx *execCtx) (types.Value, error) {
		var op types.Value
		if subject != nil {
			var err error
			if op, err = subject(ctx); err != nil {
				return types.Null, err
			}
		}
		for i := range arms {
			a := &arms[i]
			var hit types.Tribool
			if subject != nil {
				wv, err := a.when(ctx)
				if err != nil {
					return types.Null, err
				}
				hit = types.OpEq.Compare(&op, &wv)
			} else {
				var err error
				if hit, err = a.test(ctx); err != nil {
					return types.Null, err
				}
			}
			if hit == types.True {
				return a.then(ctx)
			}
		}
		if els != nil {
			return els(ctx)
		}
		return types.Null, nil
	}
}

// callSite is a compiled invocation of a non-aggregate function. What
// the name means is resolved when the site first runs and kept with the
// schema version it was resolved at; when that has moved, the site asks
// the catalog again — so a stored function shadows a builtin of its name
// from the moment it exists (also one created mid-statement), and CREATE
// OR REPLACE or DROP between two executions of a cached plan take effect.
type callSite struct {
	fc       *sqlast.FuncCall
	args     []evalFn
	fromSite bool // the call of a FROM source (see callFunction)
	agg      bool // an aggregate's name where no plan aggregates: raises when evaluated
	bound    atomic.Pointer[callee]
}

// callee is what a call site's name resolved to at one schema version:
// a stored function, else a builtin, else (both unset) nothing.
type callee struct {
	version int64
	fn      *storage.Routine
	bi      *types.Builtin
}

func (b *binder) call(fc *sqlast.FuncCall, fromSite bool) *callSite {
	s := &callSite{fc: fc, fromSite: fromSite, agg: sqlast.IsAggregate(fc.Name)}
	if len(fc.Args) > 0 && !s.agg {
		s.args = make([]evalFn, len(fc.Args))
		for i, a := range fc.Args {
			s.args[i] = b.expr(a)
		}
	}
	return s
}

func (s *callSite) eval(ctx *execCtx) (types.Value, error) {
	if s.agg {
		return types.Null, fmt.Errorf("aggregate %s used outside an aggregation context", s.fc.Name)
	}
	db := ctx.db
	c := s.bound.Load()
	// Every routine DDL moves the persistent version; it is read before
	// the catalog is asked, so a racing resolution is only ever stamped
	// too old.
	if v := db.Cat.PersistentVersion(); c == nil || c.version != v {
		c = &callee{version: v}
		if r := db.Cat.Routine(s.fc.Name); r != nil && r.Kind == storage.KindFunction {
			c.fn = r
		} else {
			c.bi = types.BuiltinNamed(s.fc.Name)
		}
		s.bound.Store(c)
	}
	if c.fn != nil {
		return db.callFunction(ctx, c.fn, s)
	}
	return db.callBuiltin(ctx, s, c.bi)
}

// cached returns the plan cache's entry of type T for key, building and
// keeping it on a miss.
func cached[T any](db *DB, key any, build func() T) T {
	if v, ok := db.plans.get(key).(T); ok {
		return v
	}
	v := build()
	db.plans.put(key, v)
	return v
}

// rootExpr returns the compiled form of an expression that belongs to no
// SELECT plan — a routine statement's value or a DML statement's — kept
// in the plan cache under its root node. Such an expression binds
// nothing (its names are dynamic, its call sites validate themselves),
// so the entry is good for as long as the cache keeps it.
func (db *DB) rootExpr(e sqlast.Expr) evalFn {
	return cached(db, e, func() evalFn { return noLevel.expr(e) })
}

// rootCond is rootExpr for a condition.
func (db *DB) rootCond(e sqlast.Expr) testFn {
	return cached(db, e, func() testFn { return noLevel.cond(e) })
}
