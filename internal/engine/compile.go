package engine

import (
	"fmt"
	"slices"
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
// index into the level's row scope, a variable an index into its
// invocation's slots, a call site keeps what its name resolved to.
// Compilation never fails: whatever is wrong with an expression (an
// unknown column, variable, function or operator, an aggregate out of
// place) is raised by its closure when — and only if — a row gets that
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
// per row. A name no column of the level carries — or one it cannot
// decide, ambiguous here — is compiled by names (name): to the columns of
// the enclosing levels that carry it, else to a variable's slot.
// Subqueries are compiled by their own plans. A binder without entries
// compiles an expression that belongs to no query level (a routine
// statement's). The AST is shared and never modified.
type binder struct {
	metas  []storage.Binding
	lo, hi int
	aggs   *[]aggPlan // when set, collects the outermost aggregate calls
	*names
}

// names is what the names of a level's expressions reach past its own
// columns: the enclosing levels known while it compiles — their columns
// are decided now, from the entries they have then — and the scope of
// the statement, whose variables are slots. Every binder of one plan or
// statement shares it. What it compiles is good in env only.
type names struct {
	env    *scope
	up     *rowScope // the enclosing levels, innermost first
	own    bool      // the expressions run in a level of their own, above up
	pinned bool      // a name was resolved past the level: the form compiled depends on up's entries
}

// constNames are the names of an expression evaluated with no row or
// variable context (EvalConstExpr): they reach nothing. Every such
// expression shares them, so they are never written: pinned from the
// start (a names of its own would cost an allocation per statement).
var constNames = &names{pinned: true}

// binderIn returns a binder for the expressions of a statement run in
// ctx that belong to no query level.
func binderIn(ctx *execCtx) *binder {
	return newBinder(nil, names{env: ctx.env, up: ctx.scope})
}

// levelIn returns the binder of a query level of the given entries
// entered from ctx.
func levelIn(ctx *execCtx, metas []storage.Binding) *binder {
	return newBinder(metas, names{env: ctx.env, up: ctx.scope, own: true})
}

// newBinder returns a binder over metas and its names, in one object.
func newBinder(metas []storage.Binding, n names) *binder {
	b := &struct {
		binder
		names
	}{binder{metas: metas, hi: len(metas)}, n}
	b.binder.names = &b.names
	return &b.binder
}

// within returns a binder of the same level and names over the entries
// [lo, hi).
func (b *binder) within(lo, hi int) *binder {
	return &binder{metas: b.metas, lo: lo, hi: hi, names: b.names}
}

// maxSlotEntry bounds the entries a conjunct's entSet can record;
// references beyond it stay dynamic.
const maxSlotEntry = 64

// resolve decides a reference the way the lookup by name would with
// every visible entry bound: a qualifier selects the first entry carrying
// it, a bare name must match exactly one column. entry < 0 records that
// the name is no column of this level, so it reaches past it (name); col
// < 0 that the qualifier matched an entry lacking the column;
// bound=false that the level cannot tell.
func (b *binder) resolve(x *sqlast.ColumnRef) (entry, col int, bound bool) {
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

// levels is what a compiled form knows of the enclosing levels it was
// compiled under: each one's entries, innermost first, when one of its
// names was resolved past its own level (pinned); else nothing, for it
// reads none of them. A form is reused only under levels whose entries
// are the same (match): a FOR loop over a query whose columns changed, a
// subquery under a redefined outer query, are compiled again.
type levels struct {
	pinned bool
	ents   [][]storage.Binding
}

// levels returns what the forms b compiled depend on of the enclosing
// levels.
func (n *names) levels() levels {
	if !n.pinned {
		return levels{}
	}
	l := levels{pinned: true}
	for sc := n.up; sc != nil; sc = sc.parent {
		l.ents = append(l.ents, slices.Clone(sc.metas))
	}
	return l
}

// match reports whether sc's levels are the ones l was compiled under.
func (l *levels) match(sc *rowScope) bool {
	if !l.pinned {
		return true
	}
	for _, want := range l.ents {
		if sc == nil || len(sc.metas) != len(want) {
			return false
		}
		for i, m := range sc.metas {
			if m.Alias != want[i].Alias || !sameCols(m.Cols, want[i].Cols) {
				return false
			}
		}
		sc = sc.parent
	}
	return sc == nil
}

// cand is a column a name may reach when it is evaluated: column col of
// entry entry of the level up levels above the one the name is evaluated
// in. col < 0: the entry its qualifier names lacks the column.
type cand struct{ up, entry, col int32 }

// cands appends the columns of the level up (entries metas) that x may
// reach.
func cands(cs []cand, up int, metas []storage.Binding, x *sqlast.ColumnRef) []cand {
	for e, m := range metas {
		if x.Table != "" && !strings.EqualFold(m.Alias, x.Table) {
			continue
		}
		hit := false
		for j, c := range m.Cols {
			if strings.EqualFold(c, x.Column) {
				cs, hit = append(cs, cand{int32(up), int32(e), int32(j)}), true
				if x.Table != "" {
					break
				}
			}
		}
		if x.Table != "" && !hit {
			cs = append(cs, cand{int32(up), int32(e), -1})
		}
	}
	return cs
}

// column reads the first of cs an entry bound in sc reaches: a qualified
// name the first bound entry its qualifier names decides; a bare one the
// innermost level where it matches a bound column, which must be the only
// one there. ok=false: none is bound.
func (sc *rowScope) column(cs []cand, x *sqlast.ColumnRef) (v *types.Value, ok bool, err error) {
	d := int32(0)
	for i := 0; i < len(cs); {
		for d < cs[i].up {
			sc, d = sc.parent, d+1
		}
		found := -1
		for ; i < len(cs) && cs[i].up == d; i++ {
			c := cs[i]
			row := sc.rows[c.entry]
			switch {
			case row == nil:
			case x.Table != "" && c.col < 0:
				return nil, false, fmt.Errorf("column %s.%s does not exist", x.Table, x.Column)
			case x.Table != "":
				return &row[c.col], true, nil
			case found >= 0:
				return nil, false, fmt.Errorf("column reference %s is ambiguous", x.Column)
			default:
				found = i
			}
		}
		if found >= 0 {
			return &sc.rows[cs[found].entry][cs[found].col], true, nil
		}
	}
	return nil, false, nil
}

// name compiles a reference the level cannot bind to one of its own
// columns — own reports that it may still be one: it is ambiguous here,
// and only the entries bound when it is evaluated tell — to what it
// reaches, decided now: a column of the enclosing levels, else a
// variable's slot in the scope of the statement, else (at top level) a
// binding of the statement's frame, searched by name. A variable no
// column can shadow, bound wherever it is read, is read in its slot.
func (b *binder) name(x *sqlast.ColumnRef, own bool) operand {
	if !b.pinned {
		b.pinned = true
	}
	var cs []cand
	base := 0
	if b.own {
		if own {
			cs = cands(cs, 0, b.metas, x)
		}
		base = 1
	}
	for sc, up := b.up, base; sc != nil; sc, up = sc.parent, up+1 {
		cs = cands(cs, up, sc.metas, x)
	}
	n := &reach{x: x, cs: cs}
	if x.Table == "" {
		n.v = b.env.ref(x.Column, bindScalar|bindTable)
		if len(cs) == 0 && len(n.v.slots) == 1 && n.v.sure {
			return operand{kind: opSlot, i: n.v.slots[0]}
		}
	}
	if len(cs) == 1 && cs[0].up == 0 && cs[0].col >= 0 {
		// One column of the innermost level, read in place while its
		// entry is bound: the target row of an UPDATE's or DELETE's WHERE.
		return operand{kind: opNear, i: cs[0].entry, j: cs[0].col, reach: n}
	}
	return operand{kind: opReach, reach: n}
}

// reach is a name compiled past the level's own columns: the columns of
// the enclosing levels it may reach, then, for a bare name, the variable.
type reach struct {
	x  *sqlast.ColumnRef
	cs []cand
	v  ref
}

func (n *reach) eval(ctx *execCtx) (types.Value, error) {
	if c, ok, err := ctx.scope.column(n.cs, n.x); ok || err != nil {
		if err != nil {
			return types.Null, err
		}
		return *c, nil
	}
	if n.x.Table != "" {
		return types.Null, fmt.Errorf("column %s.%s not found", n.x.Table, n.x.Column)
	}
	if s := n.v.find(ctx); s != nil {
		return s.val, nil
	}
	return types.Null, fmt.Errorf("name %s is neither a column in scope nor a variable", n.x.Column)
}

// operand is where a compiled node finds one of its operands. The shapes
// the translators emit by the thousand — a column of the plan's own
// level, a literal, a variable or parameter — are read where they are,
// with no closure call; anything else is a compiled expression whose
// value get parks in the caller's temporary.
type operand struct {
	kind  opKind
	i, j  int32        // opCol, opNear: the entry and column of the row scope; opSlot: the slot
	lit   *types.Value // opLit: a literal of the statement
	reach *reach       // opReach, opNear (when the entry is not bound)
	fn    evalFn       // opFn
}

type opKind uint8

const (
	opCol opKind = iota
	opLit
	opSlot
	opNear
	opReach
	opFn
)

func (b *binder) operand(e sqlast.Expr) operand {
	switch x := e.(type) {
	case *sqlast.Literal:
		return operand{kind: opLit, lit: &x.Val}
	case *sqlast.ColumnRef:
		entry, col, bound := b.resolve(x)
		switch {
		case !bound || entry < 0:
			return b.name(x, !bound)
		case col >= 0:
			return operand{kind: opCol, i: int32(entry), j: int32(col)}
		}
		return operand{kind: opFn, fn: func(*execCtx) (types.Value, error) {
			return types.Null, fmt.Errorf("column %s.%s does not exist", x.Table, x.Column)
		}}
	}
	return operand{kind: opFn, fn: b.expr(e)}
}

func (o operand) get(ctx *execCtx, tmp *types.Value) (*types.Value, error) {
	var err error
	switch o.kind {
	case opCol:
		return &ctx.scope.rows[o.i][o.j], nil
	case opLit:
		return o.lit, nil
	case opSlot:
		return &ctx.act.slots[o.i].val, nil
	case opNear:
		if row := ctx.scope.rows[o.i]; row != nil {
			return &row[o.j], nil
		}
		fallthrough
	case opReach:
		*tmp, err = o.reach.eval(ctx)
		return tmp, err
	}
	*tmp, err = o.fn(ctx)
	return tmp, err
}

// expr compiles e to its value.
func (b *binder) expr(e sqlast.Expr) evalFn {
	switch x := e.(type) {
	case *sqlast.Literal:
		return func(*execCtx) (types.Value, error) { return x.Val, nil }
	case *sqlast.ColumnRef:
		switch o := b.operand(x); o.kind {
		case opCol:
			return func(ctx *execCtx) (types.Value, error) { return ctx.scope.rows[o.i][o.j], nil }
		case opSlot:
			return func(ctx *execCtx) (types.Value, error) { return ctx.act.slots[o.i].val, nil }
		case opNear:
			return func(ctx *execCtx) (types.Value, error) {
				if row := ctx.scope.rows[o.i]; row != nil {
					return row[o.j], nil
				}
				return o.reach.eval(ctx)
			}
		case opReach:
			return o.reach.eval
		default:
			return o.fn
		}
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
		if !sqlast.IsAggregate(x.Name) || b.aggs == nil {
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

// compare compiles the comparison x, returning its operands beside it:
// it raises only where reading one does.
func (b *binder) compare(x *sqlast.BinaryExpr, op types.Op) (testFn, [2]operand) {
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
	}, [2]operand{l, r}
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
			test, _ := b.compare(x, op)
			return test
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
	args     []operand
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
		s.args = make([]operand, len(fc.Args))
		for i, a := range fc.Args {
			s.args[i] = b.operand(a)
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

// scoped is the compiled form of an expression no SELECT plan holds,
// with the scope and the enclosing levels it was compiled in: a later
// execution in the same scope, under the same levels, reuses it.
type scoped[T any] struct {
	env *scope
	up  levels
	v   T
}

// inScope returns the plan cache's entry of type T for node compiled in
// ctx's scope and levels, compiling it with build on a miss.
func inScope[T any](db *DB, ctx *execCtx, node any, build func(*binder) T) T {
	if e, ok := db.plans.get(node).(*scoped[T]); ok && e.env == ctx.env && e.up.match(ctx.scope) {
		return e.v
	}
	b := binderIn(ctx)
	e := &scoped[T]{env: ctx.env, v: build(b)}
	e.up = b.levels()
	db.plans.put(node, e)
	return e.v
}

// rootExpr returns the compiled form of an expression that belongs to no
// SELECT plan — a routine statement's value or a DML statement's — kept
// in the plan cache under its root node.
func (db *DB) rootExpr(ctx *execCtx, e sqlast.Expr) evalFn {
	return inScope(db, ctx, e, func(b *binder) evalFn { return b.expr(e) })
}

// rootCond is rootExpr for a condition.
func (db *DB) rootCond(ctx *execCtx, e sqlast.Expr) testFn {
	return inScope(db, ctx, e, func(b *binder) testFn { return b.cond(e) })
}
