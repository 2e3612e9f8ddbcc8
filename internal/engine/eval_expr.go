package engine

import (
	"fmt"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

// execCtx carries the dynamic state of one evaluation: the row scope
// chain for correlated evaluation, the PSM variable frame of the
// enclosing routine (if any), aggregate shortcut values during group
// output, and a recursion depth guard.
type execCtx struct {
	db      *DB
	vars    *varFrame
	scope   *rowScope
	aggVals map[*sqlast.FuncCall]types.Value
	depth   int
	planRec *planRecorder // non-nil only while building a cached plan
	memo    *fnMemoState  // per-statement function-result memo (nil = off)
	journal *Journal      // undo/redo journal of the enclosing statement (nil = unjournaled)
	prep    *Prepared     // shared prepared-plan caches of a fragment batch (nil = unprepared)
}

// rowScope is one level of FROM-clause bindings: metas names the
// level's correlation entries, rows[i] is the row entry i currently
// contributes (nil while the entry is not part of the operator being
// evaluated), and parent points to the enclosing query's scope (for
// correlated subqueries).
type rowScope struct {
	parent *rowScope
	metas  []entryMeta
	rows   [][]types.Value
}

func newScope(parent *rowScope, metas []entryMeta) *rowScope {
	return &rowScope{parent: parent, metas: metas, rows: make([][]types.Value, len(metas))}
}

// colSlot is a column reference resolved by the plan of its own query
// level (see bindExprs): evalExpr reads rows[entry][col] of the level's
// scope instead of resolving the name. entry < 0 records that the name
// is no column of this level, so the dynamic lookup starts at the
// enclosing scope; col < 0 that the qualifier matched an entry lacking
// the column.
type colSlot struct {
	*sqlast.ColumnRef
	entry, col int
}

// lookup resolves a possibly qualified column reference by name against
// the scope chain, skipping entries that are not bound. found=false
// means the name is not a column anywhere in scope (the caller may then
// try PSM variables).
func (s *rowScope) lookup(tbl, col string) (types.Value, bool, error) {
	for sc := s; sc != nil; sc = sc.parent {
		found := false
		var val types.Value
		for i, m := range sc.metas {
			if sc.rows[i] == nil || (tbl != "" && !strings.EqualFold(m.alias, tbl)) {
				continue
			}
			for j, c := range m.cols {
				if !strings.EqualFold(c, col) {
					continue
				}
				if tbl != "" {
					return sc.rows[i][j], true, nil
				}
				if found {
					return types.Null, false, fmt.Errorf("column reference %s is ambiguous", col)
				}
				found, val = true, sc.rows[i][j]
			}
			if tbl != "" {
				return types.Null, false, fmt.Errorf("column %s.%s does not exist", tbl, col)
			}
		}
		if found {
			return val, true, nil
		}
	}
	return types.Null, false, nil
}

// evalColumn is the dynamic name resolution of a column reference:
// the scope chain from sc outwards, then PSM variables.
func (db *DB) evalColumn(ctx *execCtx, sc *rowScope, x *sqlast.ColumnRef) (types.Value, error) {
	v, ok, err := sc.lookup(x.Table, x.Column)
	if err != nil || ok {
		return v, err
	}
	if x.Table == "" && ctx.vars != nil {
		if v, ok := ctx.vars.get(x.Column); ok {
			return v, nil
		}
	}
	if x.Table != "" {
		return types.Null, fmt.Errorf("column %s.%s not found", x.Table, x.Column)
	}
	return types.Null, fmt.Errorf("name %s is neither a column in scope nor a variable", x.Column)
}

// evalExpr evaluates a scalar expression in ctx.
func (db *DB) evalExpr(ctx *execCtx, e sqlast.Expr) (types.Value, error) {
	switch x := e.(type) {
	case *sqlast.Literal:
		return x.Val, nil
	case *colSlot:
		switch {
		case x.entry < 0:
			return db.evalColumn(ctx, ctx.scope.parent, x.ColumnRef)
		case x.col < 0:
			return types.Null, fmt.Errorf("column %s.%s does not exist", x.Table, x.Column)
		}
		return ctx.scope.rows[x.entry][x.col], nil
	case *sqlast.ColumnRef:
		return db.evalColumn(ctx, ctx.scope, x)
	case *sqlast.BinaryExpr:
		return db.evalBinary(ctx, x)
	case *sqlast.UnaryExpr:
		v, err := db.evalExpr(ctx, x.X)
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
		v, err := db.evalExpr(ctx, x.X)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(v.IsNull() != x.Not), nil
	case *sqlast.BetweenExpr:
		v, err := db.evalExpr(ctx, x.X)
		if err != nil {
			return types.Null, err
		}
		lo, err := db.evalExpr(ctx, x.Lo)
		if err != nil {
			return types.Null, err
		}
		hi, err := db.evalExpr(ctx, x.Hi)
		if err != nil {
			return types.Null, err
		}
		r := types.CompareOp(">=", v, lo).And(types.CompareOp("<=", v, hi))
		if x.Not {
			r = r.Not()
		}
		return r.Value(), nil
	case *sqlast.InExpr:
		return db.evalIn(ctx, x)
	case *sqlast.ExistsExpr:
		res, err := db.evalQueryLimited(ctx, x.Sub, 1)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool((len(res.Rows) > 0) != x.Not), nil
	case *sqlast.LikeExpr:
		v, err := db.evalExpr(ctx, x.X)
		if err != nil {
			return types.Null, err
		}
		pat, err := db.evalExpr(ctx, x.Pattern)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() || pat.IsNull() {
			return types.Null, nil
		}
		m := likeMatch(v.Text(), pat.Text())
		return types.NewBool(m != x.Not), nil
	case *sqlast.CaseExpr:
		return db.evalCase(ctx, x)
	case *sqlast.CastExpr:
		v, err := db.evalExpr(ctx, x.X)
		if err != nil {
			return types.Null, err
		}
		return castValue(v, x.Type)
	case *sqlast.FuncCall:
		if ctx.aggVals != nil {
			if v, ok := ctx.aggVals[x]; ok {
				return v, nil
			}
		}
		return db.evalFuncCall(ctx, x, false)
	case *sqlast.SubqueryExpr:
		return db.evalScalarSubquery(ctx, x.Query)
	}
	return types.Null, fmt.Errorf("engine: unsupported expression %T", e)
}

func (db *DB) evalBinary(ctx *execCtx, x *sqlast.BinaryExpr) (types.Value, error) {
	switch x.Op {
	case "AND":
		l, err := db.evalExpr(ctx, x.L)
		if err != nil {
			return types.Null, err
		}
		lt := types.TriboolFromValue(l)
		if lt == types.False {
			return types.NewBool(false), nil
		}
		r, err := db.evalExpr(ctx, x.R)
		if err != nil {
			return types.Null, err
		}
		return lt.And(types.TriboolFromValue(r)).Value(), nil
	case "OR":
		l, err := db.evalExpr(ctx, x.L)
		if err != nil {
			return types.Null, err
		}
		lt := types.TriboolFromValue(l)
		if lt == types.True {
			return types.NewBool(true), nil
		}
		r, err := db.evalExpr(ctx, x.R)
		if err != nil {
			return types.Null, err
		}
		return lt.Or(types.TriboolFromValue(r)).Value(), nil
	case "=", "<>", "<", "<=", ">", ">=":
		l, err := db.evalExpr(ctx, x.L)
		if err != nil {
			return types.Null, err
		}
		r, err := db.evalExpr(ctx, x.R)
		if err != nil {
			return types.Null, err
		}
		return types.CompareOp(x.Op, l, r).Value(), nil
	default:
		l, err := db.evalExpr(ctx, x.L)
		if err != nil {
			return types.Null, err
		}
		r, err := db.evalExpr(ctx, x.R)
		if err != nil {
			return types.Null, err
		}
		return types.Arith(x.Op, l, r)
	}
}

func (db *DB) evalIn(ctx *execCtx, x *sqlast.InExpr) (types.Value, error) {
	v, err := db.evalExpr(ctx, x.X)
	if err != nil {
		return types.Null, err
	}
	result := types.False
	sawNull := v.IsNull()
	if x.Sub != nil {
		res, err := db.evalQuery(ctx, x.Sub)
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
			lv, err := db.evalExpr(ctx, le)
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

func (db *DB) evalCase(ctx *execCtx, x *sqlast.CaseExpr) (types.Value, error) {
	if x.Operand != nil {
		op, err := db.evalExpr(ctx, x.Operand)
		if err != nil {
			return types.Null, err
		}
		for _, w := range x.Whens {
			wv, err := db.evalExpr(ctx, w.When)
			if err != nil {
				return types.Null, err
			}
			if types.CompareOp("=", op, wv) == types.True {
				return db.evalExpr(ctx, w.Then)
			}
		}
	} else {
		for _, w := range x.Whens {
			wv, err := db.evalExpr(ctx, w.When)
			if err != nil {
				return types.Null, err
			}
			if types.TriboolFromValue(wv) == types.True {
				return db.evalExpr(ctx, w.Then)
			}
		}
	}
	if x.Else != nil {
		return db.evalExpr(ctx, x.Else)
	}
	return types.Null, nil
}

func (db *DB) evalScalarSubquery(ctx *execCtx, q sqlast.QueryExpr) (types.Value, error) {
	res, err := db.evalQueryLimited(ctx, q, 2)
	if err != nil {
		return types.Null, err
	}
	if len(res.Cols) != 1 {
		return types.Null, fmt.Errorf("scalar subquery must return one column, got %d", len(res.Cols))
	}
	switch len(res.Rows) {
	case 0:
		return types.Null, nil
	case 1:
		return res.Rows[0][0], nil
	}
	return types.Null, fmt.Errorf("scalar subquery returned more than one row")
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pat string) bool {
	// dynamic programming over pattern and string positions
	return likeRec(s, pat)
}

func likeRec(s, pat string) bool {
	for len(pat) > 0 {
		switch pat[0] {
		case '%':
			for len(pat) > 0 && pat[0] == '%' {
				pat = pat[1:]
			}
			if len(pat) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], pat) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, pat = s[1:], pat[1:]
		default:
			if len(s) == 0 || s[0] != pat[0] {
				return false
			}
			s, pat = s[1:], pat[1:]
		}
	}
	return len(s) == 0
}

func castValue(v types.Value, t sqlast.TypeName) (types.Value, error) {
	if v.IsNull() {
		return types.Null, nil
	}
	switch t.Kind() {
	case types.KindInt:
		return types.NewInt(v.Int()), nil
	case types.KindFloat:
		return types.NewFloat(v.Float()), nil
	case types.KindString:
		s := v.Text()
		if t.Length > 0 && len(s) > t.Length && (t.Base == "CHAR" || t.Base == "VARCHAR") {
			s = s[:t.Length]
		}
		return types.NewString(s), nil
	case types.KindDate:
		switch v.Kind {
		case types.KindDate:
			return v, nil
		case types.KindString:
			d, err := types.ParseDate(strings.TrimSpace(v.S))
			if err != nil {
				return types.Null, err
			}
			return types.NewDate(d), nil
		case types.KindInt:
			return types.NewDate(v.I), nil
		}
		return types.Null, fmt.Errorf("cannot cast %s to DATE", v.Kind)
	case types.KindBool:
		return types.NewBool(types.TriboolFromValue(v) == types.True), nil
	}
	return types.Null, fmt.Errorf("unsupported cast target %s", t.SQL())
}
