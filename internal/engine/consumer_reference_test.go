package engine

import (
	"fmt"
	"sort"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

// The Result-based consumers the row stacks replaced (eval_select.go,
// eval_expr.go, compile.go, psm.go), kept as the reference of
// TestQueryConsumersEqualReference: each asks for a Result that owns its
// rows and reads them from there — a scalar subquery, EXISTS, IN, a set
// operator, FOR, OPEN / FETCH — where the program reads the rows on the
// stacks in place. The reference's Result copies the rows off the stacks,
// as every Result must now: the stacks clear what they pop.

// evalQueryLimited is evalQuery under the row-count hint of an EXISTS or
// a scalar subquery (0 = unlimited): the query as a Result.
func (db *DB) evalQueryLimited(ctx *execCtx, q sqlast.QueryExpr, limitHint int) (*Result, error) {
	m, cols, rows, err := db.stackQuery(ctx, q, limitHint)
	defer db.pop(m)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: cols, Rows: ownRows(rows)}, nil
}

// orderKeys computes ORDER BY sort keys for one output row.
func (db *DB) orderKeys(ctx *execCtx, p *selPlan, vals []types.Value) ([]types.Value, error) {
	keys := make([]types.Value, len(p.order))
	for i, o := range p.order {
		switch {
		case o.err != nil:
			return nil, o.err
		case o.pos > 0:
			keys[i] = vals[o.pos-1]
		default:
			v, err := o.expr(ctx)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
	}
	return keys, nil
}

func (db *DB) refEvalScalarSubquery(ctx *execCtx, q sqlast.QueryExpr) (types.Value, error) {
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

// refExists is the EXISTS closure's body.
func (db *DB) refExists(ctx *execCtx, q sqlast.QueryExpr, not bool) (types.Tribool, error) {
	res, err := db.evalQueryLimited(ctx, q, 1)
	if err != nil {
		return types.Unknown, err
	}
	return types.TriboolOf((len(res.Rows) > 0) != not), nil
}

// refIn is the IN closure's body for v [NOT] IN (q).
func (db *DB) refIn(ctx *execCtx, v types.Value, q sqlast.QueryExpr, not bool) (types.Tribool, error) {
	result, sawNull := types.False, v.IsNull()
	note := func(lv *types.Value) {
		switch types.OpEq.Compare(&v, lv) {
		case types.True:
			result = types.True
		case types.Unknown:
			sawNull = true
		}
	}
	res, err := db.evalQuery(ctx, q)
	if err != nil {
		return types.Unknown, err
	}
	if len(res.Cols) != 1 {
		return types.Unknown, fmt.Errorf("IN subquery must return one column, got %d", len(res.Cols))
	}
	for _, r := range res.Rows {
		note(&r[0])
	}
	if result != types.True && sawNull {
		result = types.Unknown
	}
	if not {
		result = result.Not()
	}
	return result, nil
}

// refExecCursorQuery evaluates the query of a cursor or FOR loop.
func (db *DB) refExecCursorQuery(ctx *execCtx, q sqlast.Stmt) (*Result, error) {
	if ts, ok := q.(*sqlast.TemporalStmt); ok {
		if ts.Mod == sqlast.ModCurrent {
			q = ts.Body
		} else {
			return nil, fmt.Errorf("engine: temporal cursor query reached the conventional engine")
		}
	}
	qe, ok := q.(sqlast.QueryExpr)
	if !ok {
		return nil, fmt.Errorf("cursor query must be a SELECT")
	}
	return db.evalQuery(ctx, qe)
}

func (db *DB) refExecFor(ctx *execCtx, s *sqlast.ForStmt) (flow, error) {
	res, err := db.refExecCursorQuery(ctx, s.Query)
	if err != nil {
		return flow{}, err
	}
	defer db.popActs(db.acts.n)
	lctx := db.enterRow(ctx, s.LoopVar, res.Cols)
	for _, row := range res.Rows {
		lctx.scope.rows[0] = row
		if done, fl, err := db.turn(lctx, s.Label, s.Body); done {
			return fl, err
		}
	}
	return flow{}, nil
}

// refCursor is an open cursor of the reference: its materialized result
// and position.
type refCursor struct {
	res *Result
	pos int
}

func (db *DB) refOpen(ctx *execCtx, q sqlast.Stmt) (*refCursor, error) {
	res, err := db.refExecCursorQuery(ctx, q)
	if err != nil {
		return nil, err
	}
	return &refCursor{res: res}, nil
}

// refFetch is FETCH of the reference, with the row checked before it is
// consumed.
func (db *DB) refFetch(ctx *execCtx, c *refCursor, into []string) (flow, error) {
	if c.pos >= len(c.res.Rows) {
		return db.raise(ctx, &conditionErr{state: "02000", msg: "no data"})
	}
	row := c.res.Rows[c.pos]
	if len(into) != len(row) {
		return flow{}, fmt.Errorf("FETCH %s: %d variables for %d columns", "c", len(into), len(row))
	}
	c.pos++
	for i, name := range into {
		if err := ctx.vars.set(name, row[i]); err != nil {
			return flow{}, err
		}
	}
	return flow{}, nil
}

func (db *DB) refEvalSetOpResult(ctx *execCtx, so *sqlast.SetOpExpr) (*Result, error) {
	l, err := db.evalQuery(ctx, so.L)
	if err != nil {
		return nil, err
	}
	r, err := db.evalQuery(ctx, so.R)
	if err != nil {
		return nil, err
	}
	return db.refCombine(so, l, r)
}

// refCombine applies a set operator, and its ORDER BY, to its evaluated
// operands.
func (db *DB) refCombine(so *sqlast.SetOpExpr, l, r *Result) (*Result, error) {
	if len(l.Cols) != len(r.Cols) {
		return nil, fmt.Errorf("%s operands have different column counts (%d vs %d)", so.Op, len(l.Cols), len(r.Cols))
	}
	res := &Result{Cols: l.Cols}
	// Rows are compared by composite key: ids numbers the distinct
	// ones, counts[id] is the multiplicity left on the right side and
	// seen[id] whether a duplicate-free result already holds the row.
	var ids keyIDs
	var counts []int
	var seen []bool
	idOf := func(row []types.Value) int {
		id, fresh := db.rowID(&ids, row)
		if fresh {
			counts, seen = append(counts, 0), append(seen, false)
		}
		return id
	}
	if so.Op != "UNION" {
		for _, row := range r.Rows {
			counts[idOf(row)]++
		}
	}
	switch so.Op {
	case "UNION":
		both := append(append([][]types.Value{}, l.Rows...), r.Rows...)
		if so.All {
			res.Rows = both
			break
		}
		for _, row := range both {
			if id := idOf(row); !seen[id] {
				seen[id] = true
				res.Rows = append(res.Rows, row)
			}
		}
	case "EXCEPT":
		for _, row := range l.Rows {
			id := idOf(row)
			switch {
			case so.All && counts[id] > 0:
				counts[id]--
			case so.All || (counts[id] == 0 && !seen[id]):
				seen[id] = true
				res.Rows = append(res.Rows, row)
			}
		}
	case "INTERSECT":
		for _, row := range l.Rows {
			id := idOf(row)
			switch {
			case so.All && counts[id] > 0:
				counts[id]--
				res.Rows = append(res.Rows, row)
			case !so.All && counts[id] > 0 && !seen[id]:
				seen[id] = true
				res.Rows = append(res.Rows, row)
			}
		}
	default:
		return nil, fmt.Errorf("unknown set operation %s", so.Op)
	}
	if len(so.OrderBy) > 0 {
		// Sort by ordinal or column name of the combined result.
		type kr struct {
			vals []types.Value
			keys []types.Value
		}
		rows := make([]kr, len(res.Rows))
		for i, row := range res.Rows {
			keys := make([]types.Value, len(so.OrderBy))
			for j, o := range so.OrderBy {
				switch e := o.Expr.(type) {
				case *sqlast.Literal:
					n := int(e.Val.I)
					if n < 1 || n > len(row) {
						return nil, fmt.Errorf("ORDER BY ordinal %d out of range", n)
					}
					keys[j] = row[n-1]
				case *sqlast.ColumnRef:
					idx := -1
					for k, c := range res.Cols {
						if strings.EqualFold(c, e.Column) {
							idx = k
							break
						}
					}
					if idx < 0 {
						return nil, fmt.Errorf("ORDER BY column %s not in result", e.Column)
					}
					keys[j] = row[idx]
				default:
					return nil, fmt.Errorf("unsupported ORDER BY expression after set operation")
				}
			}
			rows[i] = kr{vals: row, keys: keys}
		}
		sort.SliceStable(rows, func(i, j int) bool { return lessKeys(rows[i].keys, rows[j].keys, so.OrderBy) })
		res.Rows = res.Rows[:0]
		for _, r := range rows {
			res.Rows = append(res.Rows, r.vals)
		}
	}
	return res, nil
}
