package engine

import (
	"fmt"
	"sort"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// entSet is a set of entries of one query level.
type entSet uint64

// span is the set of the entries [lo, hi).
func span(lo, hi int) entSet { return entSet(1)<<hi - entSet(1)<<lo }

// refs summarizes what an expression reads, as its level's binder resolves it.
type refs struct {
	ents       entSet // entries of its own query level
	hasSub     bool
	unresolved bool // a name the level cannot bind (ambiguous): only the dynamic lookup can tell
	// external marks names that resolve outside this query level —
	// routine parameters, outer-query columns. Their value can change
	// between executions of the same statement, so a source's memo
	// never keeps a relation filtered by one.
	external bool
}

// refsOf analyzes an expression of b's query level. Like everything that
// decides a plan's shape it reads the AST, while the plan is built; what
// the plan keeps to run is the compiled form.
func refsOf(b *binder, expr sqlast.Expr) (r refs) {
	sqlast.Walk(expr, func(n sqlast.Node) bool {
		switch x := n.(type) {
		case *sqlast.SubqueryExpr, *sqlast.ExistsExpr:
			r.hasSub = true
			return false
		case *sqlast.InExpr:
			r.hasSub = r.hasSub || x.Sub != nil
		case *sqlast.ColumnRef:
			switch entry, _, bound := b.resolve(x); {
			case !bound:
				r.unresolved = true
			case entry < 0:
				r.external = true
			default:
				r.ents |= span(entry, entry+1)
			}
		}
		return true
	})
	return r
}

// conjunct is one AND-factor of a WHERE or ON clause: its compiled test,
// the expression and binder it was compiled from (for the analyses that
// place it in the plan), and what it reads. Immutable once built, so
// plans can share it across sessions.
type conjunct struct {
	test testFn
	src  sqlast.Expr
	b    *binder
	refs
	// expensive marks conjuncts containing subqueries or stored-routine
	// calls.
	expensive bool
}

// splitConjuncts decomposes a WHERE or ON clause into AND-factors,
// compiled by b.
func (db *DB) splitConjuncts(b *binder, where sqlast.Expr) []*conjunct {
	var out []*conjunct
	var split func(e sqlast.Expr)
	split = func(e sqlast.Expr) {
		if bin, ok := e.(*sqlast.BinaryExpr); ok && bin.Op == "AND" {
			split(bin.L)
			split(bin.R)
			return
		}
		c := &conjunct{test: b.cond(e), src: e, b: b, refs: refsOf(b, e)}
		c.expensive = c.hasSub || db.callsRoutine(e)
		out = append(out, c)
	}
	if where != nil {
		split(where)
	}
	return out
}

// callsRoutine reports whether the expression invokes a stored routine.
func (db *DB) callsRoutine(e sqlast.Expr) bool {
	found := false
	sqlast.Walk(e, func(n sqlast.Node) bool {
		if fc, ok := n.(*sqlast.FuncCall); ok {
			if db.Cat.Routine(fc.Name) != nil {
				found = true
			}
		}
		return !found
	})
	return found
}

// within reports whether the conjunct reads only entries [lo, hi) of
// its level (and is safe to evaluate once they are bound).
func (c *conjunct) within(lo, hi int) bool {
	return !c.unresolved && !c.hasSub && c.ents&^span(lo, hi) == 0
}

// equiSides reports whether the conjunct is an equality whose sides
// read exclusively the entries [lo, mid) and [mid, hi) respectively,
// returning them in that order.
func (c *conjunct) equiSides(lo, mid, hi int) (l, r sqlast.Expr, ok bool) {
	b, isBin := c.src.(*sqlast.BinaryExpr)
	if c.unresolved || c.hasSub || c.external || !isBin || b.Op != "=" {
		return nil, nil, false
	}
	lr, rr := refsOf(c.b, b.L).ents, refsOf(c.b, b.R).ents
	if lr == 0 || rr == 0 {
		return nil, nil, false
	}
	switch left, right := span(lo, mid), span(mid, hi); {
	case lr&^left == 0 && rr&^right == 0:
		return b.L, b.R, true
	case lr&^right == 0 && rr&^left == 0:
		return b.R, b.L, true
	}
	return nil, nil, false
}

// indexable reports a column of entry e compared for equality with an
// expression free of this level's columns: (column ordinal, valueExpr).
func (c *conjunct) indexable(e int) (int, sqlast.Expr) {
	b, ok := c.src.(*sqlast.BinaryExpr)
	if c.hasSub || c.unresolved || !ok || b.Op != "=" {
		return -1, nil
	}
	try := func(colSide, valSide sqlast.Expr) (int, sqlast.Expr) {
		if col := c.slotOf(colSide, e); col >= 0 && refsOf(c.b, valSide).ents == 0 {
			return col, valSide
		}
		return -1, nil
	}
	if col, v := try(b.L, b.R); v != nil {
		return col, v
	}
	return try(b.R, b.L)
}

// slotOf returns the column ordinal when x is a plain column of entry
// e, else -1.
func (c *conjunct) slotOf(x sqlast.Expr, e int) int {
	if cr, ok := x.(*sqlast.ColumnRef); ok {
		if entry, col, bound := c.b.resolve(cr); bound && entry == e {
			return col
		}
	}
	return -1
}

// findStab looks among the conjuncts for the injected point-overlap
// pair against the period columns of temporal table t, bound as entry
// e: begin <= X (or X >= begin) and X < end (or end > X), where both
// X's render to the same SQL and are free of the table's own columns.
// It returns that X, compiled, or nil when the pattern is absent.
func findStab(cs []*conjunct, t *storage.Table, e int) evalFn {
	if !(t.ValidTime || t.TransactionTime) || len(t.Schema.Cols) < 2 {
		return nil
	}
	var beginXs, endXs []sqlast.Expr
	var bind *binder
	for _, c := range cs {
		b, ok := c.src.(*sqlast.BinaryExpr)
		if c.hasSub || c.unresolved || !ok {
			continue
		}
		isCol := func(x sqlast.Expr, col int) bool { return c.slotOf(x, e) == col }
		freeOf := func(x sqlast.Expr) bool {
			r := refsOf(c.b, x)
			return !r.hasSub && !r.unresolved && r.ents&span(e, e+1) == 0
		}
		switch {
		case b.Op == "<=" && isCol(b.L, t.BeginCol()) && freeOf(b.R):
			beginXs, bind = append(beginXs, b.R), c.b
		case b.Op == ">=" && isCol(b.R, t.BeginCol()) && freeOf(b.L):
			beginXs, bind = append(beginXs, b.L), c.b
		case b.Op == "<" && isCol(b.R, t.EndCol()) && freeOf(b.L):
			endXs = append(endXs, b.L)
		case b.Op == ">" && isCol(b.L, t.EndCol()) && freeOf(b.R):
			endXs = append(endXs, b.R)
		}
	}
	for _, bx := range beginXs {
		for _, ex := range endXs {
			if ex.SQL() == bx.SQL() {
				return bind.expr(bx) // one clause, one binder: the conjuncts share it
			}
		}
	}
	return nil
}

// orderByCost stably moves conjuncts that invoke stored routines (or
// contain subqueries) after plain predicates.
func orderByCost(cs []*conjunct) []*conjunct {
	var cheap, costly []*conjunct
	for _, c := range cs {
		if c.expensive {
			costly = append(costly, c)
		} else {
			cheap = append(cheap, c)
		}
	}
	return append(cheap, costly...)
}

// evalQuery evaluates any query body.
func (db *DB) evalQuery(ctx *execCtx, q sqlast.QueryExpr) (*Result, error) {
	return db.evalQueryLimited(ctx, q, 0)
}

// evalQueryLimited is evalQuery with an optional row-count hint
// (0 = unlimited) used by EXISTS and scalar subqueries.
func (db *DB) evalQueryLimited(ctx *execCtx, q sqlast.QueryExpr, limitHint int) (*Result, error) {
	switch x := q.(type) {
	case *sqlast.SelectStmt:
		return db.evalSelect(ctx, x, limitHint)
	case *sqlast.SetOpExpr:
		return db.evalSetOp(ctx, x)
	case *sqlast.ValuesExpr:
		rows := cached(db, x, func() [][]evalFn {
			rows := make([][]evalFn, len(x.Rows))
			for i, row := range x.Rows {
				for _, e := range row {
					rows[i] = append(rows[i], noLevel.expr(e))
				}
			}
			return rows
		})
		res := Result{Rows: make([][]types.Value, 0, len(rows))}
		for _, row := range rows {
			out := make([]types.Value, 0, len(row))
			for _, f := range row {
				v, err := f(ctx)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
			res.Rows = append(res.Rows, out)
		}
		if len(x.Rows) > 0 {
			for i := range x.Rows[0] {
				res.Cols = append(res.Cols, fmt.Sprintf("col%d", i+1))
			}
		}
		return &res, nil
	}
	return nil, fmt.Errorf("engine: unsupported query %T", q)
}

func (db *DB) evalSelect(ctx *execCtx, sel *sqlast.SelectStmt, limitHint int) (*Result, error) {
	// FROM-less SELECT evaluates items once in the current scope.
	if len(sel.From) == 0 {
		res := &Result{}
		var row []types.Value
		for i, it := range sel.Items {
			if it.Star || it.TableStar != "" {
				return nil, fmt.Errorf("SELECT * requires a FROM clause")
			}
			v, err := db.rootExpr(it.Expr)(ctx)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			res.Cols = append(res.Cols, itemName(it, i))
		}
		if sel.Where != nil {
			t, err := db.rootCond(sel.Where)(ctx)
			if err != nil {
				return nil, err
			}
			if t != types.True {
				return res, nil
			}
		}
		res.Rows = append(res.Rows, row)
		return res, nil
	}

	// Everything that is a pure function of the statement and the
	// schema comes from the shared plan cache (built on miss); what
	// follows only executes it: one pipeline from the first source to
	// the sink that projects, or groups, its rows.
	p, err := db.selPlanFor(ctx, sel)
	if err != nil {
		return nil, err
	}
	r := pipe{db: db, ctx: enter(ctx, p.metas), pipePlan: p.pipePlan, sink: sinkProject, p: p, res: &Result{Cols: p.cols}}
	grouped := len(p.groupBy) > 0 || len(p.aggs) > 0
	switch {
	case grouped:
		r.sink, r.ids = sinkGroup, keyIDs{}
	case len(p.order) == 0 && !sel.Distinct:
		// Otherwise every row takes part in ordering and deduplication.
		r.stopAt = limitHint
	}
	if err := r.exec(); err != nil {
		return nil, err
	}
	if grouped {
		if err := r.outputGroups(); err != nil {
			return nil, err
		}
	}
	return db.finishResult(ctx, sel, r.res, r.keys)
}

func itemName(it sqlast.SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
		return cr.Column
	}
	return fmt.Sprintf("col%d", i+1)
}

// rowID numbers row's composite key in ids, building the key in the
// session's key scratch.
func (db *DB) rowID(ids keyIDs, row []types.Value) (id int, fresh bool) {
	start := len(db.keyBuf)
	db.keyBuf = appendKey(db.keyBuf, row...)
	id, fresh = ids.id(db.keyBuf[start:])
	db.keyBuf = db.keyBuf[:start]
	return id, fresh
}

// keyedRows sorts result rows and their sort keys together.
type keyedRows struct {
	rows, keys [][]types.Value
	order      []sqlast.OrderItem
}

func (s keyedRows) Len() int           { return len(s.rows) }
func (s keyedRows) Less(i, j int) bool { return lessKeys(s.keys[i], s.keys[j], s.order) }
func (s keyedRows) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// finishResult applies DISTINCT, ORDER BY and FETCH FIRST to projected
// rows (keys are their sort keys, when ordering). ctx is the context
// the SELECT was issued in: the row limit sees no row of its own.
func (db *DB) finishResult(ctx *execCtx, sel *sqlast.SelectStmt, res *Result, keys [][]types.Value) (*Result, error) {
	if sel.Distinct {
		seen := make(keyIDs, len(res.Rows))
		n := 0
		for i, r := range res.Rows {
			if _, fresh := db.rowID(seen, r); fresh {
				res.Rows[n] = r
				if keys != nil {
					keys[n] = keys[i]
				}
				n++
			}
		}
		res.Rows = res.Rows[:n]
		if keys != nil {
			keys = keys[:n]
		}
	}
	if len(sel.OrderBy) > 0 {
		sort.Stable(keyedRows{res.Rows, keys, sel.OrderBy})
	}
	if sel.Limit != nil {
		lv, err := db.rootExpr(sel.Limit)(ctx)
		if err != nil {
			return nil, err
		}
		if n := int(lv.Int()); n < len(res.Rows) {
			res.Rows = res.Rows[:n]
		}
	}
	return res, nil
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

func lessKeys(a, b []types.Value, order []sqlast.OrderItem) bool {
	for i := range order {
		av, bv := a[i], b[i]
		// NULLs sort last in ascending order.
		switch {
		case av.IsNull() && bv.IsNull():
			continue
		case av.IsNull():
			return order[i].Desc
		case bv.IsNull():
			return !order[i].Desc
		}
		c, ok := types.Compare(av, bv)
		if !ok || c == 0 {
			continue
		}
		if order[i].Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

func (db *DB) evalSetOp(ctx *execCtx, so *sqlast.SetOpExpr) (*Result, error) {
	l, err := db.evalQuery(ctx, so.L)
	if err != nil {
		return nil, err
	}
	r, err := db.evalQuery(ctx, so.R)
	if err != nil {
		return nil, err
	}
	return db.combine(so, l, r)
}

// combine applies a set operator, and its ORDER BY, to its evaluated
// operands.
func (db *DB) combine(so *sqlast.SetOpExpr, l, r *Result) (*Result, error) {
	if len(l.Cols) != len(r.Cols) {
		return nil, fmt.Errorf("%s operands have different column counts (%d vs %d)", so.Op, len(l.Cols), len(r.Cols))
	}
	res := &Result{Cols: l.Cols}
	// Rows are compared by composite key: ids numbers the distinct
	// ones, counts[id] is the multiplicity left on the right side and
	// seen[id] whether a duplicate-free result already holds the row.
	ids := keyIDs{}
	var counts []int
	var seen []bool
	idOf := func(row []types.Value) int {
		id, fresh := db.rowID(ids, row)
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
