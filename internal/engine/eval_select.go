package engine

import (
	"fmt"
	"slices"
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
	ops       [2]operand // a comparison's operands (binder.compare); else opFn
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
		c := &conjunct{src: e, b: b, refs: refsOf(b, e), ops: [2]operand{{kind: opFn}, {kind: opFn}}}
		if x, ok := e.(*sqlast.BinaryExpr); ok && types.ParseOp(x.Op).IsComparison() {
			c.test, c.ops = b.compare(x, types.ParseOp(x.Op))
		} else {
			c.test = b.cond(e)
		}
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
		if col := c.b.slotOf(colSide, e); col >= 0 && refsOf(c.b, valSide).ents == 0 {
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
func (b *binder) slotOf(x sqlast.Expr, e int) int {
	if cr, ok := x.(*sqlast.ColumnRef); ok {
		if entry, col, bound := b.resolve(cr); bound && entry == e {
			return col
		}
	}
	return -1
}

// findStab looks among the conjuncts for the injected point-overlap
// pair against the period columns of temporal table t, bound as entry
// e: begin <= X (or X >= begin) and X < end (or end > X), where both
// X's render to the same SQL and are free of the table's own columns.
// It returns that X, compiled and as written, or nil when the pattern
// is absent.
func findStab(cs []*conjunct, t *storage.Table, e int) (evalFn, sqlast.Expr) {
	if !(t.ValidTime || t.TransactionTime) || len(t.Schema.Cols) < 2 {
		return nil, nil
	}
	var beginXs, endXs []sqlast.Expr
	var bind *binder
	for _, c := range cs {
		b, ok := c.src.(*sqlast.BinaryExpr)
		if c.hasSub || c.unresolved || !ok {
			continue
		}
		isCol := func(x sqlast.Expr, col int) bool { return c.b.slotOf(x, e) == col }
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
				return bind.expr(bx), bx // one clause, one binder: the conjuncts share it
			}
		}
	}
	return nil, nil
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

// The session's row stacks hold the rows of the queries being
// evaluated, each above the ones it is nested in: a query writes each of
// its rows' values once onto the value stack (DB.valBuf) and pushes the
// row's header — capped at its last value, so an append to the row cannot
// write into the stack — onto the row stack (DB.rowBuf); every query
// evaluated meanwhile — a subquery, a routine's statements — pushes and
// pops above them. The query's caller reads the rows off the top and pops
// both stacks back to where it found them (pop). A caller inside the
// statement — a scalar subquery, EXISTS, IN, a set operator, FOR — reads
// the rows in place; rows that leave it — a statement's Result, CREATE
// TABLE AS, an INSERT's target, a view or derived table a pipeline feeds,
// an open cursor — are copied off first. Nothing else may hold a row of
// the stacks once they are popped.

// stackTop is the height of both row stacks.
type stackTop struct{ rows, vals int }

func (db *DB) top() stackTop { return stackTop{len(db.rowBuf), len(db.valBuf)} }

// pop pops both row stacks down to m, clearing what they held: the
// popped values belong to nobody now.
func (db *DB) pop(m stackTop) {
	db.popRows(m.rows)
	clear(db.valBuf[m.vals:])
	db.valBuf = db.valBuf[:m.vals]
}

// popRows pops the row stack alone down to height n: the rows DISTINCT,
// FETCH FIRST or a set operator drop. Their values stay until the
// caller pops.
func (db *DB) popRows(n int) {
	clear(db.rowBuf[n:])
	db.rowBuf = db.rowBuf[:n]
}

// pushRow pushes the values the value stack holds above a as a row.
func (db *DB) pushRow(a int) []types.Value {
	n := len(db.valBuf)
	row := db.valBuf[a:n:n]
	db.rowBuf = append(db.rowBuf, row)
	return row
}

// pushNulls pushes n NULLs onto the value stack and returns them.
func (db *DB) pushNulls(n int) []types.Value {
	a := len(db.valBuf)
	db.valBuf = slices.Grow(db.valBuf, n)[:a+n]
	clear(db.valBuf[a:])
	return db.valBuf[a : a+n : a+n]
}

// stackQuery evaluates q onto the row stacks for a caller that reads its
// rows in place: it returns the stacks' height before q, the columns and
// the rows. The caller pops to m once it is done with them, also on
// error. limitHint > 0 says that many rows decide the caller (EXISTS, a
// scalar subquery).
func (db *DB) stackQuery(ctx *execCtx, q sqlast.QueryExpr, limitHint int) (m stackTop, cols []string, rows [][]types.Value, err error) {
	m = db.top()
	if cols, err = db.pushQuery(ctx, q, limitHint); err != nil {
		return m, nil, nil, err
	}
	return m, cols, db.rowBuf[m.rows:], nil
}

// evalQuery evaluates q into a Result that owns its rows: they leave the
// statement, so they are copied off the stacks, into one arena.
func (db *DB) evalQuery(ctx *execCtx, q sqlast.QueryExpr) (*Result, error) {
	m, cols, rows, err := db.stackQuery(ctx, q, 0)
	defer db.pop(m)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: cols, Rows: ownRows(rows)}, nil
}

// ownRows copies rows into one arena: rows that leave the stacks.
func ownRows(rows [][]types.Value) [][]types.Value {
	if len(rows) == 0 {
		return nil
	}
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	arena, out := make([]types.Value, n), make([][]types.Value, len(rows))
	for i, row := range rows {
		k := copy(arena, row)
		out[i], arena = arena[:k:k], arena[k:]
	}
	return out
}

// pushQuery evaluates q onto the row stacks and returns its column names;
// the caller pops the rows (pop), also on error.
func (db *DB) pushQuery(ctx *execCtx, q sqlast.QueryExpr, limitHint int) ([]string, error) {
	switch x := q.(type) {
	case *sqlast.SelectStmt:
		return db.pushSelect(ctx, x, limitHint)
	case *sqlast.SetOpExpr:
		return db.pushSetOp(ctx, x)
	case *sqlast.ValuesExpr:
		vp := inScope(db, ctx, x, func(b *binder) valuesPlan { return compileValues(b, x) })
		for i, row := range vp.rows {
			if len(row) != len(vp.cols) {
				return nil, fmt.Errorf("VALUES row %d has %d values, row 1 has %d", i+1, len(row), len(vp.cols))
			}
			a := len(db.valBuf)
			for _, f := range row {
				v, err := f(ctx)
				if err != nil {
					return nil, err
				}
				db.valBuf = append(db.valBuf, v)
			}
			db.pushRow(a)
		}
		return vp.cols, nil
	}
	return nil, fmt.Errorf("engine: unsupported query %T", q)
}

// valuesPlan is a VALUES list compiled: its rows' expressions, and the
// column names of its first row.
type valuesPlan struct {
	rows [][]evalFn
	cols []string
}

func compileValues(b *binder, x *sqlast.ValuesExpr) valuesPlan {
	vp := valuesPlan{rows: make([][]evalFn, len(x.Rows))}
	for i, row := range x.Rows {
		for _, e := range row {
			vp.rows[i] = append(vp.rows[i], b.expr(e))
		}
	}
	vp.cols, _ = storage.QueryColumns(nil, x)
	return vp
}

// pushSelect evaluates a SELECT onto the row stack.
func (db *DB) pushSelect(ctx *execCtx, sel *sqlast.SelectStmt, limitHint int) ([]string, error) {
	// FROM-less SELECT evaluates items once in the current scope.
	if len(sel.From) == 0 {
		var cols []string
		a := len(db.valBuf)
		for i, it := range sel.Items {
			if it.Star || it.TableStar != "" {
				return nil, fmt.Errorf("SELECT * requires a FROM clause")
			}
			v, err := db.rootExpr(ctx, it.Expr)(ctx)
			if err != nil {
				return nil, err
			}
			db.valBuf = append(db.valBuf, v)
			cols = append(cols, storage.ItemName(it, i))
		}
		if sel.Where != nil {
			t, err := db.rootCond(ctx, sel.Where)(ctx)
			if err != nil || t != types.True {
				return cols, err
			}
		}
		db.pushRow(a)
		return cols, nil
	}

	// Everything that is a pure function of the statement and the
	// schema comes from the shared plan cache (built on miss); what
	// follows only executes it: one pipeline from the first source to
	// the sink that projects, or groups, its rows.
	p, err := db.selPlanFor(ctx, sel)
	if err != nil {
		return nil, err
	}
	defer db.popActs(db.acts.n)
	r := pipe{db: db, ctx: db.enter(ctx, p.metas), pipePlan: p.layout(db, ctx, limitHint), sink: sinkProject, p: p, start: len(db.rowBuf)}
	grouped := len(p.groupBy) > 0 || len(p.aggs) > 0
	switch {
	case grouped:
		r.sink = sinkGroup
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
	return p.cols, db.finishRows(ctx, sel, r.start, r.keys)
}

// rowID numbers row's composite key in ids, building the key in the
// session's key scratch.
func (db *DB) rowID(ids *keyIDs, row []types.Value) (id int, fresh bool) {
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

// finishRows applies DISTINCT, ORDER BY and FETCH FIRST to the rows a
// SELECT projected onto the row stack above start (keys are their sort
// keys, when ordering). ctx is the context the SELECT was issued in: the
// row limit sees no row of its own.
func (db *DB) finishRows(ctx *execCtx, sel *sqlast.SelectStmt, start int, keys [][]types.Value) error {
	rows := db.rowBuf[start:]
	if sel.Distinct {
		seen := keyIDs{m: make(map[string]int, len(rows))}
		n := 0
		for i, r := range rows {
			if _, fresh := db.rowID(&seen, r); fresh {
				rows[n] = r
				if keys != nil {
					keys[n] = keys[i]
				}
				n++
			}
		}
		rows = rows[:n]
		if keys != nil {
			keys = keys[:n]
		}
		db.popRows(start + n)
	}
	if len(sel.OrderBy) > 0 {
		sort.Stable(keyedRows{rows, keys, sel.OrderBy})
	}
	if sel.Limit != nil {
		lv, err := db.rootExpr(ctx, sel.Limit)(ctx)
		if err != nil {
			return err
		}
		if n := int(lv.Int()); n < len(rows) {
			db.popRows(start + max(n, 0))
		}
	}
	return nil
}

// pushOrderKeys pushes the ORDER BY sort keys of one output row onto the
// value stack and returns them.
func (db *DB) pushOrderKeys(ctx *execCtx, p *selPlan, vals []types.Value) ([]types.Value, error) {
	a := len(db.valBuf)
	for _, o := range p.order {
		switch {
		case o.err != nil:
			return nil, o.err
		case o.pos > 0:
			db.valBuf = append(db.valBuf, vals[o.pos-1])
		default:
			v, err := o.expr(ctx)
			if err != nil {
				return nil, err
			}
			db.valBuf = append(db.valBuf, v)
		}
	}
	n := len(db.valBuf)
	return db.valBuf[a:n:n], nil
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

// pushSetOp evaluates a set operator onto the row stacks: its operands
// one above the other, then the result rows — a subsequence of them, in
// order — compacted in place over them.
func (db *DB) pushSetOp(ctx *execCtx, so *sqlast.SetOpExpr) ([]string, error) {
	start := len(db.rowBuf)
	lcols, err := db.pushQuery(ctx, so.L, 0)
	if err != nil {
		return nil, err
	}
	mid := len(db.rowBuf)
	rcols, err := db.pushQuery(ctx, so.R, 0)
	if err != nil {
		return nil, err
	}
	if len(lcols) != len(rcols) {
		return nil, fmt.Errorf("%s operands have different column counts (%d vs %d)", so.Op, len(lcols), len(rcols))
	}
	n, err := db.combine(so, db.rowBuf[start:], mid-start)
	if err != nil {
		return nil, err
	}
	db.popRows(start + n)
	if len(so.OrderBy) > 0 {
		return lcols, db.orderSetOp(so, lcols, db.rowBuf[start:])
	}
	return lcols, nil
}

// combine applies a set operator to its operands' rows, the left ones
// rows[:mid] and the right ones rows[mid:], writing the result over the
// front of rows; it returns how many rows the result has.
func (db *DB) combine(so *sqlast.SetOpExpr, rows [][]types.Value, mid int) (int, error) {
	l, r := rows[:mid], rows[mid:]
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
		for _, row := range r {
			counts[idOf(row)]++
		}
	}
	n := 0
	keep := func(row []types.Value) { rows[n] = row; n++ }
	switch so.Op {
	case "UNION":
		if so.All {
			return len(rows), nil
		}
		for _, row := range rows {
			if id := idOf(row); !seen[id] {
				seen[id] = true
				keep(row)
			}
		}
	case "EXCEPT":
		for _, row := range l {
			id := idOf(row)
			switch {
			case so.All && counts[id] > 0:
				counts[id]--
			case so.All || (counts[id] == 0 && !seen[id]):
				seen[id] = true
				keep(row)
			}
		}
	case "INTERSECT":
		for _, row := range l {
			id := idOf(row)
			switch {
			case so.All && counts[id] > 0:
				counts[id]--
				keep(row)
			case !so.All && counts[id] > 0 && !seen[id]:
				seen[id] = true
				keep(row)
			}
		}
	default:
		return 0, fmt.Errorf("unknown set operation %s", so.Op)
	}
	return n, nil
}

// orderSetOp sorts a set operator's result rows, in place, by ordinal or
// column name of the combined result; the sort keys go onto the value
// stack.
func (db *DB) orderSetOp(so *sqlast.SetOpExpr, cols []string, rows [][]types.Value) error {
	keys := make([][]types.Value, len(rows))
	for i, row := range rows {
		a := len(db.valBuf)
		for _, o := range so.OrderBy {
			switch e := o.Expr.(type) {
			case *sqlast.Literal:
				n := int(e.Val.I)
				if n < 1 || n > len(row) {
					return fmt.Errorf("ORDER BY ordinal %d out of range", n)
				}
				db.valBuf = append(db.valBuf, row[n-1])
			case *sqlast.ColumnRef:
				idx := -1
				for k, c := range cols {
					if strings.EqualFold(c, e.Column) {
						idx = k
						break
					}
				}
				if idx < 0 {
					return fmt.Errorf("ORDER BY column %s not in result", e.Column)
				}
				db.valBuf = append(db.valBuf, row[idx])
			default:
				return fmt.Errorf("unsupported ORDER BY expression after set operation")
			}
		}
		n := len(db.valBuf)
		keys[i] = db.valBuf[a:n:n]
	}
	sort.Stable(keyedRows{rows, keys, so.OrderBy})
	return nil
}
