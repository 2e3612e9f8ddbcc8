package engine

import (
	"fmt"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// entryMeta describes one correlation name contributed by a FROM
// source: its alias and column names.
type entryMeta struct {
	alias string
	cols  []string
}

// rel is an intermediate relation over consecutive entries of its query
// level, stored per entry: ents[e][i] is the row entry base+e
// contributes to row i. Rows are shared with the tables and results
// they came from, so building a relation allocates per entry, never
// per row.
type rel struct {
	base int // level-scope index of ents[0]
	n    int // number of rows
	ents [][][]types.Value
	// For a single-source scan of a stored table, tab is that table and,
	// when the plan stab-joins the source, ords[i] is row i's ordinal in
	// tab.Rows (ascending): joinRels probes tab's interval index per
	// outer row and intersects.
	tab  *storage.Table
	ords []int

	few [2][][]types.Value // backs ents of the common narrow relation
}

func newRel(base, width int) *rel {
	r := &rel{base: base}
	if width <= len(r.few) {
		r.ents = r.few[:width:width]
	} else {
		r.ents = make([][][]types.Value, width)
	}
	return r
}

// add appends, as a new row of r, the rows sc currently binds for r's
// entries. Operators bind candidate rows, test them, and add only what
// passed, so a rejected candidate costs no allocation.
func (r *rel) add(sc *rowScope) {
	for e := range r.ents {
		r.ents[e] = append(r.ents[e], sc.rows[r.base+e])
	}
	r.n++
}

// bind points the scope's entries for r at row i of r.
func (sc *rowScope) bind(r *rel, i int) {
	for e, rows := range r.ents {
		sc.rows[r.base+e] = rows[i]
	}
}

// unbind clears the scope's entries for r. Every operator unbinds what
// it bound before returning, so name lookups (and FROM sources that are
// not lateral) only ever see the entries of the operator in progress.
func (sc *rowScope) unbind(r *rel) {
	for e := range r.ents {
		sc.rows[r.base+e] = nil
	}
}

// allTrue reports whether every conjunct, except the one at index skip,
// is TRUE in ctx.
func (db *DB) allTrue(ctx *execCtx, cs []*conjunct, skip int) (bool, error) {
	for i, c := range cs {
		if i == skip {
			continue
		}
		if t, err := c.test(ctx); err != nil || t != types.True {
			return false, err
		}
	}
	return true, nil
}

// filter keeps the rows of r on which every conjunct is TRUE.
func (db *DB) filter(ctx *execCtx, r *rel, cs []*conjunct) (*rel, error) {
	if len(cs) == 0 {
		return r, nil
	}
	out := newRel(r.base, len(r.ents))
	for i := 0; i < r.n; i++ {
		ctx.scope.bind(r, i)
		ok, err := db.allTrue(ctx, cs, -1)
		if err != nil {
			return nil, err
		}
		if ok {
			out.add(ctx.scope)
		}
	}
	ctx.scope.unbind(r)
	return out, nil
}

// sourceMetas computes the correlation entries a table reference will
// contribute, without loading data.
func (db *DB) sourceMetas(ctx *execCtx, ref sqlast.TableRef) ([]entryMeta, error) {
	switch r := ref.(type) {
	case *sqlast.BaseTable:
		alias := r.Alias
		if alias == "" {
			alias = r.Name
		}
		if ctx.vars != nil {
			if tv := ctx.vars.getTable(r.Name); tv != nil {
				cols := tv.Schema.Names()
				if ctx.planRec != nil {
					ctx.planRec.varTables[strings.ToLower(r.Name)] = cols
				}
				return []entryMeta{{alias: alias, cols: cols}}, nil
			}
		}
		if t := db.Cat.Table(r.Name); t != nil {
			cols := t.Schema.Names()
			if ctx.planRec != nil {
				ctx.planRec.catTables[strings.ToLower(r.Name)] = catResolved{table: true, cols: cols}
			}
			return []entryMeta{{alias: alias, cols: cols}}, nil
		}
		if v := db.Cat.View(r.Name); v != nil {
			if ctx.planRec != nil {
				// Record the view by identity: no table holds the name
				// (a later temp table can't silently shadow the
				// resolution), and a redefined view is a new object.
				ctx.planRec.catTables[strings.ToLower(r.Name)] = catResolved{view: v}
			}
			cols := v.Cols
			if len(cols) == 0 {
				var err error
				cols, err = db.inferQueryCols(ctx, v.Query)
				if err != nil {
					return nil, err
				}
			}
			return []entryMeta{{alias: alias, cols: cols}}, nil
		}
		if st := db.systemTable(r.Name); st != nil {
			if ctx.planRec != nil {
				// System-table schemas are code-defined; record only that
				// neither a table nor a view holds the name.
				ctx.planRec.catTables[strings.ToLower(r.Name)] = catResolved{}
			}
			return []entryMeta{{alias: alias, cols: st.Schema.Names()}}, nil
		}
		return nil, fmt.Errorf("table or view %s does not exist", r.Name)
	case *sqlast.DerivedTable:
		cols := r.Cols
		if len(cols) == 0 {
			var err error
			cols, err = db.inferQueryCols(ctx, r.Query)
			if err != nil {
				return nil, err
			}
		}
		return []entryMeta{{alias: r.Alias, cols: cols}}, nil
	case *sqlast.TableFunc:
		cols := r.Cols
		if len(cols) == 0 {
			rt := db.Cat.Routine(r.Call.Name)
			if rt == nil || rt.Kind != storage.KindFunction {
				return nil, fmt.Errorf("table function %s does not exist", r.Call.Name)
			}
			if !rt.Fn.Returns.IsCollection() {
				return nil, fmt.Errorf("function %s does not return a collection type", r.Call.Name)
			}
			for _, f := range rt.Fn.Returns.Row {
				cols = append(cols, f.Name)
			}
		}
		return []entryMeta{{alias: r.Alias, cols: cols}}, nil
	case *sqlast.JoinExpr:
		lm, err := db.sourceMetas(ctx, r.L)
		if err != nil {
			return nil, err
		}
		rm, err := db.sourceMetas(ctx, r.R)
		if err != nil {
			return nil, err
		}
		return append(lm, rm...), nil
	}
	return nil, fmt.Errorf("engine: unsupported table reference %T", ref)
}

// inferQueryCols derives the output column names of a query without
// evaluating it.
func (db *DB) inferQueryCols(ctx *execCtx, q sqlast.QueryExpr) ([]string, error) {
	switch x := q.(type) {
	case *sqlast.SelectStmt:
		var metas []entryMeta
		for _, fr := range x.From {
			ms, err := db.sourceMetas(ctx, fr)
			if err != nil {
				return nil, err
			}
			metas = append(metas, ms...)
		}
		var out []string
		for i, it := range x.Items {
			switch {
			case it.Star:
				for _, m := range metas {
					out = append(out, m.cols...)
				}
			case it.TableStar != "":
				found := false
				for _, m := range metas {
					if strings.EqualFold(m.alias, it.TableStar) {
						out = append(out, m.cols...)
						found = true
					}
				}
				if !found {
					return nil, fmt.Errorf("unknown correlation name %s.*", it.TableStar)
				}
			case it.Alias != "":
				out = append(out, it.Alias)
			default:
				if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
					out = append(out, cr.Column)
				} else {
					out = append(out, fmt.Sprintf("col%d", i+1))
				}
			}
		}
		return out, nil
	case *sqlast.SetOpExpr:
		return db.inferQueryCols(ctx, x.L)
	case *sqlast.ValuesExpr:
		if len(x.Rows) == 0 {
			return nil, nil
		}
		out := make([]string, len(x.Rows[0]))
		for i := range out {
			out[i] = fmt.Sprintf("col%d", i+1)
		}
		return out, nil
	}
	return nil, fmt.Errorf("engine: unsupported query %T", q)
}

// outer returns a copy of a query level's context as the enclosing
// level sees it. FROM sources that are queries themselves (views,
// derived tables) evaluate in it: they are not lateral.
func (ctx *execCtx) outer() *execCtx {
	c := *ctx
	c.scope = ctx.scope.parent
	return &c
}

// loadSource materializes a non-lateral table reference as a relation,
// applying the pushdown filters its plan assigned to it.
func (db *DB) loadSource(ctx *execCtx, fp *fromPlan) (*rel, error) {
	switch r := fp.ref.(type) {
	case *sqlast.BaseTable:
		if ctx.vars != nil {
			if tv := ctx.vars.getTable(r.Name); tv != nil {
				// A table-valued variable (the cp relation, a collection
				// parameter) holds per-execution contents: never memoized.
				return db.scanTable(ctx, fp, tv)
			}
		}
		if t := db.Cat.Table(r.Name); t != nil {
			return db.scanStored(ctx, fp, t)
		}
		if v := db.Cat.View(r.Name); v != nil {
			if ctx.depth > db.MaxRecursion {
				return nil, fmt.Errorf("view nesting too deep at %s", r.Name)
			}
			sub := ctx.outer()
			sub.depth++
			res, err := db.evalQuery(sub, v.Query)
			if err != nil {
				return nil, err
			}
			return db.resultToRel(ctx, fp, res)
		}
		if st := db.systemTable(r.Name); st != nil {
			return db.scanTable(ctx, fp, st)
		}
		return nil, fmt.Errorf("table or view %s does not exist", r.Name)
	case *sqlast.DerivedTable:
		res, err := db.evalQuery(ctx.outer(), r.Query)
		if err != nil {
			return nil, err
		}
		return db.resultToRel(ctx, fp, res)
	case *sqlast.JoinExpr:
		left, err := db.loadSource(ctx, fp.l)
		if err != nil {
			return nil, err
		}
		right, err := db.loadSource(ctx, fp.r)
		if err != nil {
			return nil, err
		}
		joined, err := db.joinRels(ctx, left, right, fp.on, r.Type == "LEFT")
		if err != nil {
			return nil, err
		}
		// Pushdown conjuncts neither side could take apply post-join.
		return db.filter(ctx, joined, fp.rest)
	case *sqlast.TableFunc:
		// A table function inside a JOIN tree is evaluated with only
		// the outer scope (not lateral to the join's left side).
		rows, err := db.tableFuncRows(ctx, fp)
		if err != nil {
			return nil, err
		}
		out := newRel(fp.base, 1)
		out.ents[0], out.n = rows, len(rows)
		return db.filter(ctx, out, fp.push)
	}
	return nil, fmt.Errorf("engine: unsupported table reference %T", fp.ref)
}

// resolveTable finds a stored table or table-valued variable.
func (db *DB) resolveTable(ctx *execCtx, name string) *storage.Table {
	if ctx.vars != nil {
		if tv := ctx.vars.getTable(name); tv != nil {
			return tv
		}
	}
	return db.Cat.Table(name)
}

// scanTable filters a stored table by the source's pushdown conjuncts,
// along the access path its plan chose: a hash-index lookup for an
// equality on a column, an interval-index stab for the point-overlap
// pair MAX slicing injects (t.begin_time <= X AND X < t.end_time, X
// constant w.r.t. this scan — typically a routine parameter or
// outer-query column), or a full scan. The stab candidates are a
// superset and every pushdown conjunct, the pair included, is still
// evaluated on them, so rows with non-date endpoints keep exact SQL
// semantics.
func (db *DB) scanTable(ctx *execCtx, fp *fromPlan, t *storage.Table) (*rel, error) {
	out := newRel(fp.base, 1)
	out.tab = t
	var ords []int
	all, skip := true, -1
	// Stab candidates go on the session's ordinal stack: the scans nested
	// in this one's pushdown conjuncts push and pop above them.
	start := len(db.ordBuf)
	defer func() { db.ordBuf = db.ordBuf[:start] }()
	if !db.DisableIndexes {
		if fp.idxVal != nil {
			// An evaluation error leaves the conjunct to the scan, which
			// reports it if a row gets that far.
			if v, err := fp.idxVal(ctx); err == nil {
				if !v.IsNull() { // col = NULL is never true: no candidates
					ords = t.Lookup(fp.idxCol, v)
				}
				all, skip = false, fp.idxSkip
			}
		}
		if all && fp.stab != nil {
			if v, err := fp.stab(ctx); err == nil &&
				(v.Kind == types.KindDate || v.Kind == types.KindInt) {
				var ok bool
				if db.ordBuf, ok = t.AppendOverlapping(db.ordBuf, v.I, v.I); ok {
					db.Stats.IntervalProbes++
					ords, all = db.ordBuf[start:], false
				}
			}
		}
	}
	n := len(ords)
	if all {
		n = len(t.Rows)
	}
	// Only a hash probe picks its candidates without reading the instant.
	ctx.window().source(t, skip >= 0, ords)
	db.Stats.RowsScanned += int64(n)
	db.Proc.AddRowsScanned(int64(n))
	if err := db.Proc.Killed(); err != nil {
		return nil, err
	}
	sc := ctx.scope
	for k := 0; k < n; k++ {
		i := k
		if !all {
			i = ords[k]
		}
		sc.rows[fp.base] = t.Rows[i]
		ok, err := db.allTrue(ctx, fp.push, skip)
		if err != nil {
			return nil, err
		}
		if ok {
			out.ents[0] = append(out.ents[0], t.Rows[i])
			if fp.ords {
				out.ords = append(out.ords, i)
			}
		}
	}
	sc.rows[fp.base] = nil
	out.n = len(out.ents[0])
	return out, nil
}

// resultToRel wraps a materialized result as a relation, applying the
// source's pushdown filters.
func (db *DB) resultToRel(ctx *execCtx, fp *fromPlan, res *Result) (*rel, error) {
	m := ctx.scope.metas[fp.base]
	if len(m.cols) != len(res.Cols) && len(m.cols) > 0 && len(res.Cols) > 0 {
		return nil, fmt.Errorf("correlation %s declares %d columns but query produces %d",
			m.alias, len(m.cols), len(res.Cols))
	}
	out := newRel(fp.base, 1)
	out.ents[0], out.n = res.Rows, len(res.Rows)
	return db.filter(ctx, out, fp.push)
}

// tableFuncRows invokes a collection-returning function and returns its
// rows, for reading only: the function memo may hold the same table.
func (db *DB) tableFuncRows(ctx *execCtx, fp *fromPlan) ([][]types.Value, error) {
	v, err := fp.call.eval(ctx)
	if err != nil {
		return nil, err
	}
	name := fp.call.fc.Name
	if v.IsNull() {
		return nil, nil
	}
	if v.Kind != types.KindTable {
		return nil, fmt.Errorf("function %s used in FROM must return a collection", name)
	}
	t, ok := v.Aux.(*storage.Table)
	if !ok {
		return nil, fmt.Errorf("function %s returned an invalid collection", name)
	}
	if want := len(ctx.scope.metas[fp.base].cols); len(t.Schema.Cols) != want {
		return nil, fmt.Errorf("function %s returned %d columns, expected %d",
			name, len(t.Schema.Cols), want)
	}
	return t.Rows, nil
}

// joinRels joins two relations as jp prescribes. The arms — hash join
// on the equality conjuncts, interval stab join (a per-row index probe)
// on the injected point-overlap pair, nested loop — differ only in
// which right rows they propose for a left row; every proposal is bound
// in place, tested against the remaining conjuncts, and only then added
// to the output. leftOuter preserves unmatched left rows with NULL
// extension.
func (db *DB) joinRels(ctx *execCtx, left, right *rel, jp *joinPlan, leftOuter bool) (*rel, error) {
	sc := ctx.scope
	out := newRel(left.base, len(left.ents)+len(right.ents))

	// cands proposes the right rows to test against left row i (bound
	// in sc): their indexes, or all=true for every one.
	cands := func(int) (js []int, all bool, err error) { return nil, true, nil }
	switch {
	case len(jp.lkeys) > 0:
		index, err := db.hashIndexFor(ctx, right, jp)
		if err != nil {
			return nil, err
		}
		cands = func(int) ([]int, bool, error) {
			start := len(db.keyBuf)
			null, err := db.keyOf(ctx, jp.lkeys)
			var js []int
			if !null && err == nil {
				js = index.get(db.keyBuf[start:])
			}
			db.keyBuf = db.keyBuf[:start]
			return js, false, err
		}
	case jp.stab != nil && right.tab != nil && len(right.ents) == 1 &&
		len(right.ords) == right.n && !db.DisableIndexes:
		// Interval stab join: the right side scanned a stored temporal
		// table and the join predicates contain t.begin <= X AND
		// X < t.end with X from the left side. The pair stays in jp.rest,
		// so semantics are exactly the nested loop's.
		cands = db.probeCands(ctx, right, jp)
	}

	var nulls [][]types.Value
	if leftOuter {
		for e := range right.ents {
			nulls = append(nulls, make([]types.Value, len(sc.metas[right.base+e].cols)))
		}
	}
	for i := 0; i < left.n; i++ {
		sc.bind(left, i)
		js, all, err := cands(i)
		if err != nil {
			return nil, err
		}
		n := len(js)
		if all {
			n = right.n
		}
		matched := false
		for k := 0; k < n; k++ {
			j := k
			if !all {
				j = js[k]
			}
			sc.bind(right, j)
			ok, err := db.allTrue(ctx, jp.rest, -1)
			if err != nil {
				return nil, err
			}
			if ok {
				out.add(sc)
				matched = true
			}
		}
		if leftOuter && !matched {
			copy(sc.rows[right.base:], nulls)
			out.add(sc)
		}
	}
	sc.unbind(left)
	sc.unbind(right)
	return out, nil
}

// probeCands proposes, per left row, the right rows the right table's
// interval index returns for the row's stab point, intersected with the
// rows the right scan kept (both ascending). A left row whose X is not
// evaluable to a date gets the full inner iteration. One buffer serves
// the whole join: the index appends its ordinals to it and the
// intersection overwrites them in place (it never writes past the
// ordinal it is reading).
func (db *DB) probeCands(ctx *execCtx, right *rel, jp *joinPlan) func(int) ([]int, bool, error) {
	var buf []int
	return func(int) ([]int, bool, error) {
		v, err := jp.stab(ctx)
		if err != nil || (v.Kind != types.KindDate && v.Kind != types.KindInt) {
			return nil, true, nil
		}
		var ok bool
		if buf, ok = right.tab.AppendOverlapping(buf[:0], v.I, v.I); !ok {
			return nil, true, nil
		}
		db.Stats.IntervalProbes++
		n, j := 0, 0
		for _, o := range buf {
			for j < len(right.ords) && right.ords[j] < o {
				j++
			}
			if j < len(right.ords) && right.ords[j] == o {
				buf[n] = j
				n++
				j++
			}
		}
		return buf[:n], false, nil
	}
}

// appendKey appends the hash keys of vals, each followed by a
// separator, to buf. Every composite map key of the engine (join,
// group, DISTINCT and set-operation rows, the function memo) is built
// by it into a reused buffer and probed as m[string(buf)], which
// allocates only when a new key is inserted.
func appendKey(buf []byte, vals ...types.Value) []byte {
	for _, v := range vals {
		buf = append(v.AppendHashKey(buf), '|')
	}
	return buf
}

// keyIDs numbers distinct composite keys in first-seen order.
type keyIDs map[string]int

func (m keyIDs) id(key []byte) (id int, fresh bool) {
	if id, ok := m[string(key)]; ok {
		return id, false
	}
	id = len(m)
	m[string(key)] = id
	return id, true
}

// hashIdx is the build side of a hash join: the row indexes of a
// relation grouped by composite key.
type hashIdx struct {
	ids  keyIDs
	rows [][]int
}

func (h *hashIdx) get(key []byte) []int {
	if id, ok := h.ids[string(key)]; ok {
		return h.rows[id]
	}
	return nil
}

// keyOf evaluates key expressions and appends their composite key to
// the session's key scratch, which callers use as a stack: they note
// its length, read the key above it, and truncate back, so a key under
// construction survives the nested statements its expressions may run.
// null=true when any key is NULL (such rows never join).
func (db *DB) keyOf(ctx *execCtx, keys []operand) (null bool, err error) {
	var t types.Value
	for i := range keys {
		v, err := keys[i].get(ctx, &t)
		if err != nil {
			return false, err
		}
		if v.IsNull() {
			return true, nil
		}
		db.keyBuf = appendKey(db.keyBuf, *v)
	}
	return false, nil
}
