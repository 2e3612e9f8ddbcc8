package engine

import (
	"fmt"
	"slices"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// resolveTarget finds the table DML statement s modifies, named name: a
// table-valued variable (INSERT INTO TABLE v) or a stored table.
func (db *DB) resolveTarget(ctx *execCtx, s sqlast.Stmt, name string, varTarget bool) (*storage.Table, error) {
	switch rel := db.resolve(ctx, &ctx.refs(s)[0]); {
	case rel.kind == relLocal || rel.kind == relTable && !varTarget:
		return rel.tab, nil
	case varTarget:
		return nil, fmt.Errorf("table-valued variable %s not declared", name)
	}
	return nil, fmt.Errorf("table %s does not exist", name)
}

// dmlPlan is what an INSERT with a column list or an UPDATE resolves
// against its target's columns once, not per execution: the ordinal of
// each column it writes and an UPDATE's SET values, compiled over the
// target's row. The column names stamp the plan, which the plan cache
// keeps under the statement: a temporary table created afresh by every
// call, with the same columns, keeps it.
type dmlPlan struct {
	env  *scope
	up   levels
	cols []string
	ords []int
	err  error // a column the target lacks, or one written twice
	vals []evalFn
}

// dmlPlanFor returns s's plan against its target t. s writes n columns,
// the ith named col(i); an UPDATE's values (compile) are compiled over a
// level of one entry, the target's row under alias.
func (db *DB) dmlPlanFor(ctx *execCtx, s sqlast.Stmt, t *storage.Table, n int, col func(int) string, alias string, compile func(*binder) []evalFn) *dmlPlan {
	if p, _ := db.plans.get(s).(*dmlPlan); p != nil && p.env == ctx.env && sameCols(t.Schema.Names(), p.cols) && p.up.match(ctx.scope) {
		return p
	}
	p := &dmlPlan{env: ctx.env, cols: t.Schema.Names()}
	for i := 0; i < n && p.err == nil; i++ {
		c := col(i)
		ord := t.Schema.Index(c)
		switch {
		case ord < 0:
			p.err = fmt.Errorf("table %s has no column %s", t.Name, c)
		case slices.Contains(p.ords, ord):
			p.err = fmt.Errorf("column %s of %s is assigned twice", c, t.Name)
		}
		p.ords = append(p.ords, ord)
	}
	if compile != nil {
		b := levelIn(ctx, []storage.Binding{{Alias: alias, Cols: t.Schema.Names()}})
		p.vals, p.up = compile(b), b.levels()
	}
	db.plans.put(s, p)
	return p
}

// execInsert runs an INSERT and returns the number of rows it wrote. The
// source is evaluated in full, onto the session's row stacks, before the
// first row is written: it may read the target, or call a routine that
// writes it. Its rows leave the statement as the target's, so they are
// copied off the stacks once: each is carved out of one arena (carve), in
// the target's column order and coerced to its types, and appended to the
// target's rows.
func (db *DB) execInsert(ctx *execCtx, s *sqlast.InsertStmt) (int, error) {
	t, err := db.resolveTarget(ctx, s, s.Table, s.VarTarget)
	if err != nil {
		return 0, err
	}
	m, cols, rows, err := db.stackQuery(ctx, s.Source, 0)
	defer db.pop(m)
	if err != nil {
		return 0, err
	}
	schema := t.Schema.Cols
	want, ords := len(schema), []int(nil) // the columns written: every one in order, or the list's
	if len(s.Cols) > 0 {
		p := db.dmlPlanFor(ctx, s, t, len(s.Cols), func(i int) string { return s.Cols[i] }, "", nil)
		if p.err != nil {
			return 0, p.err
		}
		want, ords = len(p.ords), p.ords
	}
	if len(cols) != want {
		return 0, fmt.Errorf("INSERT into %s supplies %d values for %d columns", t.Name, len(cols), want)
	}
	if len(rows) == 0 {
		return 0, nil
	}
	l := db.dmlLogFor(ctx, t)
	l.statement()
	t.Grow(len(rows))
	w := len(schema)
	arena := carve(t, len(rows)*w)
	if ords != nil {
		clear(arena) // the columns the list leaves out are NULL
	}
	for _, row := range rows {
		nr := arena[:w:w]
		arena = arena[w:]
		for i, v := range row {
			ord := i
			if ords != nil {
				ord = ords[i]
			}
			cv, err := types.Convert(v, schema[ord].Type.Kind())
			if err != nil {
				return 0, fmt.Errorf("column %s of %s: %w", schema[ord].Name, t.Name, err)
			}
			nr[ord] = cv
		}
		if err := t.Insert(nr); err != nil {
			return 0, err
		}
		l.inserted(nr)
		db.wrote(l)
	}
	db.Stats.LogWrites += int64(len(rows))
	return len(rows), nil
}

// carve returns n values for the rows an INSERT writes into t: new ones,
// or, for a table a call owns, values off its arena (Spare), which grows
// by doubling — so the calls that reuse the table allocate no rows.
func carve(t *storage.Table, n int) []types.Value {
	k := len(t.Spare)
	switch {
	case t.Spare == nil:
		return make([]types.Value, n)
	case cap(t.Spare)-k < n:
		t.Spare, k = make([]types.Value, 0, max(n, 2*cap(t.Spare))), 0
	}
	t.Spare = t.Spare[:k+n]
	return t.Spare[k : k+n : k+n]
}

func (db *DB) execUpdate(ctx *execCtx, s *sqlast.UpdateStmt) (int, error) {
	alias := s.Alias
	if alias == "" {
		alias = s.Table
	}
	t, err := db.resolveTarget(ctx, s, s.Table, s.VarTarget)
	if err != nil {
		return 0, err
	}
	p := db.dmlPlanFor(ctx, s, t, len(s.Sets), func(i int) string { return s.Sets[i].Column }, alias, func(b *binder) []evalFn {
		vals := make([]evalFn, len(s.Sets))
		for i, sc := range s.Sets {
			vals[i] = b.expr(sc.Value)
		}
		return vals
	})
	if p.err != nil {
		return 0, p.err
	}
	defer db.popActs(db.acts.n)
	rctx := db.enterRow(ctx, alias, t.Schema.Names())
	// The WHERE, compiled with the target's row as the innermost level.
	var where testFn
	if s.Where != nil {
		where = db.rootCond(rctx, s.Where)
	}

	// Every WHERE and SET is evaluated over the rows as the statement found
	// them, then the rows change (SQL's UPDATE): a routine they call reads
	// no half-updated table. The changes wait on the session's stacks.
	rows, version := t.Rows, t.Version()
	start, m := len(db.ordBuf), db.top()
	defer func() { db.ordBuf = db.ordBuf[:start]; db.pop(m) }()
	for idx, row := range rows {
		rctx.scope.rows[0] = row
		if where != nil {
			t, err := where(rctx)
			if err != nil {
				return 0, err
			}
			if t != types.True {
				continue
			}
		}
		for i, val := range p.vals {
			v, err := val(rctx)
			if err != nil {
				return 0, err
			}
			cv, err := types.Convert(v, t.Schema.Cols[p.ords[i]].Type.Kind())
			if err != nil {
				return 0, err
			}
			db.valBuf = append(db.valBuf, cv)
		}
		db.ordBuf = append(db.ordBuf, idx)
	}
	ords, w := db.ordBuf[start:], len(p.vals)
	if len(ords) == 0 {
		return 0, nil
	}
	moved := t.Version() != version
	l := db.dmlLogFor(ctx, t)
	l.statement()
	affected := 0
	for k, idx := range ords {
		row, vals := rows[idx], db.valBuf[m.vals+k*w:m.vals+(k+1)*w]
		if moved { // a routine the clauses called wrote the target: the row is where it is now, if anywhere
			if idx = slices.IndexFunc(t.Rows, func(r []types.Value) bool { return &r[0] == &row[0] }); idx < 0 {
				continue
			}
		}
		var old []types.Value // the undo writes them back into the row slice
		if l.j != nil {
			old = cloneRow(row)
		}
		t.Set(idx, p.ords, vals)
		l.update(idx, row, old)
		affected++
	}
	db.wrote(l)
	db.Stats.LogWrites += int64(affected)
	return affected, nil
}

func (db *DB) execDelete(ctx *execCtx, s *sqlast.DeleteStmt) (int, error) {
	alias := s.Alias
	if alias == "" {
		alias = s.Table
	}
	t, err := db.resolveTarget(ctx, s, s.Table, s.VarTarget)
	if err != nil {
		return 0, err
	}
	defer db.popActs(db.acts.n)
	rctx := db.enterRow(ctx, alias, t.Schema.Names())

	var where testFn
	rows, version := t.Rows, t.Version()
	// The rows that stay, in a fresh slice (undo puts t.Rows back), made
	// when the first row goes: a DELETE that removes nothing allocates
	// nothing.
	kept := rows[:0:0]
	if s.Where != nil {
		where = db.rootCond(rctx, s.Where)
	}
	l := db.dmlLogFor(ctx, t)
	// The deleted ordinals wait on the session's ordinal stack.
	start := len(db.ordBuf)
	defer func() { db.ordBuf = db.ordBuf[:start] }()
	affected := 0
	for i, row := range rows {
		rctx.scope.rows[0] = row
		del := true
		if where != nil {
			v, err := where(rctx)
			if err != nil {
				return 0, err
			}
			del = v == types.True
		}
		if !del {
			if affected > 0 {
				kept = append(kept, row)
			}
			continue
		}
		if affected == 0 && where != nil {
			kept = append(make([][]types.Value, 0, len(rows)), rows[:i]...)
		}
		affected++
		db.ordBuf = append(db.ordBuf, i)
	}
	if affected > 0 {
		removed := db.ordBuf[start:]
		if t.Version() != version { // a routine the WHERE called wrote the target
			kept, removed = unlink(t.Rows, rows, removed, kept[:0])
		}
		l.statement()
		t.Retain(kept, removed)
		l.deleted(removed)
		db.wrote(l)
		affected = len(removed)
	}
	return affected, nil
}

// unlink splits now, the target's rows, into the rows kept (appended to
// kept) and the ordinals of the rows a DELETE chose, rows[i] for i in
// chosen, among them: the rows a routine its WHERE called appended stay,
// and those it removed are not removed twice.
func unlink(now, rows [][]types.Value, chosen []int, kept [][]types.Value) ([][]types.Value, []int) {
	gone := make(map[*types.Value]bool, len(chosen))
	for _, i := range chosen {
		gone[&rows[i][0]] = true
	}
	removed := chosen[:0]
	for j, r := range now {
		if gone[&r[0]] {
			removed = append(removed, j)
		} else {
			kept = append(kept, r)
		}
	}
	return kept, removed
}
