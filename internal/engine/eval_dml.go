package engine

import (
	"fmt"
	"slices"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// resolveTarget finds the table a DML statement modifies: a
// table-valued variable (INSERT INTO TABLE v) or a stored table.
func (db *DB) resolveTarget(ctx *execCtx, name string, varTarget bool) (*storage.Table, error) {
	switch rel := db.resolve(ctx.vars, name); {
	case rel.kind == relLocal || rel.kind == relTable && !varTarget:
		return rel.tab, nil
	case varTarget:
		return nil, fmt.Errorf("table-valued variable %s not declared", name)
	}
	return nil, fmt.Errorf("table %s does not exist", name)
}

// dmlPlan is what an INSERT or UPDATE resolves against its target's
// schema once, not per execution: the target ordinal of each column it
// writes and, for an UPDATE, its SET values compiled. DDL replaces a
// schema, it never edits one, so the schema's pointer stamps the plan,
// which the plan cache keeps under the statement.
type dmlPlan struct {
	schema *storage.Schema
	ords   []int
	vals   []evalFn
}

// dmlPlanFor returns s's plan against t's schema. s writes n columns,
// the ith named col(i); compile compiles an UPDATE's values. A column t
// lacks, or one written twice, is refused.
func (db *DB) dmlPlanFor(s sqlast.Stmt, t *storage.Table, n int, col func(int) string, compile func() []evalFn) (*dmlPlan, error) {
	old, _ := db.plans.get(s).(*dmlPlan)
	if old != nil && old.schema == t.Schema {
		return old, nil
	}
	p := &dmlPlan{schema: t.Schema}
	for i := 0; i < n; i++ {
		c := col(i)
		ord := t.Schema.Index(c)
		switch {
		case ord < 0:
			return nil, fmt.Errorf("table %s has no column %s", t.Name, c)
		case slices.Contains(p.ords, ord):
			return nil, fmt.Errorf("column %s of %s is assigned twice", c, t.Name)
		}
		p.ords = append(p.ords, ord)
	}
	switch {
	case old != nil:
		p.vals = old.vals
	case compile != nil:
		p.vals = compile()
	}
	db.plans.put(s, p)
	return p, nil
}

// execInsert runs an INSERT and returns the number of rows it wrote. The
// source is evaluated in full, onto the session's row stacks, before the
// first row is written: it may read the target, or call a routine that
// writes it. Its rows leave the statement as the target's, so they are
// copied off the stacks once: each is carved out of one arena for the
// whole statement, in the target's column order and coerced to its
// types, and appended to the target's rows.
func (db *DB) execInsert(ctx *execCtx, s *sqlast.InsertStmt) (int, error) {
	t, err := db.resolveTarget(ctx, s.Table, s.VarTarget)
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
		p, err := db.dmlPlanFor(s, t, len(s.Cols), func(i int) string { return s.Cols[i] }, nil)
		if err != nil {
			return 0, err
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
	t.Rows = slices.Grow(t.Rows, len(rows))
	w := len(schema)
	arena := make([]types.Value, len(rows)*w)
	for _, row := range rows {
		nr := arena[:w:w]
		arena = arena[w:]
		for i, v := range row {
			ord := i
			if ords != nil {
				ord = ords[i]
			}
			cv, err := coerce(v, schema[ord].Type)
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

// coerce converts an inserted value to the column's declared kind.
func coerce(v types.Value, t sqlast.TypeName) (types.Value, error) {
	if v.IsNull() {
		return types.Null, nil
	}
	want := t.Kind()
	if v.Kind == want || want == types.KindNull {
		return v, nil
	}
	switch want {
	case types.KindDate:
		if v.Kind == types.KindString {
			d, err := types.ParseDate(v.S)
			if err != nil {
				return types.Null, err
			}
			return types.NewDate(d), nil
		}
		if v.Kind == types.KindInt {
			return types.NewDate(v.I), nil
		}
	case types.KindFloat:
		if v.Kind == types.KindInt {
			return types.NewFloat(float64(v.I)), nil
		}
	case types.KindInt:
		if v.Kind == types.KindFloat {
			return types.NewInt(int64(v.F)), nil
		}
	case types.KindString:
		return types.NewString(v.Text()), nil
	}
	return v, nil
}

func (db *DB) execUpdate(ctx *execCtx, s *sqlast.UpdateStmt) (int, error) {
	t, err := db.resolveTarget(ctx, s.Table, s.VarTarget)
	if err != nil {
		return 0, err
	}
	alias := s.Alias
	if alias == "" {
		alias = s.Table
	}
	defer db.popActs(db.acts.n)
	rctx := db.enterRow(ctx, alias, t.Schema.Names())

	// The statement's expressions, compiled once: names are dynamic (the
	// target is bound by name per execution), so nothing can go stale.
	var where testFn
	if s.Where != nil {
		where = db.rootCond(s.Where)
	}
	p, err := db.dmlPlanFor(s, t, len(s.Sets), func(i int) string { return s.Sets[i].Column }, func() []evalFn {
		vals := make([]evalFn, len(s.Sets))
		for i, sc := range s.Sets {
			vals[i] = noLevel.expr(sc.Value)
		}
		return vals
	})
	if err != nil {
		return 0, err
	}

	l := db.dmlLogFor(ctx, t)
	affected := 0
	newVals := make([]types.Value, len(p.vals))
	for idx, row := range t.Rows {
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
		// Evaluate all new values against the pre-update row.
		for i, val := range p.vals {
			v, err := val(rctx)
			if err != nil {
				return 0, err
			}
			cv, err := coerce(v, t.Schema.Cols[p.ords[i]].Type)
			if err != nil {
				return 0, err
			}
			newVals[i] = cv
		}
		// Journal the old values before mutating in place: if a later
		// row's evaluation fails, the rollback writes them back into the
		// same row slices, so the scan's partial mutations don't leak.
		var old []types.Value
		if l.j != nil {
			old = cloneRow(row)
		}
		if affected == 0 {
			l.statement()
		}
		for i, ord := range p.ords {
			row[ord] = newVals[i]
		}
		l.update(idx, row, old)
		db.wrote(l)
		affected++
	}
	if affected > 0 {
		t.Bump()
		db.Stats.LogWrites += int64(affected)
	}
	return affected, nil
}

func (db *DB) execDelete(ctx *execCtx, s *sqlast.DeleteStmt) (int, error) {
	t, err := db.resolveTarget(ctx, s.Table, s.VarTarget)
	if err != nil {
		return 0, err
	}
	alias := s.Alias
	if alias == "" {
		alias = s.Table
	}
	defer db.popActs(db.acts.n)
	rctx := db.enterRow(ctx, alias, t.Schema.Names())

	var where testFn
	kept := t.Rows[:0:0] // the rows that stay, in a fresh slice: undo puts t.Rows back
	if s.Where != nil {
		where = db.rootCond(s.Where)
		kept = make([][]types.Value, 0, len(t.Rows))
	}
	l := db.dmlLogFor(ctx, t)
	var removed []int // the deleted ordinals, when the redo needs them
	affected := 0
	for i, row := range t.Rows {
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
			kept = append(kept, row)
			continue
		}
		affected++
		if l.redo {
			removed = append(removed, i)
		}
	}
	if affected > 0 {
		l.statement()
		t.Rows = kept
		t.Bump()
		l.deleted(removed)
		db.wrote(l)
	}
	return affected, nil
}
