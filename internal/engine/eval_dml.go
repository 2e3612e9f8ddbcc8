package engine

import (
	"fmt"

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

func (db *DB) execInsert(ctx *execCtx, s *sqlast.InsertStmt) (*Result, error) {
	t, err := db.resolveTarget(ctx, s.Table, s.VarTarget)
	if err != nil {
		return nil, err
	}
	src, err := db.evalQuery(ctx, s.Source)
	if err != nil {
		return nil, err
	}
	// column mapping
	ncols := len(t.Schema.Cols)
	mapping := make([]int, 0, ncols) // target ordinal for each source column
	if len(s.Cols) > 0 {
		for _, c := range s.Cols {
			ord := t.Schema.Index(c)
			if ord < 0 {
				return nil, fmt.Errorf("table %s has no column %s", t.Name, c)
			}
			mapping = append(mapping, ord)
		}
	} else {
		for i := 0; i < ncols; i++ {
			mapping = append(mapping, i)
		}
	}
	if len(src.Cols) != len(mapping) {
		return nil, fmt.Errorf("INSERT into %s supplies %d values for %d columns",
			t.Name, len(src.Cols), len(mapping))
	}
	l := db.dmlLogFor(ctx, t)
	for _, row := range src.Rows {
		nr := make([]types.Value, ncols)
		for i, ord := range mapping {
			v, err := coerce(row[i], t.Schema.Cols[ord].Type)
			if err != nil {
				return nil, fmt.Errorf("column %s of %s: %w", t.Schema.Cols[ord].Name, t.Name, err)
			}
			nr[ord] = v
		}
		if err := t.Insert(nr); err != nil {
			return nil, err
		}
		l.insert(nr)
		db.wrote(l)
	}
	db.Stats.LogWrites += int64(len(src.Rows))
	return &Result{Affected: len(src.Rows)}, nil
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

func (db *DB) execUpdate(ctx *execCtx, s *sqlast.UpdateStmt) (*Result, error) {
	t, err := db.resolveTarget(ctx, s.Table, s.VarTarget)
	if err != nil {
		return nil, err
	}
	alias := s.Alias
	if alias == "" {
		alias = s.Table
	}
	rctx := enter(ctx, []entryMeta{{alias: alias, cols: t.Schema.Names()}})

	// The statement's expressions, compiled once: names are dynamic (the
	// target is bound by name per execution), so nothing can go stale.
	var where testFn
	if s.Where != nil {
		where = db.rootCond(s.Where)
	}
	vals := cached(db, s, func() []evalFn {
		vals := make([]evalFn, len(s.Sets))
		for i, sc := range s.Sets {
			vals[i] = noLevel.expr(sc.Value)
		}
		return vals
	})
	ords := make([]int, len(s.Sets))
	for i, sc := range s.Sets {
		ord := t.Schema.Index(sc.Column)
		if ord < 0 {
			return nil, fmt.Errorf("table %s has no column %s", t.Name, sc.Column)
		}
		ords[i] = ord
	}

	l := db.dmlLogFor(ctx, t)
	affected := 0
	for idx, row := range t.Rows {
		rctx.scope.rows[0] = row
		if where != nil {
			t, err := where(rctx)
			if err != nil {
				return nil, err
			}
			if t != types.True {
				continue
			}
		}
		// Evaluate all new values against the pre-update row.
		newVals := make([]types.Value, len(s.Sets))
		for i, val := range vals {
			v, err := val(rctx)
			if err != nil {
				return nil, err
			}
			cv, err := coerce(v, t.Schema.Cols[ords[i]].Type)
			if err != nil {
				return nil, err
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
		for i, ord := range ords {
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
	return &Result{Affected: affected}, nil
}

func (db *DB) execDelete(ctx *execCtx, s *sqlast.DeleteStmt) (*Result, error) {
	t, err := db.resolveTarget(ctx, s.Table, s.VarTarget)
	if err != nil {
		return nil, err
	}
	alias := s.Alias
	if alias == "" {
		alias = s.Table
	}
	rctx := enter(ctx, []entryMeta{{alias: alias, cols: t.Schema.Names()}})

	var where testFn
	if s.Where != nil {
		where = db.rootCond(s.Where)
	}
	oldRows := t.Rows
	kept := t.Rows[:0:0]
	var removed []int
	for i, row := range t.Rows {
		rctx.scope.rows[0] = row
		del := true
		if where != nil {
			v, err := where(rctx)
			if err != nil {
				return nil, err
			}
			del = v == types.True
		}
		if del {
			removed = append(removed, i)
		} else {
			kept = append(kept, row)
		}
	}
	affected := len(removed)
	if affected > 0 {
		t.Rows = kept
		t.Bump()
		l := db.dmlLogFor(ctx, t)
		l.deleteRows(oldRows, removed)
		db.wrote(l)
	}
	return &Result{Affected: affected}, nil
}
