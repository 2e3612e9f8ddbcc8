package core

import (
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

// Statement-by-statement transformation of a routine body under
// per-statement slicing (paper §VI-B, §VI-C).

func (st *psState) transformCompound(c *sqlast.CompoundStmt, env psEnv) (*sqlast.CompoundStmt, error) {
	out := &sqlast.CompoundStmt{Label: c.Label, Atomic: c.Atomic}

	// Declarations: time-varying variables become table-valued, and
	// DEFAULT values become rows valid over the whole period.
	// Collection-typed variables gain period fields.
	var initStmts []sqlast.Stmt
	for _, d := range c.VarDecls {
		if d.Type.IsCollection() {
			ext := d.Type
			ext.Row = append(append([]sqlast.ColumnDef{}, ext.Row...),
				sqlast.ColumnDef{Name: "begin_time", Type: sqlast.TypeName{Base: "DATE"}},
				sqlast.ColumnDef{Name: "end_time", Type: sqlast.TypeName{Base: "DATE"}})
			out.VarDecls = append(out.VarDecls, &sqlast.VarDecl{
				Names: append([]string{}, d.Names...), Type: ext})
			continue
		}
		var plain, varying []string
		for _, nm := range d.Names {
			if st.tv[strings.ToLower(nm)] {
				varying = append(varying, nm)
			} else {
				plain = append(plain, nm)
			}
		}
		if len(plain) > 0 {
			out.VarDecls = append(out.VarDecls, &sqlast.VarDecl{
				Names: plain, Type: d.Type, Default: sqlast.CloneExpr(d.Default)})
		}
		for _, nm := range varying {
			out.VarDecls = append(out.VarDecls, &sqlast.VarDecl{
				Names: []string{nm}, Type: psCollectionType(d.Type)})
			if d.Default != nil {
				initStmts = append(initStmts, &sqlast.InsertStmt{
					Table: nm, VarTarget: true,
					Cols: []string{"taupsm_result", "begin_time", "end_time"},
					Source: &sqlast.ValuesExpr{Rows: [][]sqlast.Expr{{
						sqlast.CloneExpr(d.Default),
						sqlast.CloneExpr(env.pBegin), sqlast.CloneExpr(env.pEnd),
					}}}})
			}
		}
	}
	out.Stmts = append(out.Stmts, initStmts...)

	// Cursors over temporal queries are rewritten to sequenced form.
	for _, cd := range c.Cursors {
		q := sqlast.CloneStmt(cd.Query)
		if st.nodeTemporal(q) {
			sel, ok := q.(*sqlast.SelectStmt)
			if !ok {
				return nil, refuse(cd.Pos, "%w: temporal cursor %s requires a plain SELECT", ErrNotTransformable, cd.Name)
			}
			if err := st.rewriteRoutineSelect(sel, env); err != nil {
				return nil, err
			}
			q = sel
		}
		out.Cursors = append(out.Cursors, &sqlast.CursorDecl{Name: cd.Name, Query: q})
	}

	// Handlers: actions transformed.
	for _, h := range c.Handlers {
		action, err := st.transformStmt(h.Action, env)
		if err != nil {
			return nil, err
		}
		if len(action) != 1 {
			action = []sqlast.Stmt{&sqlast.CompoundStmt{Stmts: action}}
		}
		out.Handlers = append(out.Handlers, &sqlast.HandlerDecl{Kind: h.Kind, Condition: h.Condition, Action: action[0]})
	}

	savedPending := st.pendingDecls
	st.pendingDecls = nil
	for _, s := range c.Stmts {
		ts, err := st.transformStmt(s, env)
		if err != nil {
			return nil, err
		}
		out.Stmts = append(out.Stmts, ts...)
	}
	out.VarDecls = append(out.VarDecls, st.pendingDecls...)
	st.pendingDecls = savedPending
	return out, nil
}

func (st *psState) transformStmts(stmts []sqlast.Stmt, env psEnv) ([]sqlast.Stmt, error) {
	var out []sqlast.Stmt
	for _, s := range stmts {
		// A FETCH from a temporal cursor re-scopes the evaluation
		// period of the following statements in this list to the
		// fetched row's period (per-period processing, §VI-C).
		if f, ok := s.(*sqlast.FetchStmt); ok {
			ts, newEnv, err := st.transformFetch(f, env)
			if err != nil {
				return nil, err
			}
			out = append(out, ts...)
			if newEnv != nil {
				env = *newEnv
			}
			continue
		}
		ts, err := st.transformStmt(s, env)
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

func (st *psState) transformStmt(s sqlast.Stmt, env psEnv) ([]sqlast.Stmt, error) {
	switch x := s.(type) {
	case *sqlast.CompoundStmt:
		c, err := st.transformCompound(x, env)
		if err != nil {
			return nil, err
		}
		return []sqlast.Stmt{c}, nil

	case *sqlast.SetStmt:
		return st.transformSet(x, env)

	case *sqlast.ReturnStmt:
		return st.transformReturn(x, env)

	case *sqlast.IfStmt:
		if st.exprTemporal(x.Cond) {
			return nil, refuse(x.Pos, "%w: IF over a time-varying condition", ErrNotTransformable)
		}
		ni := &sqlast.IfStmt{Cond: sqlast.CloneExpr(x.Cond)}
		var err error
		if ni.Then, err = st.transformStmts(x.Then, env); err != nil {
			return nil, err
		}
		for _, ei := range x.ElseIfs {
			if st.exprTemporal(ei.Cond) {
				return nil, refuse(x.Pos, "%w: ELSEIF over a time-varying condition", ErrNotTransformable)
			}
			body, err := st.transformStmts(ei.Then, env)
			if err != nil {
				return nil, err
			}
			ni.ElseIfs = append(ni.ElseIfs, sqlast.ElseIf{Cond: sqlast.CloneExpr(ei.Cond), Then: body})
		}
		if x.Else != nil {
			if ni.Else, err = st.transformStmts(x.Else, env); err != nil {
				return nil, err
			}
		}
		return []sqlast.Stmt{ni}, nil

	case *sqlast.CaseStmt:
		if st.exprTemporal(x.Operand) {
			return nil, refuse(x.Pos, "%w: CASE over a time-varying operand", ErrNotTransformable)
		}
		nc := &sqlast.CaseStmt{Operand: sqlast.CloneExpr(x.Operand)}
		for _, w := range x.Whens {
			if st.exprTemporal(w.When) {
				return nil, refuse(x.Pos, "%w: CASE WHEN over a time-varying condition", ErrNotTransformable)
			}
			body, err := st.transformStmts(w.Then, env)
			if err != nil {
				return nil, err
			}
			nc.Whens = append(nc.Whens, sqlast.CaseWhenStmt{When: sqlast.CloneExpr(w.When), Then: body})
		}
		if x.Else != nil {
			var err error
			if nc.Else, err = st.transformStmts(x.Else, env); err != nil {
				return nil, err
			}
		}
		return []sqlast.Stmt{nc}, nil

	case *sqlast.WhileStmt:
		if st.exprTemporal(x.Cond) {
			return nil, refuse(x.Pos, "%w: WHILE over a time-varying condition", ErrNotTransformable)
		}
		body, err := st.transformStmts(x.Body, env)
		if err != nil {
			return nil, err
		}
		return []sqlast.Stmt{&sqlast.WhileStmt{Label: x.Label, Cond: sqlast.CloneExpr(x.Cond), Body: body}}, nil

	case *sqlast.RepeatStmt:
		if st.exprTemporal(x.Until) {
			return nil, refuse(x.Pos, "%w: REPEAT over a time-varying condition", ErrNotTransformable)
		}
		body, err := st.transformStmts(x.Body, env)
		if err != nil {
			return nil, err
		}
		return []sqlast.Stmt{&sqlast.RepeatStmt{Label: x.Label, Body: body, Until: sqlast.CloneExpr(x.Until)}}, nil

	case *sqlast.LoopStmt:
		body, err := st.transformStmts(x.Body, env)
		if err != nil {
			return nil, err
		}
		return []sqlast.Stmt{&sqlast.LoopStmt{Label: x.Label, Body: body}}, nil

	case *sqlast.ForStmt:
		return st.transformFor(x, env)

	case *sqlast.FetchStmt:
		ts, _, err := st.transformFetch(x, env)
		return ts, err

	case *sqlast.OpenStmt, *sqlast.CloseStmt, *sqlast.LeaveStmt, *sqlast.IterateStmt, *sqlast.SignalStmt:
		return []sqlast.Stmt{sqlast.CloneStmt(s)}, nil

	case *sqlast.CallStmt:
		nc := sqlast.CloneStmt(x).(*sqlast.CallStmt)
		if st.a.temporalRoutine(nc.Name) {
			nc.Name = "ps_" + nc.Name
			nc.Args = append(nc.Args, sqlast.CloneExpr(env.pBegin), sqlast.CloneExpr(env.pEnd))
		}
		return []sqlast.Stmt{nc}, nil

	case *sqlast.CreateTableStmt:
		nt := sqlast.CloneStmt(x).(*sqlast.CreateTableStmt)
		if st.localTemporal[strings.ToLower(nt.Name)] {
			nt.Cols = append(nt.Cols,
				sqlast.ColumnDef{Name: "begin_time", Type: sqlast.TypeName{Base: "DATE"}},
				sqlast.ColumnDef{Name: "end_time", Type: sqlast.TypeName{Base: "DATE"}})
		}
		return []sqlast.Stmt{nt}, nil

	case *sqlast.DropTableStmt:
		return []sqlast.Stmt{sqlast.CloneStmt(s)}, nil

	case *sqlast.InsertStmt:
		return st.transformInsert(x, env)

	case *sqlast.DeleteStmt, *sqlast.UpdateStmt:
		tbl := ""
		if d, ok := x.(*sqlast.DeleteStmt); ok {
			tbl = d.Table
		} else {
			tbl = x.(*sqlast.UpdateStmt).Table
		}
		if st.tr.Info.IsTemporalTable(tbl) || st.localTemporal[strings.ToLower(tbl)] {
			return nil, refuse(sqlast.PosOf(s), "%w: modification of temporal table %s inside a sequenced routine", ErrNotTransformable, tbl)
		}
		return []sqlast.Stmt{sqlast.CloneStmt(s)}, nil

	case *sqlast.SelectStmt:
		sel := sqlast.CloneStmt(x).(*sqlast.SelectStmt)
		if st.nodeTemporal(sel) {
			if err := st.rewriteRoutineSelect(sel, env); err != nil {
				return nil, err
			}
		}
		return []sqlast.Stmt{sel}, nil

	case *sqlast.TemporalStmt:
		return nil, ErrSequencedModifierInRoutine
	}
	return nil, refuse(sqlast.PosOf(s), "%w: unsupported statement %T", ErrNotTransformable, s)
}

// ---------- queries inside the routine ----------

// rewriteRoutineSelect rewrites a SELECT inside the routine body to its
// sequenced equivalent over env's period: time-varying variable
// references become joins against the variables' tables, then the
// standard sequenced rewrite applies.
func (st *psState) rewriteRoutineSelect(sel *sqlast.SelectStmt, env psEnv) error {
	sc := &seqCtx{a: st.a, pBegin: env.pBegin, pEnd: env.pEnd,
		localTemporal: map[string]bool{}, lateralCounter: &st.lateralCounter}
	for k, temporal := range st.localTemporal {
		if temporal {
			sc.localTemporal[k] = true
		}
	}
	st.bindVarRefs(sel, sc)
	return st.tr.rewriteSequencedSelect(sel, sc)
}

// bindVarRefs replaces unqualified references to time-varying variables
// with references to joined variable tables. Column names of the FROM
// tables shadow variables, per SQL scoping.
func (st *psState) bindVarRefs(sel *sqlast.SelectStmt, sc *seqCtx) {
	shadowed := map[string]bool{}
	eachFromEntry(sel, func(fe fromEntry) {
		for _, c := range st.tr.Info.TableColumns(fe.Name) {
			shadowed[strings.ToLower(c)] = true
		}
	})
	joined := map[string]string{} // var name -> alias
	sqlast.MapExprs(sel, func(e sqlast.Expr) sqlast.Expr {
		cr, ok := e.(*sqlast.ColumnRef)
		if !ok || cr.Table != "" {
			return e
		}
		k := strings.ToLower(cr.Column)
		if !st.tv[k] || shadowed[k] {
			return e
		}
		alias, ok := joined[k]
		if !ok {
			alias = sc.freshAlias()
			joined[k] = alias
			sel.From = append(sel.From, &sqlast.BaseTable{Name: cr.Column, Alias: alias})
			sc.localTemporal[k] = true
		}
		return &sqlast.ColumnRef{Table: alias, Column: "taupsm_result"}
	})
	// Mark the joined variable tables temporal by their FROM names so
	// the sequenced rewrite picks them up as operands.
	for k := range joined {
		sc.localTemporal[k] = true
	}
}

// ---------- assignments ----------

// sequencedVarDelete emits the conventional three-statement sequenced
// delete on a table-valued variable over [p1, p2): insert the left and
// right remnants of straddling rows, then delete everything overlapping.
func sequencedVarDelete(name string, cols []string, p1, p2 sqlast.Expr) []sqlast.Stmt {
	items := func(beginExpr, endExpr sqlast.Expr) []sqlast.SelectItem {
		var out []sqlast.SelectItem
		for _, c := range cols {
			out = append(out, sqlast.SelectItem{Expr: col("", c)})
		}
		out = append(out,
			sqlast.SelectItem{Expr: beginExpr},
			sqlast.SelectItem{Expr: endExpr})
		return out
	}
	from := []sqlast.TableRef{&sqlast.BaseTable{Name: name}}
	return []sqlast.Stmt{
		// left remnant [begin_time, p1)
		&sqlast.InsertStmt{Table: name, VarTarget: true, Source: &sqlast.SelectStmt{
			Items: items(col("", "begin_time"), sqlast.CloneExpr(p1)),
			From:  from,
			Where: andExpr(
				&sqlast.BinaryExpr{Op: "<", L: col("", "begin_time"), R: sqlast.CloneExpr(p1)},
				&sqlast.BinaryExpr{Op: ">", L: col("", "end_time"), R: sqlast.CloneExpr(p1)}),
		}},
		// right remnant [p2, end_time)
		&sqlast.InsertStmt{Table: name, VarTarget: true, Source: &sqlast.SelectStmt{
			Items: items(sqlast.CloneExpr(p2), col("", "end_time")),
			From:  []sqlast.TableRef{&sqlast.BaseTable{Name: name}},
			Where: andExpr(
				&sqlast.BinaryExpr{Op: "<", L: col("", "begin_time"), R: sqlast.CloneExpr(p2)},
				&sqlast.BinaryExpr{Op: ">", L: col("", "end_time"), R: sqlast.CloneExpr(p2)}),
		}},
		// delete the overlapping originals (remnants don't overlap)
		&sqlast.DeleteStmt{Table: name, VarTarget: true, Where: andExpr(
			&sqlast.BinaryExpr{Op: "<", L: col("", "begin_time"), R: sqlast.CloneExpr(p2)},
			&sqlast.BinaryExpr{Op: ">", L: col("", "end_time"), R: sqlast.CloneExpr(p1)})},
	}
}

// transformSet implements ps[[SET target = value]] (§VI-B): a sequenced
// delete of the target's period followed by a sequenced insert of the
// value expression.
func (st *psState) transformSet(x *sqlast.SetStmt, env psEnv) ([]sqlast.Stmt, error) {
	k := strings.ToLower(x.Target)
	if !st.tv[k] {
		// Non-time-varying assignment stays as written.
		return []sqlast.Stmt{sqlast.CloneStmt(x)}, nil
	}
	needDelete := st.assignCount[k] > 1 || st.hasDefault[k]

	// A self-referencing assignment (SET n = n + 1) must read the old
	// rows before the sequenced delete removes them: stage the new
	// rows in a scratch collection first.
	if needDelete && referencesVar(x.Value, x.Target) {
		scratch := st.freshAux("set")
		ty := st.varTypes[k]
		st.pendingDecls = append(st.pendingDecls, &sqlast.VarDecl{
			Names: []string{scratch}, Type: psCollectionType(ty)})
		ins, err := st.sequencedValueInsert(scratch, x.Value, env)
		if err != nil {
			return nil, err
		}
		out := []sqlast.Stmt{ins}
		out = append(out, sequencedVarDelete(x.Target, []string{"taupsm_result"}, env.pBegin, env.pEnd)...)
		out = append(out,
			&sqlast.InsertStmt{Table: x.Target, VarTarget: true,
				Cols: []string{"taupsm_result", "begin_time", "end_time"},
				Source: &sqlast.SelectStmt{
					Items: []sqlast.SelectItem{
						{Expr: col("", "taupsm_result")},
						{Expr: col("", "begin_time")},
						{Expr: col("", "end_time")},
					},
					From: []sqlast.TableRef{&sqlast.BaseTable{Name: scratch}},
				}},
			&sqlast.DeleteStmt{Table: scratch, VarTarget: true})
		return out, nil
	}

	var out []sqlast.Stmt
	// First-assignment optimization (§VI-B): skip the delete when this
	// is the variable's only assignment and it has no DEFAULT rows.
	if needDelete {
		out = append(out, sequencedVarDelete(x.Target, []string{"taupsm_result"}, env.pBegin, env.pEnd)...)
	}
	ins, err := st.sequencedValueInsert(x.Target, x.Value, env)
	if err != nil {
		return nil, err
	}
	return append(out, ins), nil
}

// referencesVar reports whether e contains an unqualified reference to
// the named variable.
func referencesVar(e sqlast.Expr, name string) bool {
	found := false
	sqlast.Walk(e, func(n sqlast.Node) bool {
		if cr, ok := n.(*sqlast.ColumnRef); ok && cr.Table == "" && strings.EqualFold(cr.Column, name) {
			found = true
		}
		return !found
	})
	return found
}

// sequencedValueInsert builds INSERT INTO TABLE target <sequenced value
// expression> for a scalar value expression evaluated over env's
// period.
func (st *psState) sequencedValueInsert(target string, value sqlast.Expr, env psEnv) (sqlast.Stmt, error) {
	cols := []string{"begin_time", "end_time", "taupsm_result"}
	// Scalar subquery: the paradigmatic case (Figure 11).
	if sub, ok := value.(*sqlast.SubqueryExpr); ok {
		sel, ok2 := sub.Query.(*sqlast.SelectStmt)
		if !ok2 {
			return nil, refuse(sqlast.PosOf(sub.Query), "%w: assignment from a set-operation subquery", ErrNotTransformable)
		}
		if len(sel.Items) != 1 {
			return nil, refuse(sel.Pos, "assignment subquery must return one column")
		}
		sel = sqlast.CloneStmt(sel).(*sqlast.SelectStmt)
		if err := st.rewriteRoutineSelect(sel, env); err != nil {
			return nil, err
		}
		return &sqlast.InsertStmt{Table: target, VarTarget: true, Cols: cols, Source: sel}, nil
	}
	if !st.exprTemporal(value) {
		// Constant over the whole period: a single timestamped tuple.
		return &sqlast.InsertStmt{Table: target, VarTarget: true,
			Cols: []string{"taupsm_result", "begin_time", "end_time"},
			Source: &sqlast.ValuesExpr{Rows: [][]sqlast.Expr{{
				sqlast.CloneExpr(value), sqlast.CloneExpr(env.pBegin), sqlast.CloneExpr(env.pEnd),
			}}}}, nil
	}
	// General time-varying expression: join the periods of every
	// time-varying operand (variables become their tables; temporal
	// function calls become lateral TABLE refs) — the per-statement
	// slicing happens through this join.
	sel := &sqlast.SelectStmt{Items: []sqlast.SelectItem{{Expr: sqlast.CloneExpr(value)}}}
	if err := st.rewriteRoutineSelect(sel, env); err != nil {
		return nil, err
	}
	return &sqlast.InsertStmt{Table: target, VarTarget: true, Cols: cols, Source: sel}, nil
}

// transformReturn implements ps[[RETURN value]] (§VI-B): insert the
// sequenced value into the return collection, then return it.
func (st *psState) transformReturn(x *sqlast.ReturnStmt, env psEnv) ([]sqlast.Stmt, error) {
	if x.Value == nil {
		return []sqlast.Stmt{&sqlast.ReturnStmt{}}, nil
	}
	// Returning a collection variable directly.
	if cr, ok := x.Value.(*sqlast.ColumnRef); ok && cr.Table == "" {
		k := strings.ToLower(cr.Column)
		if ty, ok2 := st.varTypes[k]; ok2 && ty.IsCollection() {
			return []sqlast.Stmt{&sqlast.ReturnStmt{Value: sqlast.CloneExpr(x.Value)}}, nil
		}
	}
	ins, err := st.sequencedValueInsert(returnVar, x.Value, env)
	if err != nil {
		return nil, err
	}
	return []sqlast.Stmt{ins, &sqlast.ReturnStmt{Value: &sqlast.ColumnRef{Column: returnVar}}}, nil
}

// ---------- per-period iteration ----------

// transformFor slices a FOR loop over a temporal query: the query is
// rewritten sequenced (gaining begin_time/end_time), and the body
// executes once per row with the row's period as its evaluation period.
func (st *psState) transformFor(x *sqlast.ForStmt, env psEnv) ([]sqlast.Stmt, error) {
	q := sqlast.CloneStmt(x.Query)
	if !st.nodeTemporal(q) {
		body, err := st.transformStmts(x.Body, env)
		if err != nil {
			return nil, err
		}
		return []sqlast.Stmt{&sqlast.ForStmt{Label: x.Label, LoopVar: x.LoopVar, Cursor: x.Cursor, Query: q, Body: body}}, nil
	}
	sel, ok := q.(*sqlast.SelectStmt)
	if !ok {
		return nil, refuse(x.Pos, "%w: temporal FOR loop requires a plain SELECT", ErrNotTransformable)
	}
	if err := st.rewriteRoutineSelect(sel, env); err != nil {
		return nil, err
	}
	st.usesPPC = true
	inner := psEnv{
		pBegin:         col(x.LoopVar, "begin_time"),
		pEnd:           col(x.LoopVar, "end_time"),
		inTemporalLoop: true,
	}
	body, err := st.transformStmts(x.Body, inner)
	if err != nil {
		return nil, err
	}
	return []sqlast.Stmt{&sqlast.ForStmt{Label: x.Label, LoopVar: x.LoopVar, Cursor: x.Cursor, Query: sel, Body: body}}, nil
}

// transformFetch slices a FETCH from a temporal cursor: the rewritten
// cursor yields (begin_time, end_time, values...); the fetched values
// are stored into the time-varying variables for exactly the fetched
// period via auxiliary scalars. A FETCH of a temporal cursor inside a
// loop introduced over temporal results is the paper's *non-nested
// FETCH* (τPSM q17b) and cannot be transformed.
func (st *psState) transformFetch(x *sqlast.FetchStmt, env psEnv) ([]sqlast.Stmt, *psEnv, error) {
	q := st.cursorQueries[strings.ToLower(x.Cursor)]
	if q == nil || !st.nodeTemporal(q) {
		return []sqlast.Stmt{sqlast.CloneStmt(x)}, nil, nil
	}
	if env.inTemporalLoop {
		return nil, nil, refuse(x.Pos, "%w: non-nested FETCH of cursor %s inside per-period iteration", ErrNotTransformable, x.Cursor)
	}
	st.usesPPC = true

	bt := st.freshAux("bt")
	et := st.freshAux("et")
	st.pendingDecls = append(st.pendingDecls,
		&sqlast.VarDecl{Names: []string{bt, et}, Type: sqlast.TypeName{Base: "DATE"},
			Default: &sqlast.Literal{Val: types.Null}})

	into := []string{bt, et}
	var stores []sqlast.Stmt
	period := psEnv{pBegin: &sqlast.ColumnRef{Column: bt}, pEnd: &sqlast.ColumnRef{Column: et}}
	for _, v := range x.Into {
		k := strings.ToLower(v)
		if !st.tv[k] {
			into = append(into, v)
			continue
		}
		aux := st.freshAux("v")
		ty, ok := st.varTypes[k]
		if !ok {
			ty = sqlast.TypeName{Base: "VARCHAR", Length: 255}
		}
		st.pendingDecls = append(st.pendingDecls, &sqlast.VarDecl{Names: []string{aux}, Type: ty})
		into = append(into, aux)
		stores = append(stores, sequencedVarDelete(v, []string{"taupsm_result"}, period.pBegin, period.pEnd)...)
		stores = append(stores, &sqlast.InsertStmt{Table: v, VarTarget: true,
			Cols: []string{"taupsm_result", "begin_time", "end_time"},
			Source: &sqlast.ValuesExpr{Rows: [][]sqlast.Expr{{
				&sqlast.ColumnRef{Column: aux},
				&sqlast.ColumnRef{Column: bt},
				&sqlast.ColumnRef{Column: et},
			}}}})
	}
	out := []sqlast.Stmt{&sqlast.FetchStmt{Cursor: x.Cursor, Into: into}}
	if len(stores) > 0 {
		// Guard the stores so a failed FETCH (NOT FOUND) doesn't store
		// a stale period: the auxiliary timestamps stay NULL initially
		// and are only non-NULL after a successful fetch.
		out = append(out, &sqlast.IfStmt{
			Cond: &sqlast.IsNullExpr{X: &sqlast.ColumnRef{Column: bt}, Not: true},
			Then: stores,
		})
	}
	return out, &period, nil
}

// transformInsert slices an INSERT inside the routine body: inserts
// into locally created temporal temp tables gain the period columns;
// other inserts keep their shape with sequenced sources.
func (st *psState) transformInsert(x *sqlast.InsertStmt, env psEnv) ([]sqlast.Stmt, error) {
	ni := sqlast.CloneStmt(x).(*sqlast.InsertStmt)
	k := strings.ToLower(ni.Table)
	if st.tr.Info.IsTemporalTable(ni.Table) {
		return nil, refuse(ni.Pos, "%w: modification of temporal table %s inside a sequenced routine", ErrNotTransformable, ni.Table)
	}
	targetTemporal := st.localTemporal[k] || (ni.VarTarget && st.tv[k])
	srcTemporal := st.nodeTemporal(ni.Source)

	if srcTemporal {
		sel, ok := ni.Source.(*sqlast.SelectStmt)
		if !ok {
			return nil, refuse(ni.Pos, "%w: temporal INSERT source must be a plain SELECT", ErrNotTransformable)
		}
		if err := st.rewriteRoutineSelect(sel, env); err != nil {
			return nil, err
		}
		// The rewritten select prepends begin_time/end_time; map the
		// columns explicitly since target schemas place the period
		// columns last.
		if len(ni.Cols) > 0 {
			ni.Cols = append([]string{"begin_time", "end_time"}, ni.Cols...)
		} else if ty, ok := st.varTypes[k]; ok && ty.IsCollection() {
			cols := []string{"begin_time", "end_time"}
			for _, f := range ty.Row {
				cols = append(cols, f.Name)
			}
			ni.Cols = cols
		} else if lc, ok := st.localTables[k]; ok {
			ni.Cols = append([]string{"begin_time", "end_time"}, lc...)
		} else if ni.VarTarget {
			ni.Cols = []string{"begin_time", "end_time", "taupsm_result"}
		}
		if !targetTemporal && !ni.VarTarget {
			return nil, refuse(ni.Pos, "%w: temporal data inserted into snapshot table %s", ErrNotTransformable, ni.Table)
		}
		return []sqlast.Stmt{ni}, nil
	}
	if targetTemporal {
		// Snapshot data into a temporal target: valid over the period.
		if !appendPeriod(ni, "begin_time", "end_time", env.pBegin, env.pEnd) {
			return nil, refuse(ni.Pos, "%w: unsupported INSERT source", ErrNotTransformable)
		}
	}
	return []sqlast.Stmt{ni}, nil
}
