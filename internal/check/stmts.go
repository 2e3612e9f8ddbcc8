package check

import (
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/sqlscan"
	"taupsm/internal/types"
)

// labelInfo is one enclosing label; ITERATE requires a loop label,
// LEAVE accepts either kind (matching the engine's unwinding).
type labelInfo struct {
	name string // folded
	loop bool
}

func findLabel(labels []labelInfo, name string) (labelInfo, bool) {
	f := fold(name)
	for i := len(labels) - 1; i >= 0; i-- {
		if labels[i].name == f {
			return labels[i], true
		}
	}
	return labelInfo{}, false
}

// stmts walks a statement list, reporting the first statement that
// control flow can never reach.
func (c *checker) stmts(list []sqlast.Stmt, sc *scope, labels []labelInfo) {
	reported := false
	for i, s := range list {
		if i > 0 && !reported && terminates(list[i-1]) {
			if pos := sqlast.PosOf(s); pos != (sqlscan.Pos{}) {
				c.add(CodeUnreachable, Warning, pos, "unreachable statement")
			}
			reported = true
		}
		c.stmt(s, sc, labels)
	}
}

func (c *checker) stmt(s sqlast.Stmt, sc *scope, labels []labelInfo) {
	if pos := sqlast.PosOf(s); pos != (sqlscan.Pos{}) {
		c.curPos = pos
	}
	switch x := s.(type) {
	case nil:
	case *sqlast.CompoundStmt:
		c.compound(x, sc, labels)
	case *sqlast.SetStmt:
		c.expr(x.Value, sc)
		v := sc.lookupVar(x.Target)
		if v == nil {
			c.add(CodeUndeclaredVar, Error, x.Pos, "variable %s is not declared", x.Target)
			return
		}
		v.written = true
		c.useBeforeDecl(v, x.Pos)
		if !v.collection {
			c.checkAssign(CodeAssignMismatch, v.kind, x.Value, sc, x.Pos, "SET "+v.display)
		}
	case *sqlast.IfStmt:
		c.expr(x.Cond, sc)
		c.condition(x.Cond, x.Pos, sc)
		c.foldIf(x)
		c.stmts(x.Then, sc, labels)
		for _, ei := range x.ElseIfs {
			c.expr(ei.Cond, sc)
			c.condition(ei.Cond, x.Pos, sc)
			c.stmts(ei.Then, sc, labels)
		}
		c.stmts(x.Else, sc, labels)
	case *sqlast.CaseStmt:
		c.expr(x.Operand, sc)
		for _, w := range x.Whens {
			c.expr(w.When, sc)
			c.stmts(w.Then, sc, labels)
		}
		c.stmts(x.Else, sc, labels)
	case *sqlast.WhileStmt:
		c.expr(x.Cond, sc)
		c.condition(x.Cond, x.Pos, sc)
		c.foldLoop(x)
		c.stmts(x.Body, sc, c.pushLabel(labels, x.Label, true))
	case *sqlast.RepeatStmt:
		c.stmts(x.Body, sc, c.pushLabel(labels, x.Label, true))
		c.expr(x.Until, sc)
		c.condition(x.Until, x.Pos, sc)
		c.foldLoop(x)
	case *sqlast.LoopStmt:
		c.stmts(x.Body, sc, c.pushLabel(labels, x.Label, true))
	case *sqlast.ForStmt:
		c.forStmt(x, sc, labels)
	case *sqlast.LeaveStmt:
		if _, ok := findLabel(labels, x.Label); !ok {
			c.add(CodeUnknownLabel, Error, x.Pos, "no enclosing statement labeled %s", x.Label)
		}
	case *sqlast.IterateStmt:
		l, ok := findLabel(labels, x.Label)
		if !ok || !l.loop {
			c.add(CodeUnknownLabel, Error, x.Pos, "no enclosing loop labeled %s", x.Label)
		}
	case *sqlast.ReturnStmt:
		c.expr(x.Value, sc)
		c.checkAssign(CodeReturnMismatch, c.retKind, x.Value, sc, x.Pos, "RETURN")
	case *sqlast.CallStmt:
		c.callStmt(x, sc)
	case *sqlast.OpenStmt:
		c.cursorUse(x.Cursor, x.Pos, sc)
	case *sqlast.CloseStmt:
		c.cursorUse(x.Cursor, x.Pos, sc)
	case *sqlast.FetchStmt:
		c.fetchStmt(x, sc)
	case *sqlast.SignalStmt:
	case *sqlast.SelectStmt:
		c.query(x, sc)
	case *sqlast.SetOpExpr:
		c.query(x, sc)
	case *sqlast.InsertStmt:
		c.insertStmt(x, sc)
	case *sqlast.UpdateStmt:
		c.updateStmt(x, sc)
	case *sqlast.DeleteStmt:
		c.deleteStmt(x, sc)
	case *sqlast.TemporalStmt:
		if c.inRoutine && x.Mod != sqlast.ModCurrent {
			c.add(CodeModifierInBody, Warning, x.Pos,
				"%s inside a routine body: sequenced statement modifiers in routines are rejected by per-statement slicing", x.Mod)
		}
		c.foldPeriod(x)
		c.stmt(x.Body, sc, labels)
	case *sqlast.CreateTableStmt:
		if x.AsQuery != nil {
			c.query(x.AsQuery, sc)
		}
	case *sqlast.CreateViewStmt:
		c.query(x.Query, sc)
	}
}

func (c *checker) pushLabel(labels []labelInfo, name string, loop bool) []labelInfo {
	if name == "" {
		return labels
	}
	out := make([]labelInfo, len(labels), len(labels)+1)
	copy(out, labels)
	return append(out, labelInfo{name: fold(name), loop: loop})
}

// compound analyzes a BEGIN/END block: declarations are hoisted by the
// engine, but we still track lexical order for use-before-declare.
func (c *checker) compound(s *sqlast.CompoundStmt, parent *scope, labels []labelInfo) {
	sc := newScope(parent)
	for _, d := range s.VarDecls {
		c.expr(d.Default, sc)
		if !d.Type.IsCollection() {
			c.checkAssign(CodeAssignMismatch, d.Type.Kind(), d.Default, sc, d.Pos,
				"DEFAULT for "+firstName(d.Names))
		}
		for _, name := range d.Names {
			if sc.localVar(name) != nil {
				c.add(CodeDuplicate, Warning, d.Pos, "duplicate declaration of %s", name)
				continue
			}
			v := &varInfo{
				name: fold(name), display: name, declPos: d.Pos,
				collection: d.Type.IsCollection(),
				rowCols:    rowColNames(d.Type), rowKinds: rowColKinds(d.Type),
			}
			if !v.collection {
				v.kind = d.Type.Kind()
			}
			sc.vars = append(sc.vars, v)
		}
	}
	for _, cd := range s.Cursors {
		if sc.localCursor(cd.Name) != nil {
			c.add(CodeDuplicate, Warning, cd.Pos, "duplicate declaration of cursor %s", cd.Name)
			continue
		}
		sc.cursors = append(sc.cursors, &cursorInfo{
			name: fold(cd.Name), display: cd.Name, declPos: cd.Pos, query: cd.Query,
		})
	}
	// Cursor queries see the full variable frame (they are evaluated
	// at OPEN, after all declarations are in effect).
	for _, cd := range s.Cursors {
		c.cursorQuery(cd.Query, sc, labels)
	}
	blabels := c.pushLabel(labels, s.Label, false)
	for _, h := range s.Handlers {
		c.stmt(h.Action, sc, blabels)
	}
	c.stmts(s.Stmts, sc, blabels)
	c.popScope(sc)
}

// cursorQuery checks a cursor/loop query, which may carry a temporal
// wrapper.
func (c *checker) cursorQuery(q sqlast.Stmt, sc *scope, labels []labelInfo) {
	switch x := q.(type) {
	case nil:
	case *sqlast.TemporalStmt:
		if c.inRoutine && x.Mod != sqlast.ModCurrent {
			c.add(CodeModifierInBody, Warning, x.Pos,
				"%s inside a routine body: sequenced statement modifiers in routines are rejected by per-statement slicing", x.Mod)
		}
		c.cursorQuery(x.Body, sc, labels)
	case sqlast.QueryExpr:
		c.query(x, sc)
	default:
		c.stmt(q, sc, labels)
	}
}

// popScope reports dead stores and unused declarations as the block
// closes.
func (c *checker) popScope(sc *scope) {
	for _, v := range sc.vars {
		if v.isParam || v.read {
			continue
		}
		if v.written {
			c.add(CodeDeadStore, Warning, v.declPos,
				"value assigned to %s is never read", v.display)
		} else {
			c.add(CodeDeadStore, Warning, v.declPos,
				"variable %s is declared but never used", v.display)
		}
	}
	for _, cu := range sc.cursors {
		if !cu.used {
			c.add(CodeDeadStore, Warning, cu.declPos,
				"cursor %s is declared but never used", cu.display)
		}
	}
}

func (c *checker) forStmt(x *sqlast.ForStmt, sc *scope, labels []labelInfo) {
	c.cursorQuery(x.Query, sc, labels)
	body := newScope(sc)
	if x.LoopVar != "" {
		body.rows = append(body.rows, loopEntry(x.LoopVar, x.Query))
	} else {
		body.rows = append(body.rows, rowEntry{opaque: true})
	}
	// The loop's columns are also referable without qualification.
	if cols := cursorCols(x.Query); cols != nil {
		body.rows = append(body.rows, rowEntry{cols: cols})
	} else {
		body.rows = append(body.rows, rowEntry{opaque: true})
	}
	c.stmts(x.Body, body, c.pushLabel(labels, x.Label, true))
}

func (c *checker) cursorUse(name string, pos sqlscan.Pos, sc *scope) *cursorInfo {
	cu := sc.lookupCursor(name)
	if cu == nil {
		c.add(CodeUndeclaredCursor, Error, pos, "cursor %s is not declared", name)
		return nil
	}
	cu.used = true
	return cu
}

func (c *checker) fetchStmt(x *sqlast.FetchStmt, sc *scope) {
	cu := c.cursorUse(x.Cursor, x.Pos, sc)
	for _, name := range x.Into {
		v := sc.lookupVar(name)
		if v == nil {
			c.add(CodeUndeclaredVar, Error, x.Pos, "variable %s is not declared", name)
			continue
		}
		v.written = true
		c.useBeforeDecl(v, x.Pos)
	}
	if cu != nil {
		if cols := cursorCols(cu.query); cols != nil && len(cols) != len(x.Into) {
			c.add(CodeBadArity, Warning, x.Pos,
				"FETCH %s: %d variables for %d columns", x.Cursor, len(x.Into), len(cols))
		}
	}
}

func (c *checker) callStmt(x *sqlast.CallStmt, sc *scope) {
	pr := c.cat.Procedure(x.Name)
	if pr == nil {
		for _, a := range x.Args {
			c.expr(a, sc)
		}
		if c.cat.Function(x.Name) != nil {
			c.add(CodeKindMismatch, Error, x.Pos,
				"%s is a function; invoke it in an expression", x.Name)
			return
		}
		c.add(CodeUnknownRoutine, Error, x.Pos, "procedure %s does not exist", x.Name)
		return
	}
	if len(x.Args) != len(pr.Params) {
		c.add(CodeBadArity, Error, x.Pos,
			"procedure %s expects %d arguments, got %d",
			x.Name, len(pr.Params), len(x.Args))
		for _, a := range x.Args {
			c.expr(a, sc)
		}
		return
	}
	for i, a := range x.Args {
		p := pr.Params[i]
		if p.Mode == sqlast.ModeOut || p.Mode == sqlast.ModeInOut {
			cr, ok := a.(*sqlast.ColumnRef)
			if !ok || cr.Table != "" {
				pos := sqlast.PosOf(a)
				if pos == (sqlscan.Pos{}) {
					pos = x.Pos
				}
				c.add(CodeBadArity, Error, pos,
					"argument %d of %s must be a variable (parameter %s is %s)",
					i+1, x.Name, p.Name, p.Mode)
				continue
			}
			v := sc.lookupVar(cr.Column)
			if v == nil {
				c.add(CodeUndeclaredVar, Error, cr.Pos,
					"variable %s is not declared", cr.Column)
				continue
			}
			v.written = true
			if p.Mode == sqlast.ModeInOut {
				v.read = true
			}
			c.useBeforeDecl(v, cr.Pos)
			if !v.collection && !p.Type.IsCollection() && !assignable(v.kind, p.Type.Kind()) {
				c.add(CodeArgMismatch, Warning, cr.Pos,
					"argument %d of %s: %s variable bound to %s %s parameter %s",
					i+1, x.Name, v.kind, p.Type.Kind(), p.Mode, p.Name)
			}
			continue
		}
		c.expr(a, sc)
	}
	c.checkArgs(x.Name, pr.Params, x.Args, sc, x.Pos)
}

func firstName(names []string) string {
	if len(names) == 0 {
		return "?"
	}
	return names[0]
}

// ---------- DML ----------

func (c *checker) insertStmt(x *sqlast.InsertStmt, sc *scope) {
	cols, kinds := c.dmlTarget(x.Table, x.VarTarget, true, x.Pos, sc)
	for i, name := range x.Cols {
		if colIn(x.Cols[:i], name) {
			c.add(CodeDupTarget, Error, x.Pos, "column %s of %s is assigned twice", name, x.Table)
		}
	}
	if x.Cols != nil && cols != nil {
		for _, name := range x.Cols {
			if !colIn(cols, name) {
				c.add(CodeUnknownColumn, c.tableSev(), x.Pos,
					"column %s.%s does not exist", x.Table, name)
			}
		}
	}
	c.insertShape(x, cols, kinds, sc)
	c.query(x.Source, sc)
}

func (c *checker) updateStmt(x *sqlast.UpdateStmt, sc *scope) {
	cols, kinds := c.dmlTarget(x.Table, x.VarTarget, false, x.Pos, sc)
	alias := x.Alias
	if alias == "" {
		alias = x.Table
	}
	body := newScope(sc)
	body.rows = append(body.rows, rowEntry{alias: fold(alias), cols: cols, kinds: kinds, opaque: cols == nil})
	for i, set := range x.Sets {
		for _, prev := range x.Sets[:i] {
			if strings.EqualFold(prev.Column, set.Column) {
				c.add(CodeDupTarget, Error, set.Pos, "column %s of %s is assigned twice", set.Column, x.Table)
				break
			}
		}
		if cols != nil && !colIn(cols, set.Column) {
			c.add(CodeUnknownColumn, c.tableSev(), set.Pos,
				"column %s.%s does not exist", x.Table, set.Column)
		}
		c.expr(set.Value, body)
		if kinds != nil {
			for i, cn := range cols {
				if i < len(kinds) && strings.EqualFold(cn, set.Column) {
					c.checkAssign(CodeInsertMismatch, kinds[i], set.Value, body, set.Pos,
						"UPDATE "+x.Table+" SET "+set.Column)
					break
				}
			}
		}
	}
	c.expr(x.Where, body)
}

func (c *checker) deleteStmt(x *sqlast.DeleteStmt, sc *scope) {
	cols, _ := c.dmlTarget(x.Table, x.VarTarget, false, x.Pos, sc)
	alias := x.Alias
	if alias == "" {
		alias = x.Table
	}
	body := newScope(sc)
	body.rows = append(body.rows, rowEntry{alias: fold(alias), cols: cols, opaque: cols == nil})
	c.expr(x.Where, body)
}

// dmlTarget resolves a DML target (table or collection variable) and
// returns its columns and their kinds (nil when unknown). insert
// reports whether the statement may target a collection variable
// without the TABLE keyword (the engine resolves UPDATE/DELETE targets
// through variables too, so variables are accepted for all three).
func (c *checker) dmlTarget(name string, varTarget, insert bool, pos sqlscan.Pos, sc *scope) ([]string, []types.Kind) {
	if v := sc.lookupVar(name); v != nil && v.collection {
		v.written = true
		v.read = true
		return v.rowCols, v.rowKinds
	}
	if varTarget {
		c.add(CodeUndeclaredVar, Error, pos,
			"variable %s is not declared", name)
		return nil, nil
	}
	if cols := c.cat.TableColumns(name); cols != nil {
		return cols, c.cat.TableColumnKinds(name)
	}
	if c.cat.IsTable(name) || c.cat.View(name) != nil {
		return nil, nil
	}
	msg := "table %s does not exist"
	if !insert {
		msg = "table or view %s does not exist"
	}
	c.add(CodeUnknownTable, c.tableSev(), pos, msg, name)
	return nil, nil
}

func colIn(cols []string, name string) bool {
	for _, c := range cols {
		if strings.EqualFold(c, name) {
			return true
		}
	}
	return false
}
