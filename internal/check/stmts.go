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
		if i := c.assigned(sc.env.Takes(x)[0], x.Target, x.Pos); i >= 0 && !c.decl(i).IsTable() {
			c.checkAssign(CodeAssignMismatch, c.decl(i).Type.Kind(), x.Value, sc, x.Pos, "SET "+c.decl(i).Name)
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
		c.cursorUse(sc.env.Takes(x)[0], x.Cursor, x.Pos)
	case *sqlast.CloseStmt:
		c.cursorUse(sc.env.Takes(x)[0], x.Cursor, x.Pos)
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
		// A temporary table a routine creates is bound in its slot from
		// the CREATE on, until a DROP reaches it; only a run tells whether
		// it exists, and the walk takes statements in their order.
		if c.inRoutine && x.Temporary {
			t, opaque := created(x, relations{c, sc.env})
			m := &c.marks[sc.env.Takes(x)[0][0]]
			if m.live, m.schema = true, t.Schema; opaque {
				m.schema = nil
			}
		}
	case *sqlast.DropTableStmt:
		// DROP TABLE unbinds the temporary table it reaches, not a collection.
		if i := c.bound(sc.env.Takes(x)[0]); i >= 0 && c.decl(i).Create != nil {
			c.marks[i].live = false
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

// compound analyzes a BEGIN/END block in the scope the engine's layout
// gives it; a block run at top level lays out its own names.
func (c *checker) compound(s *sqlast.CompoundStmt, parent *scope, labels []labelInfo) {
	if c.marks == nil {
		c.bind(nil, s, true)
		defer c.unused()
	}
	sc := &scope{parent: parent, env: c.names.Block(s)}
	for k, d := range s.VarDecls {
		def := &scope{parent: parent, env: sc.env.Default(k)}
		c.expr(d.Default, def)
		if !d.Type.IsCollection() {
			c.checkAssign(CodeAssignMismatch, d.Type.Kind(), d.Default, def, d.Pos,
				"DEFAULT for "+firstName(d.Names))
		}
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

func (c *checker) forStmt(x *sqlast.ForStmt, sc *scope, labels []labelInfo) {
	c.cursorQuery(x.Query, sc, labels)
	body := newScope(sc)
	cols := c.columns(x.Query, sc)
	if x.LoopVar != "" {
		body.rows = append(body.rows, rowEntry{alias: fold(x.LoopVar), cols: cols})
	} else {
		body.rows = append(body.rows, rowEntry{})
	}
	// The loop's columns are also referable without qualification.
	body.rows = append(body.rows, rowEntry{cols: cols})
	c.stmts(x.Body, body, c.pushLabel(labels, x.Label, true))
}

// assigned marks written the variable a statement assigns — slots, the
// statement's Takes for it — and returns it; none is TAU001, and -1.
func (c *checker) assigned(slots []int32, name string, pos sqlscan.Pos) int32 {
	i := c.bound(slots)
	if i < 0 {
		c.add(CodeUndeclaredVar, Error, pos, "variable %s is not declared", name)
		return -1
	}
	c.marks[i].written = true
	c.useBeforeDecl(i, pos)
	return i
}

// cursorUse marks the cursor cur (a statement's Takes: none, or one)
// used, and returns it, -1 when no cursor of the name is declared.
func (c *checker) cursorUse(cur []int32, name string, pos sqlscan.Pos) int32 {
	if len(cur) == 0 {
		c.add(CodeUndeclaredCursor, Error, pos, "cursor %s is not declared", name)
		return -1
	}
	c.used[cur[0]] = true
	return cur[0]
}

func (c *checker) fetchStmt(x *sqlast.FetchStmt, sc *scope) {
	takes := sc.env.Takes(x)
	cu := c.cursorUse(takes[0], x.Cursor, x.Pos)
	for k, name := range x.Into {
		c.assigned(takes[k+1], name, x.Pos)
	}
	if cu >= 0 {
		if cols := c.columns(c.names.Cursors[cu].Query, sc); cols != nil && len(cols) != len(x.Into) {
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
	takes := sc.env.Takes(x)
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
			v := c.assigned(takes[i], cr.Column, cr.Pos)
			if v < 0 {
				continue
			}
			c.marks[v].read = c.marks[v].read || p.Mode == sqlast.ModeInOut
			if d := c.decl(v); !d.IsTable() && !p.Type.IsCollection() && !assignable(d.Type.Kind(), p.Type.Kind()) {
				c.add(CodeArgMismatch, Warning, cr.Pos,
					"argument %d of %s: %s variable bound to %s %s parameter %s",
					i+1, x.Name, d.Type.Kind(), p.Type.Kind(), p.Mode, p.Name)
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
	body.rows = append(body.rows, rowEntry{alias: fold(alias), cols: cols, kinds: kinds})
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
	body.rows = append(body.rows, rowEntry{alias: fold(alias), cols: cols})
	c.expr(x.Where, body)
}

// dmlTarget resolves the target of a modification — a table slot bound
// where it stands, else the catalog's table (relation) — and returns its
// columns and their kinds (nil when unknown). insert reports whether the
// modification is an INSERT.
func (c *checker) dmlTarget(name string, varTarget, insert bool, pos sqlscan.Pos, sc *scope) ([]string, []types.Kind) {
	cols, kinds, i, _ := c.relation(name, sc.env)
	switch {
	case i >= 0:
		c.marks[i].written, c.marks[i].read = true, true
	case varTarget:
		c.add(CodeUndeclaredVar, Error, pos, "variable %s is not declared", name)
		return nil, nil
	case !c.cat.IsTable(name) && c.cat.ViewQuery(name) == nil:
		msg := "table %s does not exist"
		if !insert {
			msg = "table or view %s does not exist"
		}
		c.add(CodeUnknownTable, c.tableSev(), pos, msg, name)
		return nil, nil
	}
	return cols, kinds
}

func colIn(cols []string, name string) bool {
	for _, c := range cols {
		if strings.EqualFold(c, name) {
			return true
		}
	}
	return false
}
