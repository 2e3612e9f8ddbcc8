package engine

// The by-name resolver the interpreter ran on before a routine's names
// became slots (slots.go), kept as the reference TestSlotsEqualNameResolver
// compares the program against: a block binds its variables, cursors and
// temporary tables in a frame of its own, and every name past the columns
// around it is looked up in the frames by name when it is evaluated
// (varFrame.lookup). Names compile as at top level, where no layout binds
// them: the enclosing columns the binder finds, then ctx.vars.
// rowScope.lookup is the column lookup TestCompiledEqualsTreeWalk's
// reference walker runs. Nothing outside the tests uses it.

import (
	"errors"
	"fmt"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// lookup resolves a possibly qualified column reference by name against
// the scope chain, skipping entries that are not bound. found=false
// means the name is not a column anywhere in scope (the caller may then
// try PSM variables).
func (s *rowScope) lookup(tbl, col string) (types.Value, bool, error) {
	for sc := s; sc != nil; sc = sc.parent {
		found := false
		var val types.Value
		for i, m := range sc.metas {
			if sc.rows[i] == nil || (tbl != "" && !strings.EqualFold(m.Alias, tbl)) {
				continue
			}
			for j, c := range m.Cols {
				if !strings.EqualFold(c, col) {
					continue
				}
				if tbl != "" {
					return sc.rows[i][j], true, nil
				}
				if found {
					return types.Null, false, fmt.Errorf("column reference %s is ambiguous", col)
				}
				found, val = true, sc.rows[i][j]
			}
			if tbl != "" {
				return types.Null, false, fmt.Errorf("column %s.%s does not exist", tbl, col)
			}
		}
		if found {
			return val, true, nil
		}
	}
	return types.Null, false, nil
}

// scalarBinding binds k, a lowercase name, as an untyped scalar holding v.
func scalarBinding(k string, v types.Value) binding {
	return binding{name: k, slot: slot{val: v, kind: bindScalar}}
}

// get returns the value of the variable k, a name already folded to
// lower case: a scalar's value or a table binding's table.
func (f *varFrame) get(k string) (types.Value, bool) {
	if fr, i := f.lookup(k, bindScalar|bindTable); fr != nil {
		return fr.binds[i].val, true
	}
	return types.Null, false
}

// getTable returns the table bound to name.
func (f *varFrame) getTable(name string) *storage.Table {
	if fr, i := f.lookup(strings.ToLower(name), bindTable); fr != nil {
		t, _ := fr.binds[i].val.Aux.(*storage.Table)
		return t
	}
	return nil
}

// set assigns v to the variable name, found by name.
func (f *varFrame) set(name string, v types.Value) error {
	return (&ref{name: name, key: strings.ToLower(name), kinds: bindScalar | bindTable}).set(&execCtx{vars: f}, v)
}

// cursorNamed returns the cursor declared as name, found by name.
func (f *varFrame) cursorNamed(name string, open bool) (*cursor, error) {
	return (&ref{name: name, key: strings.ToLower(name), kinds: bindCursor}).cursor(&execCtx{vars: f}, open)
}

// byNameRef is the by-name interpreter of one database: the frames its
// blocks bind, with the block each belongs to (whose handlers apply) and
// the scope that stands for it in an EXIT flow. It runs every statement
// that holds statements, raises a condition or binds a name — blocks,
// IF, CASE, the loops, SIGNAL, FETCH's NOT FOUND, CREATE TEMPORARY TABLE
// — itself, in its frames, and hands the rest to execPSM, whose names
// reach its frames by name: a name no layout binds is looked up in
// ctx.vars.
type byNameRef struct {
	blocks map[*varFrame]*sqlast.CompoundStmt
	tags   map[*varFrame]*scope
}

// resolveByName makes db, and the sessions made from it, run every
// routine body by name.
func (db *DB) resolveByName() {
	ref := &byNameRef{blocks: map[*varFrame]*sqlast.CompoundStmt{}, tags: map[*varFrame]*scope{}}
	db.invokeByName = ref.invoke
}

// declare binds name in f as a variable or parameter of type ty holding
// v, as activation.declare binds a slot.
func (f *varFrame) declare(r *storage.Routine, name string, ty *sqlast.TypeName, v types.Value) error {
	a := &activation{r: r, slots: make([]slot, 1)}
	if err := a.declare(0, name, ty, v); err != nil {
		return err
	}
	f.bind(binding{name: strings.ToLower(name), slot: a.slots[0]})
	return nil
}

// invoke runs r's body in a frame binding its parameters by name, and
// leaves their last values in the activation's slots, in order.
func (ref *byNameRef) invoke(db *DB, ctx *execCtx, r *storage.Routine, name string, u *routineUse, w window, args []types.Value) (*activation, flow, error) {
	params := r.Params()
	a := db.acts.push()
	a.w, a.r = w, r
	frame := &varFrame{}
	for i := range params {
		if err := frame.declare(r, params[i].Name, &params[i].Type, args[i]); err != nil {
			return nil, flow{}, err
		}
	}
	db.noteRoutineCall(u)
	if done := db.traceRoutine(name); done != nil {
		defer done()
	}
	a.ctx = execCtx{db: db, act: a, vars: frame, depth: ctx.depth + 1, memo: ctx.memo, journal: ctx.journal}
	fl, err := ref.exec(db, &a.ctx, r.Body())
	ctx.window().meet(a.w)
	if err == nil && fl.kind != flowReturn {
		err = fl.escaped()
	}
	if err != nil {
		return nil, flow{}, inRoutine(r, name, err)
	}
	for i := range params {
		v, _ := frame.get(strings.ToLower(params[i].Name))
		a.slots = append(a.slots, slot{val: v})
	}
	return a, fl, nil
}

// block runs a block in a frame of its own: its variables bound by name
// at their defaults, its cursors closed.
func (ref *byNameRef) block(db *DB, ctx *execCtx, s *sqlast.CompoundStmt) (flow, error) {
	frame := &varFrame{parent: ctx.vars}
	c := *ctx
	c.vars = frame
	cctx := &c
	var r *storage.Routine
	if ctx.act != nil {
		r = ctx.act.r
	}
	for _, d := range s.VarDecls {
		var def types.Value
		if d.Default != nil {
			v, err := db.rootExpr(cctx, d.Default)(cctx)
			if err != nil {
				return flow{}, err
			}
			def = v
		}
		for _, name := range d.Names {
			if err := frame.declare(r, name, &d.Type, def); err != nil {
				return flow{}, err
			}
		}
	}
	for _, cd := range s.Cursors {
		frame.bind(binding{name: strings.ToLower(cd.Name), slot: slot{kind: bindCursor}, cur: &cursor{query: cd.Query}})
	}
	tag := &scope{}
	ref.blocks[frame], ref.tags[frame] = s, tag
	defer func() { delete(ref.blocks, frame); delete(ref.tags, frame) }()
	for _, st := range s.Stmts {
		fl, err := ref.exec(db, cctx, st)
		if err != nil {
			if fl, err = ref.handle(db, cctx, err); err != nil {
				return flow{}, err
			}
		}
		switch {
		case fl.kind == flowNext:
		case fl.kind == flowExit && fl.to == tag, fl.kind == flowLeave && fl.at(s.Label):
			return flow{}, nil
		default:
			return fl, nil
		}
	}
	return flow{}, nil
}

// raise runs the innermost handler of the frames in ctx's chain that
// matches cond, in its block's frame.
func (ref *byNameRef) raise(db *DB, ctx *execCtx, cond *conditionErr) (flow, error) {
	for fr := ctx.vars; fr != nil; fr = fr.parent {
		b := ref.blocks[fr]
		if b == nil {
			continue
		}
		for _, h := range b.Handlers {
			if !handlerMatches(h.Condition, cond) {
				continue
			}
			hctx := ctx
			if fr != ctx.vars {
				c := *ctx
				c.vars, hctx = fr, &c
			}
			fl, err := ref.exec(db, hctx, h.Action)
			if err == nil && fl.kind == flowNext && h.Kind == "EXIT" {
				fl = flow{kind: flowExit, to: ref.tags[fr]}
			}
			return fl, err
		}
	}
	return flow{}, cond
}

// handle is DB.handle with the reference's raise.
func (ref *byNameRef) handle(db *DB, ctx *execCtx, err error) (flow, error) {
	if db.Proc.KilledBy(err) {
		return flow{}, err
	}
	var cond *conditionErr
	if !errors.As(err, &cond) {
		cond = &conditionErr{state: "58000", msg: err.Error()}
	}
	fl, herr := ref.raise(db, ctx, cond)
	if herr == error(cond) {
		return flow{}, err
	}
	return fl, herr
}

// exec is execPSM for the statements the reference runs itself; it
// hands every other one to execPSM.
func (ref *byNameRef) exec(db *DB, ctx *execCtx, stmt sqlast.Stmt) (flow, error) {
	switch s := stmt.(type) {
	case *sqlast.FetchStmt:
		if c, err := ctx.vars.cursorNamed(s.Cursor, true); err == nil && c.pos >= c.rows {
			if err := db.Proc.Killed(); err != nil {
				return flow{}, err
			}
			db.Stats.Statements++
			return ref.raise(db, ctx, notFound)
		}
		return db.execPSM(ctx, s)
	case *sqlast.CreateTableStmt:
		if !s.Temporary || ctx.depth == 0 {
			return db.execPSM(ctx, s)
		}
		db.Stats.Statements += 2 // execPSM's and exec's
		t, err := db.newTable(ctx, s, true)
		if err == nil {
			ctx.vars.bind(tableBinding(strings.ToLower(s.Name), t))
		}
		return flow{}, err
	case *sqlast.CompoundStmt, *sqlast.IfStmt, *sqlast.CaseStmt, *sqlast.WhileStmt,
		*sqlast.RepeatStmt, *sqlast.LoopStmt, *sqlast.ForStmt, *sqlast.SignalStmt:
	default:
		return db.execPSM(ctx, stmt)
	}
	if err := db.Proc.Killed(); err != nil {
		return flow{}, err
	}
	db.Stats.Statements++
	switch s := stmt.(type) {
	case *sqlast.CompoundStmt:
		return ref.block(db, ctx, s)
	case *sqlast.IfStmt:
		if t, err := db.rootCond(ctx, s.Cond)(ctx); err != nil || t == types.True {
			if err != nil {
				return flow{}, err
			}
			return ref.stmts(db, ctx, s.Then)
		}
		for _, ei := range s.ElseIfs {
			if t, err := db.rootCond(ctx, ei.Cond)(ctx); err != nil || t == types.True {
				if err != nil {
					return flow{}, err
				}
				return ref.stmts(db, ctx, ei.Then)
			}
		}
		return ref.stmts(db, ctx, s.Else)
	case *sqlast.CaseStmt:
		var op types.Value
		if s.Operand != nil {
			var err error
			if op, err = db.rootExpr(ctx, s.Operand)(ctx); err != nil {
				return flow{}, err
			}
		}
		for _, w := range s.Whens {
			var t types.Tribool
			if s.Operand != nil {
				wv, err := db.rootExpr(ctx, w.When)(ctx)
				if err != nil {
					return flow{}, err
				}
				t = types.OpEq.Compare(&op, &wv)
			} else {
				var err error
				if t, err = db.rootCond(ctx, w.When)(ctx); err != nil {
					return flow{}, err
				}
			}
			if t == types.True {
				return ref.stmts(db, ctx, w.Then)
			}
		}
		if s.Else != nil {
			return ref.stmts(db, ctx, s.Else)
		}
		return flow{}, &conditionErr{state: "20000", msg: "case not found for CASE statement"}
	case *sqlast.WhileStmt:
		for cond := db.rootCond(ctx, s.Cond); ; {
			t, err := cond(ctx)
			if err != nil || t != types.True {
				return flow{}, err
			}
			if done, fl, err := ref.turn(db, ctx, s.Label, s.Body); done {
				return fl, err
			}
		}
	case *sqlast.RepeatStmt:
		for until := db.rootCond(ctx, s.Until); ; {
			if done, fl, err := ref.turn(db, ctx, s.Label, s.Body); done {
				return fl, err
			}
			t, err := until(ctx)
			if err != nil || t == types.True {
				return flow{}, err
			}
		}
	case *sqlast.LoopStmt:
		for {
			if done, fl, err := ref.turn(db, ctx, s.Label, s.Body); done {
				return fl, err
			}
		}
	case *sqlast.ForStmt:
		m, cols, rows, err := db.stackCursorQuery(ctx, s.Query)
		defer db.pop(m)
		if err != nil {
			return flow{}, err
		}
		defer db.popActs(db.acts.n)
		lctx := db.enterRow(ctx, s.LoopVar, cols)
		for _, row := range rows {
			lctx.scope.rows[0] = row
			if done, fl, err := ref.turn(db, lctx, s.Label, s.Body); done {
				return fl, err
			}
		}
		return flow{}, nil
	case *sqlast.SignalStmt:
		return ref.raise(db, ctx, &conditionErr{state: s.SQLState, msg: s.Message})
	}
	panic("unreachable")
}

func (ref *byNameRef) stmts(db *DB, ctx *execCtx, stmts []sqlast.Stmt) (flow, error) {
	for _, st := range stmts {
		if fl, err := ref.exec(db, ctx, st); err != nil || fl.kind != flowNext {
			return fl, err
		}
	}
	return flow{}, nil
}

// turn is DB.turn through the reference.
func (ref *byNameRef) turn(db *DB, ctx *execCtx, label string, body []sqlast.Stmt) (done bool, fl flow, err error) {
	fl, err = ref.stmts(db, ctx, body)
	if err == nil && fl.at(label) {
		return fl.kind == flowLeave, flow{}, nil
	}
	return err != nil || fl.kind != flowNext, fl, err
}

// sqlState is the SQLSTATE an error carries, "" for none.
func sqlState(err error) string {
	var c *conditionErr
	if errors.As(err, &c) {
		return c.state
	}
	return ""
}

// ResolveByName makes db, and the sessions made from it, run every
// routine body by name (the reference of TestSlotsEqualNameResolver).
func ResolveByName(db *DB) { db.resolveByName() }

// UnboundNames lists the names of r's body that its layout does not bind
// to a slot where the body's own statements use them: SET and FETCH
// targets, cursors, and the bare names of the expressions outside any
// query and FOR loop, which no column can claim. A translated routine
// lists none, and reaches no frame by name.
func UnboundNames(r *storage.Routine) []string {
	l := layoutOf(r)
	var out []string
	need := func(sc *scope, name string, kinds bindKind) {
		if ref := sc.ref(name, kinds); len(ref.slots) == 0 {
			out = append(out, name)
		}
	}
	exprs := func(sc *scope, es ...sqlast.Expr) {
		for _, e := range es {
			if e == nil {
				continue
			}
			sqlast.Walk(e, func(n sqlast.Node) bool {
				switch x := n.(type) {
				case sqlast.QueryExpr, *sqlast.ExistsExpr, *sqlast.SubqueryExpr:
					return false
				case *sqlast.ColumnRef:
					if x.Table == "" {
						need(sc, x.Column, bindScalar|bindTable)
					}
				}
				return true
			})
		}
	}
	var stmts func(sc *scope, ss []sqlast.Stmt)
	var stmt func(sc *scope, s sqlast.Stmt)
	stmts = func(sc *scope, ss []sqlast.Stmt) {
		for _, s := range ss {
			stmt(sc, s)
		}
	}
	stmt = func(sc *scope, s sqlast.Stmt) {
		switch x := s.(type) {
		case *sqlast.CompoundStmt:
			bs := l.blocks[x]
			for i, d := range x.VarDecls {
				if d.Default != nil {
					exprs(bs.defs[i], d.Default)
				}
			}
			for _, h := range x.Handlers {
				stmt(bs, h.Action)
			}
			stmts(bs, x.Stmts)
		case *sqlast.SetStmt:
			need(sc, x.Target, bindScalar|bindTable)
			exprs(sc, x.Value)
		case *sqlast.IfStmt:
			exprs(sc, x.Cond)
			stmts(sc, x.Then)
			for _, ei := range x.ElseIfs {
				exprs(sc, ei.Cond)
				stmts(sc, ei.Then)
			}
			stmts(sc, x.Else)
		case *sqlast.CaseStmt:
			exprs(sc, x.Operand)
			for _, w := range x.Whens {
				exprs(sc, w.When)
				stmts(sc, w.Then)
			}
			stmts(sc, x.Else)
		case *sqlast.WhileStmt:
			exprs(sc, x.Cond)
			stmts(sc, x.Body)
		case *sqlast.RepeatStmt:
			stmts(sc, x.Body)
			exprs(sc, x.Until)
		case *sqlast.LoopStmt:
			stmts(sc, x.Body)
		case *sqlast.ReturnStmt:
			exprs(sc, x.Value)
		case *sqlast.CallStmt:
			exprs(sc, x.Args...)
		case *sqlast.OpenStmt:
			need(sc, x.Cursor, bindCursor)
		case *sqlast.CloseStmt:
			need(sc, x.Cursor, bindCursor)
		case *sqlast.FetchStmt:
			need(sc, x.Cursor, bindCursor)
			for _, v := range x.Into {
				need(sc, v, bindScalar|bindTable)
			}
		}
	}
	stmt(l.root, r.Body())
	return out
}
