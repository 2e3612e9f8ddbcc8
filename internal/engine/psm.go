package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// ---------- frames and bindings ----------

// varFrame is one lexical scope of a routine: the names it binds and, on
// a compound statement's frame, the block whose handlers apply. Frames
// chain through parent within a routine; routine boundaries start a
// fresh chain.
type varFrame struct {
	parent *varFrame
	binds  []binding
	block  *sqlast.CompoundStmt // the compound statement the frame belongs to: its handlers apply
	win    *window              // on a routine's root frame: the invocation's validity window (fnmemo.go)
	r      *storage.Routine     // on a routine's root frame: the routine
}

// binding is one name a frame binds, stored lowercase: a scalar variable
// or parameter, a table — a collection variable or parameter, or a
// temporary table the routine created — or a cursor. A frame binds a name
// at most once per kind.
//
// A frame's bindings are one small slice, not maps: routines declare a
// handful of names but are called once per candidate tuple under MAX
// slicing, and per-call map allocations dominated the engine's allocation
// profile. A linear scan over ≤8 entries beats a map probe anyway.
type binding struct {
	name string
	kind bindKind
	typ  types.Kind  // a scalar's declared kind, which assignments convert to
	val  types.Value // a scalar's value, or a table binding's table as a KindTable value
	cur  *cursor
}

type bindKind uint8

const (
	bindScalar bindKind = 1 << iota
	bindTable
	bindCursor
)

func tableBinding(k string, t *storage.Table) binding {
	return binding{name: k, kind: bindTable, val: types.NewTable(t)}
}

// activation is what a routine call, a compound statement or a query
// level — a SELECT, UPDATE or DELETE execution, a FOR loop — needs only
// while it runs: a call's root frame and window, a block's frame and
// cursors, a level's row scope, and the context each runs its statements
// or expressions in. (A context handed to compiled expressions lives on
// the heap: closures are called indirectly, so escape analysis cannot
// keep it on the stack.) Activations live on the session's stacks: each
// is pushed when what it belongs to starts and popped (popActs) when it
// ends, so its arrays — bindings, cursor buffers, row pointers — serve
// the next one at that height. Nothing may point into an activation once
// it is popped.
type activation struct {
	varFrame
	w     window             // call: the invocation's validity window (varFrame.win points here)
	ctx   execCtx            // of the call's body, the block's statements, the level's expressions
	scope rowScope           // level: ctx.scope points here
	meta  [1]storage.Binding // level of one entry: the FOR loop's row, the modification's target row
	curs  []cursor           // block: its cursors, which its cursor bindings point into
}

// popActs pops the activation stack down to height m, clearing what each
// popped activation held and keeping its arrays.
func (db *DB) popActs(m int) {
	for p := &db.acts; p.n > m; p.n-- {
		a := p.all[p.n-1]
		for i := range a.curs {
			clear(a.curs[i].vals)
			a.curs[i] = cursor{vals: a.curs[i].vals[:0]}
		}
		clear(a.binds)
		clear(a.scope.rows)
		*a = activation{varFrame: varFrame{binds: a.binds[:0]}, scope: rowScope{rows: a.scope.rows[:0]}, curs: a.curs[:0]}
	}
}

// bind binds b in f, in place of f's binding of that name and kind.
func (f *varFrame) bind(b binding) {
	for i := range f.binds {
		if x := &f.binds[i]; x.name == b.name && x.kind == b.kind {
			*x = b
			return
		}
	}
	f.binds = append(f.binds, b)
}

// lookup is the one walk from a name to its binding: the innermost frame
// that binds k with a kind among kinds holds it, and within that frame a
// scalar shadows a table of its name. It returns the frame and the
// binding's index, or nil.
func (f *varFrame) lookup(k string, kinds bindKind) (*varFrame, int) {
	for fr := f; fr != nil; fr = fr.parent {
		hit := -1
		for i := range fr.binds {
			if b := &fr.binds[i]; b.name == k && b.kind&kinds != 0 {
				if b.kind != bindTable || kinds&bindScalar == 0 {
					return fr, i
				}
				hit = i // unless a scalar of the name follows
			}
		}
		if hit >= 0 {
			return fr, hit
		}
	}
	return nil, -1
}

// root returns the frame at the root of f's chain: a routine's, or a
// block's run at top level.
func (f *varFrame) root() *varFrame {
	for f != nil && f.parent != nil {
		f = f.parent
	}
	return f
}

// declare binds name, folded to k, as a variable or parameter of type ty
// holding v: a collection to the table v holds, or to a fresh empty one
// over the schema the routine keeps for ty (Routine.CollectionSchema —
// so an INSERT into it finds its plan for that schema, dmlPlanFor, from
// one call to the next); any other type to v converted to ty's kind.
func (f *varFrame) declare(name, k string, ty *sqlast.TypeName, v types.Value) error {
	if ty.IsCollection() {
		if _, ok := v.Aux.(*storage.Table); !ok || v.Kind != types.KindTable {
			v = types.NewTable(storage.NewTable(name, f.root().r.CollectionSchema(ty)))
		}
		f.bind(binding{name: k, kind: bindTable, val: v})
		return nil
	}
	kind := ty.Kind()
	v, err := types.Convert(v, kind)
	if err == nil {
		f.bind(binding{name: k, kind: bindScalar, typ: kind, val: v})
	}
	return err
}

// get returns the value of the variable k, a name already folded to
// lower case: a scalar's value or a table binding's table.
func (f *varFrame) get(k string) (types.Value, bool) {
	if fr, i := f.lookup(k, bindScalar|bindTable); fr != nil {
		return fr.binds[i].val, true
	}
	return types.Null, false
}

func (f *varFrame) set(name string, v types.Value) error {
	b, v, err := f.assignable(name, v)
	if err == nil {
		b.val = v
	}
	return err
}

// assignable returns the binding an assignment of v to name writes and
// the value it writes there, v converted to the variable's kind
// (types.Convert), without writing it.
func (f *varFrame) assignable(name string, v types.Value) (*binding, types.Value, error) {
	fr, i := f.lookup(strings.ToLower(name), bindScalar|bindTable)
	if fr == nil {
		return nil, v, fmt.Errorf("variable %s is not declared", name)
	}
	b := &fr.binds[i]
	if b.kind != bindTable {
		v, err := types.Convert(v, b.typ)
		return b, v, err
	}
	if _, ok := v.Aux.(*storage.Table); !ok || v.Kind != types.KindTable {
		return nil, v, fmt.Errorf("cannot assign a scalar to table-valued variable %s", name)
	}
	return b, v, nil
}

// getTable returns the table bound to name. Only the relation resolver
// (resolve) asks: it decides what such a binding shadows.
func (f *varFrame) getTable(name string) *storage.Table {
	if fr, i := f.lookup(strings.ToLower(name), bindTable); fr != nil {
		t, _ := fr.binds[i].val.Aux.(*storage.Table)
		return t
	}
	return nil
}

// dropTemp removes the binding of a temporary table the routine created.
// A collection variable of the name is not eligible: DROP TABLE must not
// silently consume it.
func (f *varFrame) dropTemp(name string) bool {
	fr, i := f.lookup(strings.ToLower(name), bindTable)
	if fr == nil {
		return false
	}
	if t, _ := fr.binds[i].val.Aux.(*storage.Table); t == nil || !t.Temporary {
		return false
	}
	fr.binds = slices.Delete(fr.binds, i, i+1)
	return true
}

// cursorNamed returns the cursor declared as name, which OPEN needs
// closed and FETCH and CLOSE need open: otherwise the statement raises
// SQLSTATE 24000, invalid cursor state.
func (f *varFrame) cursorNamed(name string, open bool) (*cursor, error) {
	fr, i := f.lookup(strings.ToLower(name), bindCursor)
	switch {
	case fr == nil:
		return nil, fmt.Errorf("cursor %s is not declared", name)
	case open && !fr.binds[i].cur.open:
		return nil, &conditionErr{state: "24000", msg: "cursor " + name + " is not open"}
	case !open && fr.binds[i].cur.open:
		return nil, &conditionErr{state: "24000", msg: "cursor " + name + " is already open"}
	}
	return fr.binds[i].cur, nil
}

// cursor is a declared cursor: its query and, while open, its rows and
// position. OPEN copies the rows into vals, a buffer the cursor owns
// (the block that opens it may end before the one that declared it, and
// the row stacks with it), one row of width values after another; a
// re-OPEN, and the cursor the next block at its height declares, reuse
// it.
type cursor struct {
	query sqlast.Stmt
	vals  []types.Value
	width int // values per row
	rows  int
	pos   int
	open  bool
}

// notFound is the condition a FETCH past the last row raises.
var notFound = &conditionErr{state: "02000", msg: "no data"}

// ---------- control flow ----------

// flow is how a PSM statement hands control on: to the next statement
// (the zero flow), or out of the statements around it — LEAVE or ITERATE
// of a label, RETURN with its value, an EXIT handler unwinding to its
// block. A flow is a result, not an error: no handler sees it, and a
// RETURN allocates nothing.
type flow struct {
	kind  flowKind
	label string      // LEAVE, ITERATE: the target, lowercase
	to    *varFrame   // EXIT: the frame of the block whose handler ran, live until the flow reaches it
	val   types.Value // RETURN: the value
}

type flowKind uint8

const (
	flowNext flowKind = iota
	flowLeave
	flowIterate
	flowReturn
	flowExit
)

// at reports whether f is a LEAVE or ITERATE of the statement labeled
// label.
func (f flow) at(label string) bool {
	return (f.kind == flowLeave || f.kind == flowIterate) && label != "" && strings.EqualFold(f.label, label)
}

// escaped is the error a flow turns into when it leaves a routine body,
// or a block run at top level: nil for none. (An EXIT flow never leaves
// the block whose handler ran.)
func (f flow) escaped() error {
	switch f.kind {
	case flowReturn:
		return errors.New("RETURN outside a function")
	case flowLeave:
		return errors.New("no enclosing statement labeled " + f.label)
	case flowIterate:
		return errors.New("no enclosing loop labeled " + f.label)
	}
	return nil
}

// conditionErr is a raised SQL condition (SIGNAL or engine-raised).
type conditionErr struct {
	state string // SQLSTATE, "02000" for NOT FOUND
	msg   string
}

func (e *conditionErr) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("SQLSTATE %s: %s", e.state, e.msg)
	}
	return "SQLSTATE " + e.state
}

// raise runs the innermost handler in ctx's scope that matches cond and
// returns how it hands control on: the flow its action ends with, an EXIT
// handler's unwinding to its block, or — after a CONTINUE handler — the
// next statement. With no handler matching, the error is cond itself.
func (db *DB) raise(ctx *execCtx, cond *conditionErr) (flow, error) {
	for fr := ctx.vars; fr != nil; fr = fr.parent {
		if fr.block == nil {
			continue
		}
		for _, h := range fr.block.Handlers {
			if !handlerMatches(h.Condition, cond) {
				continue
			}
			hctx := ctx // the handler runs in its block's frame
			if fr != ctx.vars {
				c := *ctx
				c.vars, hctx = fr, &c
			}
			fl, err := db.execPSM(hctx, h.Action)
			if err == nil && fl.kind == flowNext && h.Kind == "EXIT" {
				fl = flow{kind: flowExit, to: fr}
			}
			return fl, err
		}
	}
	return flow{}, cond
}

// handle hands an error a statement of a block failed with to the
// handlers in scope: a raised condition with its SQLSTATE, also when the
// routines it left have named themselves in the error, and any other
// error as SQLEXCEPTION 58000. A kill is no condition: it must tear the
// whole statement down, so no handler — not even a CONTINUE one — may
// swallow it. An error no handler takes comes back as it was.
func (db *DB) handle(ctx *execCtx, err error) (flow, error) {
	if db.Proc.KilledBy(err) {
		return flow{}, err
	}
	var cond *conditionErr
	if !errors.As(err, &cond) {
		cond = &conditionErr{state: "58000", msg: err.Error()}
	}
	fl, herr := db.raise(ctx, cond)
	if herr == error(cond) {
		return flow{}, err
	}
	return fl, herr
}

// handlerMatches reports whether a handler for handlerCond takes cond.
// SQLEXCEPTION is every class but successful completion (00), warning
// (01) and no data (02).
func handlerMatches(handlerCond string, cond *conditionErr) bool {
	switch {
	case handlerCond == "NOT FOUND":
		return cond.state == "02000"
	case handlerCond == "SQLEXCEPTION":
		class := cond.state[:min(2, len(cond.state))]
		return class != "00" && class != "01" && class != "02"
	case strings.HasPrefix(handlerCond, "SQLSTATE"):
		return strings.Contains(handlerCond, "'"+cond.state+"'")
	}
	return false
}

// ---------- routine invocation ----------

// maxRecursion bounds routine call and view nesting.
const maxRecursion = 64

// nestingErr reports routine calls nested beyond maxRecursion.
type nestingErr struct{ routine string }

func (e *nestingErr) Error() string {
	return fmt.Sprintf("routine call nesting exceeds %d at %s", maxRecursion, e.routine)
}

// startWindow returns the window an invocation of r on args starts with,
// and the ordinal of its slicing instant (storage.Routine.Instant): -1
// when r has none or the argument is no date — an ordinary call.
func startWindow(r *storage.Routine, args []types.Value) (window, int) {
	w, skip := unbounded, r.Instant()
	if skip >= 0 && args[skip].Kind == types.KindDate {
		w.t, w.sliced = args[skip].I, true
		return w, skip
	}
	return w, -1
}

// invoke runs routine r, called as name, on args in an activation it
// pushes, whose window starts as w: the one body both kinds of routine
// run through. It guards the nesting depth, binds the parameters, counts
// the call, spans it when traced, folds its window into the caller's and
// names the routine in an error that leaves it. It returns the
// activation, which holds the window and what OUT parameters copy back,
// and the flow the body ended with: a RETURN or none. The caller pops
// the activation (popActs) once it has read them, on every path.
func (db *DB) invoke(ctx *execCtx, r *storage.Routine, name string, u *routineUse, w window, args []types.Value) (*activation, flow, error) {
	if ctx.depth >= maxRecursion {
		return nil, flow{}, &nestingErr{routine: name}
	}
	params, keys := r.Params(), r.ParamKeys()
	a := db.acts.push()
	a.w, a.win, a.r = w, &a.w, r
	for i := range params {
		if err := a.declare(params[i].Name, keys[i], &params[i].Type, args[i]); err != nil {
			return nil, flow{}, err
		}
	}
	db.noteRoutineCall(u)
	if done := db.traceRoutine(name); done != nil {
		defer done()
	}
	a.ctx = execCtx{db: db, vars: &a.varFrame, depth: ctx.depth + 1, memo: ctx.memo, journal: ctx.journal}
	fl, err := db.execPSM(&a.ctx, r.Body())
	ctx.window().meet(a.w) // also on error: a handler of the caller may swallow it
	if err == nil && fl.kind != flowReturn {
		err = fl.escaped()
	}
	if err != nil {
		return nil, flow{}, inRoutine(r, name, err)
	}
	return a, fl, nil
}

// inRoutine names the routine an error passes through on its way out.
// The nesting-limit error is exempt: it already names the routine and
// the depth, and every one of the frames it unwinds would repeat them.
func inRoutine(r *storage.Routine, name string, err error) error {
	var ne *nestingErr
	switch {
	case errors.As(err, &ne):
		return err
	case r.Kind == storage.KindFunction:
		return fmt.Errorf("in function %s: %w", name, err)
	}
	return fmt.Errorf("in procedure %s: %w", name, err)
}

// callFunction invokes a stored function with the given compiled
// argument expressions (evaluated in the caller's context). fromSite marks the
// call of a FROM source, TABLE(f(..)): the one site where a collection
// result may come from, and go to, the memo (see fnmemo.go).
func (db *DB) callFunction(ctx *execCtx, r *storage.Routine, argExprs []evalFn, fromSite bool) (types.Value, error) {
	if n := len(r.Params()); len(argExprs) != n {
		return types.Null, fmt.Errorf("function %s expects %d arguments, got %d", r.Name, n, len(argExprs))
	}
	var few [4]types.Value // most routines take no more: their arguments stay off the heap
	args := few[:0]
	for _, arg := range argExprs {
		v, err := arg(ctx)
		if err != nil {
			return types.Null, err
		}
		args = append(args, v)
	}
	w, skip := startWindow(r, args)
	u := db.use(r)
	var memoKey string
	if ctx.memo != nil {
		// Built above the live part of the key scratch and probed at
		// once, so a hit allocates nothing; only a miss keeps the key.
		start := len(db.keyBuf)
		key, ok := appendMemoKey(db.keyBuf, r, u.pure, args, skip, fromSite)
		db.keyBuf = key[:start]
		if ok {
			if e := ctx.memo.lookup(db, key[start:], w); e != nil {
				// A memo hit is still a logical invocation — see fnmemo.go.
				db.noteRoutineCall(u)
				db.Stats.RoutineMemoHits++
				w.lo, w.hi = e.lo, e.hi
				ctx.window().meet(w)
				return e.v, nil
			}
			memoKey = string(key[start:])
		}
	}
	defer db.popActs(db.acts.n)
	a, fl, err := db.invoke(ctx, r, r.Name, u, w, args)
	if err != nil {
		return types.Null, err
	}
	if fl.kind != flowReturn {
		return types.Null, fmt.Errorf("function %s ended without RETURN", r.Name)
	}
	collection := r.Fn.Returns.IsCollection()
	cv := fl.val
	if !collection && cv.Kind != types.KindTable {
		if cv, err = types.Convert(cv, r.Fn.Returns.Kind()); err != nil {
			return cv, err
		}
	}
	// Held only as the kind of result the key was built for.
	if memoKey != "" && (cv.Kind == types.KindTable) == collection {
		ctx.memo.store(db, memoKey, a.w, cv)
	}
	return cv, nil
}

// execCall invokes a stored procedure, copying OUT / INOUT parameters
// back into the caller's variables.
func (db *DB) execCall(ctx *execCtx, s *sqlast.CallStmt) (*Result, error) {
	r := db.Cat.Routine(s.Name)
	if r == nil {
		return nil, fmt.Errorf("procedure %s does not exist", s.Name)
	}
	if r.Kind != storage.KindProcedure {
		return nil, fmt.Errorf("%s is a function; invoke it in an expression", s.Name)
	}
	params, keys := r.Params(), r.ParamKeys()
	if len(s.Args) != len(params) {
		return nil, fmt.Errorf("procedure %s expects %d arguments, got %d", s.Name, len(params), len(s.Args))
	}
	var few [4]types.Value
	args := few[:0]
	for i := range params {
		p := &params[i]
		var v types.Value
		if p.Mode == sqlast.ModeIn {
			var err error
			if v, err = db.rootExpr(s.Args[i])(ctx); err != nil {
				return nil, err
			}
		} else {
			cr, ok := s.Args[i].(*sqlast.ColumnRef)
			switch {
			case !ok || cr.Table != "":
				return nil, fmt.Errorf("argument %d of %s must be a variable (parameter %s is %s)",
					i+1, s.Name, p.Name, p.Mode)
			case ctx.vars == nil:
				return nil, fmt.Errorf("OUT parameter %s requires a variable context", p.Name)
			case p.Mode == sqlast.ModeInOut:
				if v, ok = ctx.vars.get(strings.ToLower(cr.Column)); !ok {
					return nil, fmt.Errorf("variable %s is not declared", cr.Column)
				}
			}
		}
		args = append(args, v)
	}
	w, _ := startWindow(r, args)
	defer db.popActs(db.acts.n)
	a, _, err := db.invoke(ctx, r, s.Name, db.use(r), w, args)
	if err != nil {
		return nil, err
	}
	for i := range params {
		if params[i].Mode != sqlast.ModeIn {
			v, _ := a.get(keys[i])
			if err := ctx.vars.set(s.Args[i].(*sqlast.ColumnRef).Column, v); err != nil {
				return nil, err
			}
		}
	}
	return &Result{}, nil
}

// ---------- PSM statement execution ----------

// execPSM executes a PSM statement and returns how it hands control on.
func (db *DB) execPSM(ctx *execCtx, stmt sqlast.Stmt) (flow, error) {
	if err := db.Proc.Killed(); err != nil {
		return flow{}, err
	}
	db.Stats.Statements++
	switch s := stmt.(type) {
	case *sqlast.CompoundStmt:
		return db.execCompound(ctx, s)
	case *sqlast.SetStmt:
		v, err := db.rootExpr(s.Value)(ctx)
		if err != nil {
			return flow{}, err
		}
		return flow{}, ctx.vars.set(s.Target, v)
	case *sqlast.IfStmt:
		cond, err := db.rootCond(s.Cond)(ctx)
		if err != nil {
			return flow{}, err
		}
		if cond == types.True {
			return db.execStmts(ctx, s.Then)
		}
		for _, ei := range s.ElseIfs {
			cv, err := db.rootCond(ei.Cond)(ctx)
			if err != nil {
				return flow{}, err
			}
			if cv == types.True {
				return db.execStmts(ctx, ei.Then)
			}
		}
		return db.execStmts(ctx, s.Else)
	case *sqlast.CaseStmt:
		return db.execCaseStmt(ctx, s)
	case *sqlast.WhileStmt:
		for cond := db.rootCond(s.Cond); ; {
			t, err := cond(ctx)
			if err != nil || t != types.True {
				return flow{}, err
			}
			if done, fl, err := db.turn(ctx, s.Label, s.Body); done {
				return fl, err
			}
		}
	case *sqlast.RepeatStmt:
		for until := db.rootCond(s.Until); ; {
			if done, fl, err := db.turn(ctx, s.Label, s.Body); done {
				return fl, err
			}
			t, err := until(ctx)
			if err != nil || t == types.True {
				return flow{}, err
			}
		}
	case *sqlast.LoopStmt:
		for {
			if done, fl, err := db.turn(ctx, s.Label, s.Body); done {
				return fl, err
			}
		}
	case *sqlast.ForStmt:
		return db.execFor(ctx, s)
	case *sqlast.LeaveStmt:
		return flow{kind: flowLeave, label: strings.ToLower(s.Label)}, nil
	case *sqlast.IterateStmt:
		return flow{kind: flowIterate, label: strings.ToLower(s.Label)}, nil
	case *sqlast.ReturnStmt:
		fl := flow{kind: flowReturn}
		if s.Value != nil {
			v, err := db.rootExpr(s.Value)(ctx)
			if err != nil {
				return flow{}, err
			}
			fl.val = v
		}
		return fl, nil
	case *sqlast.CallStmt:
		_, err := db.execCall(ctx, s)
		return flow{}, err
	case *sqlast.OpenStmt:
		c, err := ctx.vars.cursorNamed(s.Cursor, false)
		if err != nil {
			return flow{}, err
		}
		return flow{}, db.openCursor(ctx, c)
	case *sqlast.FetchStmt:
		return db.execFetch(ctx, s)
	case *sqlast.CloseStmt:
		c, err := ctx.vars.cursorNamed(s.Cursor, true)
		if err != nil {
			return flow{}, err
		}
		c.open = false
		return flow{}, nil
	case *sqlast.SignalStmt:
		return db.raise(ctx, &conditionErr{state: s.SQLState, msg: s.Message})
	}
	// A plain SQL statement inside a routine body is atomic: a handler
	// that takes its error finds none of its writes behind. (A compound
	// statement or CALL is not: what its statements did before the
	// failing one stays.)
	m := ctx.journal.mark()
	_, err := db.exec(ctx, stmt)
	if err != nil && ctx.journal.Len() > m {
		ctx.journal.rollbackTo(m)
		db.writeGen++ // a memo entry may have read what was undone
	}
	return flow{}, err
}

// execCompound runs a block in an activation it pushes and pops: its
// variables start at their defaults and its cursors closed, whatever the
// activation held before.
func (db *DB) execCompound(ctx *execCtx, s *sqlast.CompoundStmt) (flow, error) {
	defer db.popActs(db.acts.n)
	a := db.acts.push()
	a.ctx = *ctx
	frame, cctx := &a.varFrame, &a.ctx
	frame.parent, cctx.vars = ctx.vars, frame
	for _, d := range s.VarDecls {
		var def types.Value
		if d.Default != nil {
			v, err := db.rootExpr(d.Default)(cctx)
			if err != nil {
				return flow{}, err
			}
			def = v
		}
		for _, name := range d.Names {
			if err := frame.declare(name, strings.ToLower(name), &d.Type, def); err != nil {
				return flow{}, err
			}
		}
	}
	a.curs = slices.Grow(a.curs, len(s.Cursors))[:len(s.Cursors)]
	for i, cd := range s.Cursors {
		a.curs[i].query = cd.Query
		frame.bind(binding{name: strings.ToLower(cd.Name), kind: bindCursor, cur: &a.curs[i]})
	}
	frame.block = s

	for _, st := range s.Stmts {
		fl, err := db.execPSM(cctx, st)
		if err != nil {
			if fl, err = db.handle(cctx, err); err != nil {
				return flow{}, err
			}
		}
		switch {
		case fl.kind == flowNext: // also after a CONTINUE handler: resume with the next statement
		case fl.kind == flowExit && fl.to == frame, fl.kind == flowLeave && fl.at(s.Label):
			return flow{}, nil
		default:
			return fl, nil
		}
	}
	return flow{}, nil
}

func (db *DB) execStmts(ctx *execCtx, stmts []sqlast.Stmt) (flow, error) {
	for _, st := range stmts {
		if fl, err := db.execPSM(ctx, st); err != nil || fl.kind != flowNext {
			return fl, err
		}
	}
	return flow{}, nil
}

// turn runs one turn of the body of the loop labeled label — WHILE,
// REPEAT, LOOP or FOR. done reports that the loop ends: by LEAVE of its
// label, or by a flow or an error that leaves it (fl, err). ITERATE of
// its label ends only the turn.
func (db *DB) turn(ctx *execCtx, label string, body []sqlast.Stmt) (done bool, fl flow, err error) {
	fl, err = db.execStmts(ctx, body)
	if err == nil && fl.at(label) {
		return fl.kind == flowLeave, flow{}, nil
	}
	return err != nil || fl.kind != flowNext, fl, err
}

func (db *DB) execCaseStmt(ctx *execCtx, s *sqlast.CaseStmt) (flow, error) {
	if s.Operand != nil {
		op, err := db.rootExpr(s.Operand)(ctx)
		if err != nil {
			return flow{}, err
		}
		for _, w := range s.Whens {
			wv, err := db.rootExpr(w.When)(ctx)
			if err != nil {
				return flow{}, err
			}
			if types.OpEq.Compare(&op, &wv) == types.True {
				return db.execStmts(ctx, w.Then)
			}
		}
	} else {
		for _, w := range s.Whens {
			t, err := db.rootCond(w.When)(ctx)
			if err != nil {
				return flow{}, err
			}
			if t == types.True {
				return db.execStmts(ctx, w.Then)
			}
		}
	}
	if s.Else != nil {
		return db.execStmts(ctx, s.Else)
	}
	// A searched CASE statement with no matching WHEN and no ELSE
	// raises "case not found" per the standard.
	return flow{}, &conditionErr{state: "20000", msg: "case not found for CASE statement"}
}

// stackCursorQuery evaluates the query of a cursor or FOR loop onto the
// row stacks (stackQuery): the caller pops to m, also on error.
func (db *DB) stackCursorQuery(ctx *execCtx, q sqlast.Stmt) (m stackTop, cols []string, rows [][]types.Value, err error) {
	if ts, ok := q.(*sqlast.TemporalStmt); ok {
		if ts.Mod != sqlast.ModCurrent {
			return db.top(), nil, nil, fmt.Errorf("engine: temporal cursor query reached the conventional engine")
		}
		q = ts.Body
	}
	qe, ok := q.(sqlast.QueryExpr)
	if !ok {
		return db.top(), nil, nil, fmt.Errorf("cursor query must be a SELECT")
	}
	return db.stackQuery(ctx, qe, 0)
}

// openCursor evaluates c's query and copies its rows into c's buffer.
func (db *DB) openCursor(ctx *execCtx, c *cursor) error {
	m, cols, rows, err := db.stackCursorQuery(ctx, c.query)
	defer db.pop(m)
	if err != nil {
		return err
	}
	c.vals = slices.Grow(c.vals[:0], len(rows)*len(cols))
	for _, row := range rows {
		c.vals = append(c.vals, row...)
	}
	c.width, c.rows, c.pos, c.open = len(cols), len(rows), 0, true
	return nil
}

// execFetch reads the cursor's next row into the INTO variables. A FETCH
// that fails consumes no row and assigns no variable: every value is
// coerced to its variable's type before the first is assigned.
func (db *DB) execFetch(ctx *execCtx, s *sqlast.FetchStmt) (flow, error) {
	c, err := ctx.vars.cursorNamed(s.Cursor, true)
	if err != nil {
		return flow{}, err
	}
	if c.pos >= c.rows {
		return db.raise(ctx, notFound)
	}
	if len(s.Into) != c.width {
		return flow{}, fmt.Errorf("FETCH %s: %d variables for %d columns", s.Cursor, len(s.Into), c.width)
	}
	row := c.vals[c.pos*c.width : (c.pos+1)*c.width]
	var bbuf [8]*binding
	var vbuf [8]types.Value
	bs, vs := bbuf[:0], vbuf[:0]
	for i, name := range s.Into {
		b, v, err := ctx.vars.assignable(name, row[i])
		if err != nil {
			return flow{}, err
		}
		bs, vs = append(bs, b), append(vs, v)
	}
	for i, b := range bs {
		b.val = vs[i]
	}
	c.pos++
	return flow{}, nil
}

// execFor runs the body once per row of the loop's query, evaluated in
// full before the first turn and read off the row stacks in place.
func (db *DB) execFor(ctx *execCtx, s *sqlast.ForStmt) (flow, error) {
	m, cols, rows, err := db.stackCursorQuery(ctx, s.Query)
	defer db.pop(m)
	if err != nil {
		return flow{}, err
	}
	defer db.popActs(db.acts.n)
	lctx := db.enterRow(ctx, s.LoopVar, cols)
	for _, row := range rows {
		lctx.scope.rows[0] = row
		if done, fl, err := db.turn(lctx, s.Label, s.Body); done {
			return fl, err
		}
	}
	return flow{}, nil
}
