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

// ---------- activations ----------

// activation is what a routine call, a compound statement or a query
// level — a SELECT, UPDATE or DELETE execution, a FOR loop — needs only
// while it runs: a call's slots, cursors and window, a level's row scope,
// and the context each runs its statements or expressions in. (A context
// handed to compiled expressions lives on the heap: closures are called
// indirectly, so escape analysis cannot keep it on the stack.)
// Activations live on the session's stacks: each is pushed when what it
// belongs to starts and popped (popActs) when it ends, so its arrays —
// slots, cursor buffers, row pointers — serve the next one at that
// height. Nothing may point into an activation once it is popped.
type activation struct {
	r      *storage.Routine   // call: the routine; nil for a block run at top level
	lay    *layout            // call, or a block run at top level: the slot table
	slots  []slot             // its bindings
	curs   []cursor           // its cursors
	w      window             // call: the invocation's validity window
	ctx    execCtx            // of the call's body, the block's statements, the level's expressions
	scope  rowScope           // level: ctx.scope points here
	meta   [1]storage.Binding // level of one entry: the FOR loop's row, the modification's target row
	spares *spares            // call: the session's free list of collection tables
	made   []*storage.Table   // call: the ones its declares took (bury)
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
		clear(a.slots)
		clear(a.scope.rows)
		clear(a.made)
		*a = activation{slots: a.slots[:0], curs: a.curs[:0], scope: rowScope{rows: a.scope.rows[:0]}, made: a.made[:0]}
	}
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
	to    *scope      // EXIT: the scope of the block whose handler ran, live until the flow reaches it
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
	for sc := ctx.env; sc != nil; sc = sc.parent {
		if sc.block == nil {
			continue
		}
		for _, h := range sc.block.Handlers {
			if !handlerMatches(h.Condition, cond) {
				continue
			}
			hctx := ctx // the handler runs in its block's scope
			if sc != ctx.env {
				c := *ctx
				c.env, hctx = sc, &c
			}
			fl, err := db.execPSM(hctx, h.Action)
			if err == nil && fl.kind == flowNext && h.Kind == "EXIT" {
				fl = flow{kind: flowExit, to: sc}
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
	if db.invokeByName != nil {
		return db.invokeByName(db, ctx, r, name, u, w, slices.Clone(args)) // a copy: args stay off the heap
	}
	params, lay := r.Params(), layoutOf(r)
	a := db.acts.push()
	a.w, a.r, a.spares = w, r, &db.spares
	a.open(lay)
	for i := range params {
		if err := a.declare(int32(i), params[i].Name, &params[i].Type, args[i]); err != nil {
			return nil, flow{}, err
		}
	}
	db.noteRoutineCall(u)
	if done := db.traceRoutine(name); done != nil {
		defer done()
	}
	a.ctx = execCtx{db: db, act: a, env: lay.root, depth: ctx.depth + 1, memo: ctx.memo, journal: ctx.journal}
	m := ctx.journal.mark()
	fl, err := db.execPSM(&a.ctx, r.Body())
	ctx.window().meet(a.w) // also on error: a handler of the caller may swallow it
	a.bury(ctx.journal, m, fl.val)
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

// callFunction invokes stored function r at call site s, whose compiled
// argument expressions are evaluated in the caller's context. s.fromSite
// marks the call of a FROM source, TABLE(f(..)): the one site where a
// collection result may come from, and go to, the memo (see fnmemo.go).
func (db *DB) callFunction(ctx *execCtx, r *storage.Routine, s *callSite) (types.Value, error) {
	if n := len(r.Params()); len(s.args) != n {
		return types.Null, fmt.Errorf("function %s expects %d arguments, got %d", r.Name, n, len(s.args))
	}
	var few [4]types.Value // most routines take no more: their arguments stay off the heap
	args := few[:0]
	for i := range s.args {
		var t types.Value
		v, err := s.args[i].get(ctx, &t)
		if err != nil {
			return types.Null, err
		}
		args = append(args, *v)
	}
	w, skip := startWindow(r, args)
	u := db.use(r)
	memo := ctx.memo
	if memo != nil && !memoizable(r, u.pure, args, s.fromSite) {
		memo = nil
	}
	// The key is built on the key stack and probed at once, so a hit
	// allocates nothing; a miss leaves it there, under the keys of the
	// calls the invocation makes, until the result is stored.
	start, end := len(db.keyBuf), len(db.keyBuf)
	if memo != nil {
		db.keyBuf = appendMemoKey(db.keyBuf, r, args, skip)
		if hit := memo.lookup(db, db.keyBuf[start:], w); hit != nil {
			db.keyBuf = db.keyBuf[:start]
			// A memo hit is still a logical invocation — see fnmemo.go.
			db.noteRoutineCall(u)
			db.Stats.RoutineMemoHits++
			w.lo, w.hi = hit.lo, hit.hi
			ctx.window().meet(w)
			db.answered(ctx, u, w, true)
			return hit.v, nil
		}
		end = len(db.keyBuf)
	}
	defer db.popActs(db.acts.n)
	defer func() { db.keyBuf = db.keyBuf[:start] }()
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
	kept := end > start && (cv.Kind == types.KindTable) == collection
	if kept {
		memo.store(db, db.keyBuf[start:end], a.w, cv)
	}
	db.answered(ctx, u, a.w, kept)
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
	params := r.Params()
	if len(s.Args) != len(params) {
		return nil, fmt.Errorf("procedure %s expects %d arguments, got %d", s.Name, len(params), len(s.Args))
	}
	outs := ctx.refs(s) // the variables OUT and INOUT arguments name
	var few [4]types.Value
	args := few[:0]
	for i := range params {
		p := &params[i]
		var v types.Value
		if p.Mode == sqlast.ModeIn {
			var err error
			if v, err = db.rootExpr(ctx, s.Args[i])(ctx); err != nil {
				return nil, err
			}
		} else {
			switch {
			case outs[i].name == "":
				return nil, fmt.Errorf("argument %d of %s must be a variable (parameter %s is %s)",
					i+1, s.Name, p.Name, p.Mode)
			case ctx.act == nil && ctx.vars == nil:
				return nil, fmt.Errorf("OUT parameter %s requires a variable context", p.Name)
			case p.Mode == sqlast.ModeInOut:
				b := outs[i].find(ctx)
				if b == nil {
					return nil, fmt.Errorf("variable %s is not declared", outs[i].name)
				}
				v = b.val
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
			if err := outs[i].set(ctx, a.slots[i].val); err != nil {
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
		v, err := db.rootExpr(ctx, s.Value)(ctx)
		if err != nil {
			return flow{}, err
		}
		return flow{}, ctx.refs(s)[0].set(ctx, v)
	case *sqlast.IfStmt:
		cond, err := db.rootCond(ctx, s.Cond)(ctx)
		if err != nil {
			return flow{}, err
		}
		if cond == types.True {
			return db.execStmts(ctx, s.Then)
		}
		for _, ei := range s.ElseIfs {
			cv, err := db.rootCond(ctx, ei.Cond)(ctx)
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
		for cond := db.rootCond(ctx, s.Cond); ; {
			t, err := cond(ctx)
			if err != nil || t != types.True {
				return flow{}, err
			}
			if done, fl, err := db.turn(ctx, s.Label, s.Body); done {
				return fl, err
			}
		}
	case *sqlast.RepeatStmt:
		for until := db.rootCond(ctx, s.Until); ; {
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
			v, err := db.rootExpr(ctx, s.Value)(ctx)
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
		c, err := ctx.refs(s)[0].cursor(ctx, false)
		if err != nil {
			return flow{}, err
		}
		return flow{}, db.openCursor(ctx, c)
	case *sqlast.FetchStmt:
		return db.execFetch(ctx, s)
	case *sqlast.CloseStmt:
		c, err := ctx.refs(s)[0].cursor(ctx, true)
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
	if err != nil && ctx.journal.mark() > m {
		ctx.journal.rollbackTo(m)
		db.writeGen++ // a memo entry may have read what was undone
	}
	return flow{}, err
}

// execCompound runs a block in an activation it pushes and pops: its
// variables start at their defaults and its cursors closed, and it
// unbinds them when it ends, however it ends. A block run at top level
// gets a slot table of its own first.
func (db *DB) execCompound(ctx *execCtx, s *sqlast.CompoundStmt) (flow, error) {
	defer db.popActs(db.acts.n)
	if ctx.act == nil {
		lay, _ := db.plans.get(s).(*layout)
		if lay == nil {
			lay = newLayout(nil, s, true)
			db.plans.put(s, lay)
		}
		a := db.acts.push()
		a.open(lay)
		a.ctx = *ctx
		a.ctx.act, a.ctx.env = a, lay.root
		ctx = &a.ctx
	}
	act, sc := ctx.act, ctx.act.lay.blocks[s]
	defer act.leave(sc)
	a := db.acts.push()
	a.ctx = *ctx
	cctx := &a.ctx
	k := sc.lo
	for i, d := range s.VarDecls {
		var def types.Value
		if d.Default != nil {
			cctx.env = sc.defs[i]
			v, err := db.rootExpr(cctx, d.Default)(cctx)
			if err != nil {
				return flow{}, err
			}
			def = v
		}
		for _, name := range d.Names {
			if err := act.declare(k, name, &d.Type, def); err != nil {
				return flow{}, err
			}
			k++
		}
	}
	for i, cd := range s.Cursors {
		act.curs[sc.clo+int32(i)].query = cd.Query
	}
	cctx.env = sc

	for _, st := range s.Stmts {
		fl, err := db.execPSM(cctx, st)
		if err != nil {
			if fl, err = db.handle(cctx, err); err != nil {
				return flow{}, err
			}
		}
		switch {
		case fl.kind == flowNext: // also after a CONTINUE handler: resume with the next statement
		case fl.kind == flowExit && fl.to == sc, fl.kind == flowLeave && fl.at(s.Label):
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
		op, err := db.rootExpr(ctx, s.Operand)(ctx)
		if err != nil {
			return flow{}, err
		}
		for _, w := range s.Whens {
			wv, err := db.rootExpr(ctx, w.When)(ctx)
			if err != nil {
				return flow{}, err
			}
			if types.OpEq.Compare(&op, &wv) == types.True {
				return db.execStmts(ctx, w.Then)
			}
		}
	} else {
		for _, w := range s.Whens {
			t, err := db.rootCond(ctx, w.When)(ctx)
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
	refs := ctx.refs(s) // the cursor, then the targets
	c, err := refs[0].cursor(ctx, true)
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
	var bbuf [8]*slot
	var vbuf [8]types.Value
	bs, vs := bbuf[:0], vbuf[:0]
	for i := range s.Into {
		b, v, err := refs[1+i].assignable(ctx, row[i])
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
