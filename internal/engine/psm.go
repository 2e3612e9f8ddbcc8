package engine

import (
	"errors"
	"fmt"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// ---------- variable frames ----------

// varFrame is one lexical scope of PSM variables: scalar values,
// table-valued (collection) variables, cursors, and condition handlers.
// Frames chain through parent within a routine; routine boundaries
// start a fresh chain.
//
// Variables live in small association slices, not maps: routines
// declare a handful of names but are called once per candidate tuple
// under MAX slicing, and the per-call map allocations dominated the
// engine's allocation profile. Names are stored lowercase; a linear
// scan over ≤8 entries beats a map probe anyway.
type varFrame struct {
	parent  *varFrame
	entries []varEntry
	tabs    []named[*storage.Table]
	curs    []named[*cursor]
	block   *sqlast.CompoundStmt // the compound statement the frame belongs to: its handlers apply
	win     *window              // on a routine's root frame: the invocation's validity window (fnmemo.go)
}

// named is a table-valued variable or a cursor under its lowercase name.
type named[T any] struct {
	name string
	v    T
}

// bind sets name to v in list, appending it when new.
func bind[T any](list []named[T], name string, v T) []named[T] {
	for i := range list {
		if list[i].name == name {
			list[i].v = v
			return list
		}
	}
	return append(list, named[T]{name, v})
}

// routineFrame is a routine invocation's root frame, window and
// context, in one allocation. (A context handed to compiled expressions
// lives on the heap: closures are called indirectly, so escape analysis
// cannot keep it on the stack; it shares the frame's allocation instead.)
type routineFrame struct {
	varFrame
	w   window
	ctx execCtx
}

// blockFrame is a compound statement's frame and context, likewise.
type blockFrame struct {
	varFrame
	ctx execCtx
}

func newRoutineFrame(w window, nparams int) *routineFrame {
	rf := &routineFrame{w: w}
	rf.win, rf.entries = &rf.w, make([]varEntry, 0, nparams)
	return rf
}

// varEntry is one scalar variable: its value and declared type. A
// name can carry a type without a value (collection parameters get a
// declared type while their data lives in the table list).
type varEntry struct {
	name   string // lowercase
	val    types.Value
	typ    sqlast.TypeName
	hasVal bool
	hasTyp bool
}

func newFrame(parent *varFrame) *varFrame {
	return &varFrame{parent: parent}
}

func (f *varFrame) find(k string) *varEntry {
	for i := range f.entries {
		if f.entries[i].name == k {
			return &f.entries[i]
		}
	}
	return nil
}

func (f *varFrame) setVal(key string, v types.Value) {
	if e := f.find(key); e != nil {
		e.val, e.hasVal = v, true
		return
	}
	f.entries = append(f.entries, varEntry{name: key, val: v, hasVal: true})
}

func (f *varFrame) setType(key string, t sqlast.TypeName) {
	if e := f.find(key); e != nil {
		e.typ, e.hasTyp = t, true
		return
	}
	f.entries = append(f.entries, varEntry{name: key, typ: t, hasTyp: true})
}

func (f *varFrame) setTableVar(key string, t *storage.Table) { f.tabs = bind(f.tabs, key, t) }

func (f *varFrame) setCursor(key string, c *cursor) { f.curs = bind(f.curs, key, c) }

// get returns the value of the variable stored under k, a name already
// folded to lower case.
func (f *varFrame) get(k string) (types.Value, bool) {
	for fr := f; fr != nil; fr = fr.parent {
		if e := fr.find(k); e != nil && e.hasVal {
			return e.val, true
		}
		for _, t := range fr.tabs {
			if t.name == k {
				return types.NewTable(t.v), true
			}
		}
	}
	return types.Null, false
}

func (f *varFrame) getTable(name string) *storage.Table {
	k := strings.ToLower(name)
	for fr := f; fr != nil; fr = fr.parent {
		for _, t := range fr.tabs {
			if t.name == k {
				return t.v
			}
		}
	}
	return nil
}

// dropTableVar removes a frame-local binding to a temporary table,
// walking the chain. Only bindings whose table is marked Temporary are
// eligible: collection variables live in the same table list, but DROP
// TABLE must not silently consume them.
func (f *varFrame) dropTableVar(name string) bool {
	k := strings.ToLower(name)
	for fr := f; fr != nil; fr = fr.parent {
		for i, t := range fr.tabs {
			if t.name == k {
				if t.v == nil || !t.v.Temporary {
					return false
				}
				fr.tabs = append(fr.tabs[:i], fr.tabs[i+1:]...)
				return true
			}
		}
	}
	return false
}

func (f *varFrame) set(name string, v types.Value) error {
	k := strings.ToLower(name)
	for fr := f; fr != nil; fr = fr.parent {
		if e := fr.find(k); e != nil && e.hasVal {
			if e.hasTyp {
				cv, err := coerce(v, e.typ)
				if err != nil {
					return err
				}
				v = cv
			}
			e.val = v
			return nil
		}
		for i := range fr.tabs {
			if fr.tabs[i].name == k {
				if v.Kind == types.KindTable {
					if t, ok := v.Aux.(*storage.Table); ok {
						fr.tabs[i].v = t
						return nil
					}
				}
				return fmt.Errorf("cannot assign a scalar to table-valued variable %s", name)
			}
		}
	}
	return fmt.Errorf("variable %s is not declared", name)
}

func (f *varFrame) getCursor(name string) *cursor {
	k := strings.ToLower(name)
	for fr := f; fr != nil; fr = fr.parent {
		for _, c := range fr.curs {
			if c.name == k {
				return c.v
			}
		}
	}
	return nil
}

// cursor is a declared cursor: its query and, when open, the
// materialized result and position.
type cursor struct {
	query sqlast.Stmt
	res   *Result
	pos   int
	open  bool
}

// ---------- control-flow signals ----------

type returnSignal struct{ val types.Value }

func (returnSignal) Error() string { return "RETURN outside a function" }

type leaveSignal struct{ label string }

func (s leaveSignal) Error() string { return "no enclosing statement labeled " + s.label }

type iterateSignal struct{ label string }

func (s iterateSignal) Error() string { return "no enclosing loop labeled " + s.label }

// exitHandlerSignal unwinds to the compound block whose frame declared
// an EXIT handler.
type exitHandlerSignal struct{ frame *varFrame }

func (exitHandlerSignal) Error() string { return "unwinding to EXIT handler scope" }

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

// raiseCondition finds and runs the innermost matching handler for a
// condition. It returns (handled, err): when handled with a CONTINUE
// handler err is nil; with an EXIT handler err is an exitHandlerSignal.
func (db *DB) raiseCondition(ctx *execCtx, cond *conditionErr) (bool, error) {
	for fr := ctx.vars; fr != nil; fr = fr.parent {
		if fr.block == nil {
			continue
		}
		for _, h := range fr.block.Handlers {
			if !handlerMatches(h.Condition, cond) {
				continue
			}
			hctx := *ctx
			hctx.vars = fr
			if err := db.execPSM(&hctx, h.Action); err != nil {
				return true, err
			}
			if h.Kind == "EXIT" {
				return true, exitHandlerSignal{frame: fr}
			}
			return true, nil
		}
	}
	return false, cond
}

func handlerMatches(handlerCond string, cond *conditionErr) bool {
	switch {
	case handlerCond == "NOT FOUND":
		return cond.state == "02000"
	case handlerCond == "SQLEXCEPTION":
		return !strings.HasPrefix(cond.state, "02") && cond.state != "00000"
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

// inRoutine names the routine an error passes through on its way out.
// The nesting-limit error is exempt: it already names the routine and
// the depth, and every one of the frames it unwinds would repeat them.
func inRoutine(kind, name string, err error) error {
	var ne *nestingErr
	if errors.As(err, &ne) {
		return err
	}
	return fmt.Errorf("in %s %s: %w", kind, name, err)
}

// callFunction invokes a stored function with the given compiled
// argument expressions (evaluated in the caller's context). fromSite marks the
// call of a FROM source, TABLE(f(..)): the one site where a collection
// result may come from, and go to, the memo (see fnmemo.go).
func (db *DB) callFunction(ctx *execCtx, r *storage.Routine, argExprs []evalFn, fromSite bool) (types.Value, error) {
	params, keys := r.Params(), r.ParamKeys()
	if len(argExprs) != len(params) {
		return types.Null, fmt.Errorf("function %s expects %d arguments, got %d", r.Name, len(params), len(argExprs))
	}
	if ctx.depth >= maxRecursion {
		return types.Null, &nestingErr{routine: r.Name}
	}
	var few [4]types.Value // most routines take no more: their arguments stay off the heap
	args := few[:]
	if len(argExprs) > len(few) {
		args = make([]types.Value, len(argExprs))
	}
	args = args[:len(argExprs)]
	for i := range argExprs {
		v, err := argExprs[i](ctx)
		if err != nil {
			return types.Null, err
		}
		args[i] = v
	}
	w, skip, u := unbounded, r.Instant(), db.use(r)
	if skip >= 0 && args[skip].Kind == types.KindDate {
		w.t, w.sliced = args[skip].I, true
	} else {
		skip = -1 // an instant that is no date: an ordinary call
	}
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
	rf := newRoutineFrame(w, len(params))
	frame := &rf.varFrame
	for i, p := range params {
		v, k := args[i], keys[i]
		if p.Type.IsCollection() {
			if t, ok := v.Aux.(*storage.Table); ok && v.Kind == types.KindTable {
				frame.setTableVar(k, t)
			} else {
				frame.setTableVar(k, newCollectionTable(p.Name, p.Type))
			}
			continue
		}
		cv, err := coerce(v, p.Type)
		if err != nil {
			return types.Null, err
		}
		frame.setVal(k, cv)
		frame.setType(k, p.Type)
	}
	db.noteRoutineCall(u)
	if done := db.traceRoutine(r.Name); done != nil {
		defer done()
	}
	rf.ctx = execCtx{db: db, vars: frame, depth: ctx.depth + 1, memo: ctx.memo, journal: ctx.journal}
	err := db.execPSM(&rf.ctx, r.Body())
	ctx.window().meet(rf.w) // also on error: a handler of the caller may swallow it
	if err == nil {
		return types.Null, fmt.Errorf("function %s ended without RETURN", r.Name)
	}
	if rs, ok := err.(returnSignal); ok {
		collection := r.Fn.Returns.IsCollection()
		cv, cerr := rs.val, error(nil)
		if !collection && cv.Kind != types.KindTable {
			cv, cerr = coerce(cv, r.Fn.Returns)
		}
		// Held only as the kind of result the key was built for.
		if cerr == nil && memoKey != "" && (cv.Kind == types.KindTable) == collection {
			ctx.memo.store(db, memoKey, rf.w, cv)
		}
		return cv, cerr
	}
	return types.Null, inRoutine("function", r.Name, err)
}

// execCall invokes a stored procedure, copying OUT/INOUT parameters
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
	if ctx.depth >= maxRecursion {
		return nil, &nestingErr{routine: s.Name}
	}
	rf := newRoutineFrame(unbounded, len(params))
	frame := &rf.varFrame
	type outBinding struct {
		param string
		arg   string
	}
	var outs []outBinding
	for i, p := range params {
		k := keys[i]
		frame.setType(k, p.Type)
		switch p.Mode {
		case sqlast.ModeIn:
			v, err := db.rootExpr(s.Args[i])(ctx)
			if err != nil {
				return nil, err
			}
			if p.Type.IsCollection() {
				if t, ok := v.Aux.(*storage.Table); ok && v.Kind == types.KindTable {
					frame.setTableVar(k, t)
				} else {
					frame.setTableVar(k, newCollectionTable(p.Name, p.Type))
				}
				continue
			}
			cv, err := coerce(v, p.Type)
			if err != nil {
				return nil, err
			}
			frame.setVal(k, cv)
			if p.Instant && v.Kind == types.KindDate {
				rf.w.t, rf.w.sliced = v.I, true
			}
		case sqlast.ModeOut, sqlast.ModeInOut:
			cr, ok := s.Args[i].(*sqlast.ColumnRef)
			if !ok || cr.Table != "" {
				return nil, fmt.Errorf("argument %d of %s must be a variable (parameter %s is %s)",
					i+1, s.Name, p.Name, p.Mode)
			}
			if ctx.vars == nil {
				return nil, fmt.Errorf("OUT parameter %s requires a variable context", p.Name)
			}
			if p.Mode == sqlast.ModeInOut {
				v, ok := ctx.vars.get(strings.ToLower(cr.Column))
				if !ok {
					return nil, fmt.Errorf("variable %s is not declared", cr.Column)
				}
				if p.Type.IsCollection() {
					if t, ok := v.Aux.(*storage.Table); ok && v.Kind == types.KindTable {
						frame.setTableVar(k, t)
					} else {
						frame.setTableVar(k, newCollectionTable(p.Name, p.Type))
					}
				} else {
					frame.setVal(k, v)
				}
			} else if p.Type.IsCollection() {
				frame.setTableVar(k, newCollectionTable(p.Name, p.Type))
			} else {
				frame.setVal(k, types.Null)
			}
			outs = append(outs, outBinding{param: k, arg: cr.Column})
		}
	}
	db.noteRoutineCall(db.use(r))
	if done := db.traceRoutine(s.Name); done != nil {
		defer done()
	}
	rf.ctx = execCtx{db: db, vars: frame, depth: ctx.depth + 1, memo: ctx.memo, journal: ctx.journal}
	err := db.execPSM(&rf.ctx, r.Body())
	ctx.window().meet(rf.w)
	if err != nil {
		if _, ok := err.(returnSignal); !ok {
			return nil, inRoutine("procedure", s.Name, err)
		}
	}
	for _, ob := range outs {
		v, _ := frame.get(ob.param)
		if err := ctx.vars.set(ob.arg, v); err != nil {
			return nil, err
		}
	}
	return &Result{}, nil
}

// ---------- PSM statement execution ----------

// execPSM executes a PSM statement. Control flow is communicated via
// the signal error types above.
func (db *DB) execPSM(ctx *execCtx, stmt sqlast.Stmt) error {
	if err := db.Proc.Killed(); err != nil {
		return err
	}
	db.Stats.Statements++
	switch s := stmt.(type) {
	case *sqlast.CompoundStmt:
		return db.execCompound(ctx, s)
	case *sqlast.SetStmt:
		v, err := db.rootExpr(s.Value)(ctx)
		if err != nil {
			return err
		}
		return ctx.vars.set(s.Target, v)
	case *sqlast.IfStmt:
		cond, err := db.rootCond(s.Cond)(ctx)
		if err != nil {
			return err
		}
		if cond == types.True {
			return db.execStmts(ctx, s.Then)
		}
		for _, ei := range s.ElseIfs {
			cv, err := db.rootCond(ei.Cond)(ctx)
			if err != nil {
				return err
			}
			if cv == types.True {
				return db.execStmts(ctx, ei.Then)
			}
		}
		if s.Else != nil {
			return db.execStmts(ctx, s.Else)
		}
		return nil
	case *sqlast.CaseStmt:
		return db.execCaseStmt(ctx, s)
	case *sqlast.WhileStmt:
		for cond := db.rootCond(s.Cond); ; {
			t, err := cond(ctx)
			if err != nil {
				return err
			}
			if t != types.True {
				return nil
			}
			if stop, err := db.runLoopBody(ctx, s.Label, s.Body); stop || err != nil {
				return err
			}
		}
	case *sqlast.RepeatStmt:
		for until := db.rootCond(s.Until); ; {
			if stop, err := db.runLoopBody(ctx, s.Label, s.Body); stop || err != nil {
				return err
			}
			t, err := until(ctx)
			if err != nil {
				return err
			}
			if t == types.True {
				return nil
			}
		}
	case *sqlast.LoopStmt:
		for {
			if stop, err := db.runLoopBody(ctx, s.Label, s.Body); stop || err != nil {
				return err
			}
		}
	case *sqlast.ForStmt:
		return db.execFor(ctx, s)
	case *sqlast.LeaveStmt:
		return leaveSignal{label: strings.ToLower(s.Label)}
	case *sqlast.IterateStmt:
		return iterateSignal{label: strings.ToLower(s.Label)}
	case *sqlast.ReturnStmt:
		if s.Value == nil {
			return returnSignal{val: types.Null}
		}
		v, err := db.rootExpr(s.Value)(ctx)
		if err != nil {
			return err
		}
		return returnSignal{val: v}
	case *sqlast.CallStmt:
		_, err := db.execCall(ctx, s)
		return err
	case *sqlast.OpenStmt:
		c := ctx.vars.getCursor(s.Cursor)
		if c == nil {
			return fmt.Errorf("cursor %s is not declared", s.Cursor)
		}
		res, err := db.execCursorQuery(ctx, c.query)
		if err != nil {
			return err
		}
		c.res, c.pos, c.open = res, 0, true
		return nil
	case *sqlast.FetchStmt:
		return db.execFetch(ctx, s)
	case *sqlast.CloseStmt:
		c := ctx.vars.getCursor(s.Cursor)
		if c == nil {
			return fmt.Errorf("cursor %s is not declared", s.Cursor)
		}
		if !c.open {
			return fmt.Errorf("cursor %s is not open", s.Cursor)
		}
		c.open, c.res = false, nil
		return nil
	case *sqlast.SignalStmt:
		cond := &conditionErr{state: s.SQLState, msg: s.Message}
		_, err := db.raiseCondition(ctx, cond)
		return err
	default:
		// Plain SQL statement inside a routine body.
		_, err := db.exec(ctx, stmt)
		return err
	}
}

func (db *DB) execCompound(ctx *execCtx, s *sqlast.CompoundStmt) error {
	bf := &blockFrame{ctx: *ctx}
	frame, cctx := &bf.varFrame, &bf.ctx
	frame.parent, cctx.vars = ctx.vars, frame
	if n := len(s.VarDecls); n > 0 {
		frame.entries = make([]varEntry, 0, n)
	}

	for _, d := range s.VarDecls {
		var def types.Value
		if d.Default != nil {
			v, err := db.rootExpr(d.Default)(cctx)
			if err != nil {
				return err
			}
			def = v
		}
		for _, name := range d.Names {
			k := strings.ToLower(name)
			if d.Type.IsCollection() {
				frame.setTableVar(k, newCollectionTable(name, d.Type))
				continue
			}
			cv, err := coerce(def, d.Type)
			if err != nil {
				return err
			}
			frame.setVal(k, cv)
			frame.setType(k, d.Type)
		}
	}
	for _, cd := range s.Cursors {
		frame.setCursor(strings.ToLower(cd.Name), &cursor{query: cd.Query})
	}
	frame.block = s

	for _, st := range s.Stmts {
		err := db.execPSM(cctx, st)
		if err == nil {
			continue
		}
		switch e := err.(type) {
		case returnSignal, iterateSignal:
			return err
		case leaveSignal:
			if s.Label != "" && strings.EqualFold(e.label, s.Label) {
				return nil
			}
			return err
		case exitHandlerSignal:
			if e.frame == frame {
				return nil
			}
			return err
		case *conditionErr:
			handled, herr := db.raiseCondition(cctx, e)
			if !handled {
				return err
			}
			if herr != nil {
				if ex, ok := herr.(exitHandlerSignal); ok && ex.frame == frame {
					return nil
				}
				return herr
			}
			// CONTINUE handler: resume with the next statement.
		default:
			// A kill is not a condition: it must tear the whole
			// statement down, so no SQLEXCEPTION handler — not even a
			// CONTINUE one — may swallow it.
			if db.Proc.KilledBy(err) {
				return err
			}
			// Generic engine error becomes SQLEXCEPTION.
			cond := &conditionErr{state: "58000", msg: err.Error()}
			handled, herr := db.raiseCondition(cctx, cond)
			if !handled {
				return err
			}
			if herr != nil {
				if ex, ok := herr.(exitHandlerSignal); ok && ex.frame == frame {
					return nil
				}
				return herr
			}
		}
	}
	return nil
}

// newCollectionTable creates the backing table of a table-valued
// variable from a ROW(...) ARRAY type.
func newCollectionTable(name string, ty sqlast.TypeName) *storage.Table {
	cols := make([]storage.Column, len(ty.Row))
	for i, f := range ty.Row {
		cols[i] = storage.Column{Name: f.Name, Type: f.Type}
	}
	return storage.NewTable(name, storage.NewSchema(cols))
}

func (db *DB) execStmts(ctx *execCtx, stmts []sqlast.Stmt) error {
	for _, st := range stmts {
		if err := db.execPSM(ctx, st); err != nil {
			return err
		}
	}
	return nil
}

// runLoopBody executes a loop body once. stop=true means the loop
// should terminate normally (LEAVE of this loop's label).
func (db *DB) runLoopBody(ctx *execCtx, label string, body []sqlast.Stmt) (bool, error) {
	err := db.execStmts(ctx, body)
	if err == nil {
		return false, nil
	}
	switch e := err.(type) {
	case leaveSignal:
		if label != "" && strings.EqualFold(e.label, label) {
			return true, nil
		}
	case iterateSignal:
		if label != "" && strings.EqualFold(e.label, label) {
			return false, nil
		}
	}
	return true, err
}

func (db *DB) execCaseStmt(ctx *execCtx, s *sqlast.CaseStmt) error {
	if s.Operand != nil {
		op, err := db.rootExpr(s.Operand)(ctx)
		if err != nil {
			return err
		}
		for _, w := range s.Whens {
			wv, err := db.rootExpr(w.When)(ctx)
			if err != nil {
				return err
			}
			if types.OpEq.Compare(&op, &wv) == types.True {
				return db.execStmts(ctx, w.Then)
			}
		}
	} else {
		for _, w := range s.Whens {
			t, err := db.rootCond(w.When)(ctx)
			if err != nil {
				return err
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
	return &conditionErr{state: "20000", msg: "case not found for CASE statement"}
}

// execCursorQuery evaluates the query of a cursor or FOR loop.
func (db *DB) execCursorQuery(ctx *execCtx, q sqlast.Stmt) (*Result, error) {
	if ts, ok := q.(*sqlast.TemporalStmt); ok {
		if ts.Mod == sqlast.ModCurrent {
			q = ts.Body
		} else {
			return nil, fmt.Errorf("engine: temporal cursor query reached the conventional engine")
		}
	}
	qe, ok := q.(sqlast.QueryExpr)
	if !ok {
		return nil, fmt.Errorf("cursor query must be a SELECT")
	}
	return db.evalQuery(ctx, qe)
}

func (db *DB) execFetch(ctx *execCtx, s *sqlast.FetchStmt) error {
	c := ctx.vars.getCursor(s.Cursor)
	if c == nil {
		return fmt.Errorf("cursor %s is not declared", s.Cursor)
	}
	if !c.open {
		return fmt.Errorf("cursor %s is not open", s.Cursor)
	}
	if c.pos >= len(c.res.Rows) {
		_, err := db.raiseCondition(ctx, &conditionErr{state: "02000", msg: "no data"})
		return err
	}
	row := c.res.Rows[c.pos]
	c.pos++
	if len(s.Into) != len(row) {
		return fmt.Errorf("FETCH %s: %d variables for %d columns", s.Cursor, len(s.Into), len(row))
	}
	for i, name := range s.Into {
		if err := ctx.vars.set(name, row[i]); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) execFor(ctx *execCtx, s *sqlast.ForStmt) error {
	res, err := db.execCursorQuery(ctx, s.Query)
	if err != nil {
		return err
	}
	lctx := enter(ctx, []entryMeta{{alias: s.LoopVar, cols: res.Cols}})
	for _, row := range res.Rows {
		lctx.scope.rows[0] = row
		lerr := db.execStmts(lctx, s.Body)
		if lerr == nil {
			continue
		}
		switch e := lerr.(type) {
		case leaveSignal:
			if s.Label != "" && strings.EqualFold(e.label, s.Label) {
				return nil
			}
		case iterateSignal:
			if s.Label != "" && strings.EqualFold(e.label, s.Label) {
				continue
			}
		}
		return lerr
	}
	return nil
}
