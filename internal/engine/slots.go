package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"taupsm/internal/sqlast"
	"taupsm/internal/sqlscan"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// A routine's names are bound when its body compiles. Its parameters,
// then each block's DECLAREs, its cursors and the temporary tables its
// statements create are numbered once per routine — the layout, kept on
// storage.Routine as its collection schemas are — and an invocation holds
// one slot per number: a compiled reference reads or writes its slot by
// index. A statement run at top level keeps a frame searched by name
// (varFrame): the tables ExecStmtWithTables binds, and what a block run
// there reaches past its own slots.

// slot is one binding: a scalar variable or parameter, with the kind its
// assignments convert to, or a table — a collection variable or
// parameter, a temporary table the routine created — as a KindTable
// value. kind is 0 while the slot is unbound: before its block declares
// it, or while the temporary table it stands for does not exist.
type slot struct {
	val  types.Value
	typ  types.Kind
	kind bindKind
}

type bindKind uint8

const (
	bindScalar bindKind = 1 << iota
	bindTable
	bindCursor
)

// scope is what a name in a routine body reaches besides columns: the
// bindings of its block visible where it stands, then its enclosing
// blocks'. A block's statements and handlers share its scope; the default
// of its kth DECLARE sees the names declared before it (defs[k]). Its
// variables are slots lo, lo+1, … in declaration order, its cursors clo,
// clo+1, …; hi and chi bound what it clears when it ends (with its nested
// blocks', which are clear already).
type scope struct {
	parent           *scope
	names            []slotName
	block            *sqlast.CompoundStmt // whose handlers apply; nil on a DECLARE's or the root's
	defs             []*scope
	lo, hi, clo, chi int32
}

// slotName is one binding a scope numbers: a value slot, or a cursor's.
type slotName struct {
	key  string // lowercase
	kind bindKind
	temp bool  // a table slot only CREATE TEMPORARY TABLE binds
	i    int32 // the invocation's slot, or cursor
}

// layout numbers the bindings of a routine body — its parameters are
// slots 0, 1, … — or of a block run at top level (whose temporary tables
// go to the catalog), in one walk. What each statement names is compiled
// in its scope when it first runs (refs). What declared each slot and
// cursor, and the names a block declares twice as one kind, are kept for
// the analyzer (Names): no call reads them.
type layout struct {
	root         *scope
	blocks       map[*sqlast.CompoundStmt]*scope
	refs         sync.Map // sqlast.Stmt -> []ref
	slots, curs  int32
	top          bool
	decls, cdecl []Decl // by slot, by cursor
	dups         []Decl
}

// Decl is what declared a slot or a cursor: a parameter, a DECLARE of a
// variable or of a cursor, or the CREATE TEMPORARY TABLE a table slot
// stands for.
type Decl struct {
	Name   string // as written
	Pos    sqlscan.Pos
	Param  bool
	Type   *sqlast.TypeName        // a variable's or a parameter's
	Create *sqlast.CreateTableStmt // a temporary table's
	Query  sqlast.Stmt             // a cursor's
}

// IsTable reports whether d binds a table: a collection or a temporary
// table.
func (d *Decl) IsTable() bool { return d.Create != nil || d.Type != nil && d.Type.IsCollection() }

// layoutOf returns r's layout, built on its first call.
func layoutOf(r *storage.Routine) *layout {
	return r.Layout(func(r *storage.Routine) any { return newLayout(r.Params(), r.Body(), false) }).(*layout)
}

func newLayout(params []sqlast.ParamDef, body sqlast.Stmt, top bool) *layout {
	l := &layout{root: &scope{}, blocks: map[*sqlast.CompoundStmt]*scope{}, top: top}
	for i := range params {
		p := &params[i]
		l.add(l.root, Decl{Name: p.Name, Pos: p.Pos, Param: true, Type: &p.Type})
	}
	l.stmt(l.root, body)
	return l
}

// add numbers in sc the binding d declares; a temporary table takes the
// table slot sc already has for its name, and any other name sc already
// binds as its kind is declared twice (dups).
func (l *layout) add(sc *scope, d Decl) {
	n := slotName{key: strings.ToLower(d.Name), kind: bindScalar, temp: d.Create != nil, i: l.slots}
	switch {
	case d.Query != nil:
		n.kind = bindCursor
	case d.IsTable():
		n.kind = bindTable
	}
	for _, m := range sc.names {
		if m.key == n.key && m.kind == n.kind {
			if n.temp {
				return
			}
			l.dups = append(l.dups, d)
			break
		}
	}
	if n.kind == bindCursor {
		n.i, l.curs = l.curs, l.curs+1
		l.cdecl = append(l.cdecl, d)
	} else {
		l.slots++
		l.decls = append(l.decls, d)
	}
	sc.names = append(sc.names, n)
}

func (l *layout) block(sc *scope, b *sqlast.CompoundStmt) {
	bs := &scope{parent: sc, block: b, lo: l.slots, clo: l.curs}
	l.blocks[b] = bs
	for _, d := range b.VarDecls {
		bs.defs = append(bs.defs, &scope{parent: sc, names: bs.names[:len(bs.names):len(bs.names)]})
		for _, name := range d.Names {
			l.add(bs, Decl{Name: name, Pos: d.Pos, Type: &d.Type})
		}
	}
	for _, c := range b.Cursors {
		l.add(bs, Decl{Name: c.Name, Pos: c.Pos, Query: c.Query})
	}
	for _, h := range b.Handlers {
		l.stmt(bs, h.Action)
	}
	l.stmts(bs, b.Stmts)
	bs.hi, bs.chi = l.slots, l.curs
}

func (l *layout) stmts(sc *scope, ss []sqlast.Stmt) {
	for _, s := range ss {
		l.stmt(sc, s)
	}
}

// stmt numbers what s binds in sc: its blocks, and the temporary tables
// it creates in a routine, which bind in the innermost block around them.
func (l *layout) stmt(sc *scope, s sqlast.Stmt) {
	if x, ok := s.(*sqlast.CreateTableStmt); ok && x.Temporary && !l.top {
		l.add(sc, Decl{Name: x.Name, Pos: x.Pos, Create: x})
	}
	switch x := s.(type) {
	case *sqlast.CompoundStmt:
		l.block(sc, x)
	case *sqlast.IfStmt:
		l.stmts(sc, x.Then)
		for _, ei := range x.ElseIfs {
			l.stmts(sc, ei.Then)
		}
		l.stmts(sc, x.Else)
	case *sqlast.CaseStmt:
		for _, w := range x.Whens {
			l.stmts(sc, w.Then)
		}
		l.stmts(sc, x.Else)
	case *sqlast.WhileStmt:
		l.stmts(sc, x.Body)
	case *sqlast.RepeatStmt:
		l.stmts(sc, x.Body)
	case *sqlast.LoopStmt:
		l.stmts(sc, x.Body)
	case *sqlast.ForStmt:
		l.stmts(sc, x.Body)
	case *sqlast.TemporalStmt:
		l.stmt(sc, x.Body)
	}
}

// stmtRefs compiles in sc the names statement s takes: a SET's target;
// an OPEN's or CLOSE's cursor; a FETCH's cursor, then its targets; the
// variable each argument of a CALL names, if it is a bare name; the
// table a CREATE or DROP TABLE or a modification names.
func stmtRefs(sc *scope, s sqlast.Stmt) []ref {
	const value = bindScalar | bindTable
	switch x := s.(type) {
	case *sqlast.SetStmt:
		return []ref{sc.ref(x.Target, value)}
	case *sqlast.OpenStmt:
		return []ref{sc.ref(x.Cursor, bindCursor)}
	case *sqlast.CloseStmt:
		return []ref{sc.ref(x.Cursor, bindCursor)}
	case *sqlast.FetchStmt:
		rs := []ref{sc.ref(x.Cursor, bindCursor)}
		for _, v := range x.Into {
			rs = append(rs, sc.ref(v, value))
		}
		return rs
	case *sqlast.CallStmt:
		rs := make([]ref, len(x.Args))
		for i, a := range x.Args {
			if cr, ok := a.(*sqlast.ColumnRef); ok && cr.Table == "" {
				rs[i] = sc.ref(cr.Column, value)
			}
		}
		return rs
	case *sqlast.CreateTableStmt:
		return []ref{sc.ref(x.Name, bindTable)}
	case *sqlast.DropTableStmt:
		return []ref{sc.ref(x.Name, bindTable)}
	case *sqlast.InsertStmt:
		return []ref{sc.ref(x.Table, bindTable)}
	case *sqlast.UpdateStmt:
		return []ref{sc.ref(x.Table, bindTable)}
	case *sqlast.DeleteStmt:
		return []ref{sc.ref(x.Table, bindTable)}
	}
	return nil
}

// Names is a layout read from outside the engine: the analyzer
// (internal/check) binds a body's names with it as a call binds them.
// Slots and Cursors are what declared each slot and each cursor, by
// number; Duplicates, the names a block declares twice as one kind.
type Names struct {
	Slots, Cursors, Duplicates []Decl
	l                          *layout
}

// BindNames lays out the names of a routine body and its parameters, or
// (top) of a statement run at top level.
func BindNames(params []sqlast.ParamDef, body sqlast.Stmt, top bool) Names {
	l := newLayout(params, body, top)
	return Names{l.decls, l.cdecl, l.dups, l}
}

// Root is the scope of the parameters; Block is the scope of block b.
func (n Names) Root() Scope                        { return Scope{n.l.root} }
func (n Names) Block(b *sqlast.CompoundStmt) Scope { return Scope{n.l.blocks[b]} }

// Scope is where a name of a Names stands; the zero Scope is that of a
// statement run at top level, which binds no slot.
type Scope struct{ sc *scope }

// Default is the scope of the default of the kth DECLARE of a block.
func (s Scope) Default(k int) Scope { return Scope{s.sc.defs[k]} }

// Name and Table are the slots a bare name in an expression and a
// relation name may reach, innermost first: all but the last are
// temporary tables', bound only while the table exists (ref).
func (s Scope) Name(name string) []int32  { return s.sc.ref(name, bindScalar|bindTable).slots }
func (s Scope) Table(name string) []int32 { return s.sc.ref(name, bindTable).slots }

// Takes is, for each name statement st takes (stmtRefs), the slots — or
// for a cursor the cursor — it may reach.
func (s Scope) Takes(st sqlast.Stmt) [][]int32 {
	rs := stmtRefs(s.sc, st)
	out := make([][]int32, len(rs))
	for i := range rs {
		out[i] = rs[i].slots
	}
	return out
}

// refs returns the names statement s takes, compiled in its scope once —
// after its layout is whole, so a temporary table its block creates
// further down binds them too — or, at top level, by name.
func (ctx *execCtx) refs(s sqlast.Stmt) []ref {
	if ctx.env == nil {
		return stmtRefs(nil, s)
	}
	if rs, ok := ctx.act.lay.refs.Load(s); ok {
		return rs.([]ref)
	}
	rs := stmtRefs(ctx.env, s)
	ctx.act.lay.refs.Store(s, rs)
	return rs
}

// ref is a name compiled against the slots around it: those that may hold
// it, innermost first — all but the last a temporary table's, bound only
// while the table exists; sure: the last is bound wherever r is evaluated.
// Past them, a statement run at top level finds it in its frame, by name
// (a routine's statements have none).
type ref struct {
	name, key string
	kinds     bindKind
	slots     []int32
	sure      bool
}

// ref compiles name as sc sees it, among bindings of the given kinds:
// the innermost block binding it holds it; within a block a scalar
// shadows a table of its name, and a later DECLARE an earlier one. A nil
// scope is that of a statement at top level.
func (sc *scope) ref(name string, kinds bindKind) ref {
	r := ref{name: name, key: strings.ToLower(name), kinds: kinds}
	for s := sc; s != nil && !r.sure; s = s.parent {
		var hit *slotName
		for i := range s.names {
			if n := &s.names[i]; n.key == r.key && n.kind&kinds != 0 && (hit == nil || hit.kind == bindTable || n.kind != bindTable) {
				hit = n
			}
		}
		if hit != nil {
			r.slots, r.sure = append(r.slots, hit.i), !hit.temp
		}
	}
	return r
}

// find returns the binding r reaches in ctx, nil for none.
func (r *ref) find(ctx *execCtx) *slot {
	for _, i := range r.slots {
		if s := &ctx.act.slots[i]; s.kind != 0 {
			return s
		}
	}
	if fr, i := ctx.vars.lookup(r.key, r.kinds); fr != nil {
		return &fr.binds[i].slot
	}
	return nil
}

// assignable returns the binding an assignment of v to r writes and the
// value it writes there, v converted to the variable's kind
// (types.Convert), without writing it.
func (r *ref) assignable(ctx *execCtx, v types.Value) (*slot, types.Value, error) {
	s := r.find(ctx)
	switch {
	case s == nil:
		return nil, v, fmt.Errorf("variable %s is not declared", r.name)
	case s.kind != bindTable:
		v, err := types.Convert(v, s.typ)
		return s, v, err
	}
	if tableOf(v) == nil {
		return nil, v, fmt.Errorf("cannot assign a scalar to table-valued variable %s", r.name)
	}
	return s, v, nil
}

func (r *ref) set(ctx *execCtx, v types.Value) error {
	s, v, err := r.assignable(ctx, v)
	if err == nil {
		s.val = v
	}
	return err
}

// cursor returns the cursor r names, which OPEN needs closed and FETCH
// and CLOSE need open: otherwise the statement raises SQLSTATE 24000,
// invalid cursor state.
func (r *ref) cursor(ctx *execCtx, open bool) (*cursor, error) {
	var c *cursor
	if len(r.slots) > 0 {
		c = &ctx.act.curs[r.slots[0]]
	} else if fr, i := ctx.vars.lookup(r.key, bindCursor); fr != nil {
		c = fr.binds[i].cur
	}
	switch {
	case c == nil:
		return nil, fmt.Errorf("cursor %s is not declared", r.name)
	case open && !c.open:
		return nil, &conditionErr{state: "24000", msg: "cursor " + r.name + " is not open"}
	case !open && c.open:
		return nil, &conditionErr{state: "24000", msg: "cursor " + r.name + " is already open"}
	}
	return c, nil
}

// open sizes the activation's slots and cursors for l, all unbound and
// closed.
func (a *activation) open(l *layout) {
	a.lay = l
	a.slots = slices.Grow(a.slots[:0], int(l.slots))[:l.slots]
	a.curs = slices.Grow(a.curs[:0], int(l.curs))[:l.curs]
}

// declare binds slot i as a variable or parameter name of type ty holding
// v: a collection to the table v holds, or to an empty one over the
// schema the routine keeps for ty (Routine.CollectionSchema — so an
// INSERT into it finds its plan, dmlPlanFor, from one call to the next),
// taken from the session's free list if it holds one, which the call owns
// (bury) and whose rows an INSERT carves from its arena (carve); any
// other type to v converted to ty's kind.
func (a *activation) declare(i int32, name string, ty *sqlast.TypeName, v types.Value) error {
	s := &a.slots[i]
	if ty.IsCollection() {
		if tableOf(v) == nil {
			schema := a.r.CollectionSchema(ty)
			t := a.spares.take(schema)
			if t == nil {
				t = storage.NewTable(name, schema)
				t.Spare = []types.Value{} // not nil: its rows are carved
			}
			t.Name = name
			if a.spares != nil {
				a.made = append(a.made, t)
			}
			v = newTableValue(t)
		}
		*s = slot{val: v, kind: bindTable}
		return nil
	}
	kind := ty.Kind()
	v, err := types.Convert(v, kind)
	if err == nil {
		*s = slot{val: v, typ: kind, kind: bindScalar}
	}
	return err
}

// bury sorts the tables a call made when it returns, normally or with an
// error: one its return value ret or a parameter holds escapes; nothing
// outside the call reaches any other (DESIGN §8), so the journal forgets
// the changes to it since m, the call's savepoint, and the free list
// takes it.
func (a *activation) bury(j *Journal, m int, ret types.Value) {
	dead := a.made[:0]
	for _, t := range a.made {
		escapes := tableOf(ret) == t
		for i := range a.r.Params() {
			escapes = escapes || tableOf(a.slots[i].val) == t
		}
		if !escapes {
			dead = append(dead, t)
		}
	}
	j.forget(m, dead)
	for _, t := range dead {
		a.spares.put(t)
	}
}

// spares is a session's free list of collection tables, by schema: the
// dead tables of returned calls, emptied. It is scratch, not a cache, on
// the stacks the GC bounds (ageScratch).
type spares map[*storage.Schema][]*storage.Table

const maxSpares = 64 // per schema

// put empties t, keeping its arrays, and keeps it. Its version moves on,
// so every (*Table, version) stamp and index of it is stale.
func (s *spares) put(t *storage.Table) {
	if len((*s)[t.Schema]) >= maxSpares {
		return
	}
	clear(t.Rows)
	clear(t.Spare)
	t.Spare = t.Spare[:0]
	t.Restore(t.Rows[:0])
	if *s == nil {
		*s = spares{}
	}
	(*s)[t.Schema] = append((*s)[t.Schema], t)
}

// take returns a table put kept for schema, nil for none; a nil list (a
// block at top level, the tests' by-name reference) keeps none.
func (s *spares) take(schema *storage.Schema) *storage.Table {
	if s == nil || len((*s)[schema]) == 0 {
		return nil
	}
	l := (*s)[schema]
	t := l[len(l)-1]
	l[len(l)-1], (*s)[schema] = nil, l[:len(l)-1]
	if poisonSpares {
		arena := t.Spare[:cap(t.Spare)]
		for i := range arena {
			arena[i] = sparePoison
		}
	}
	return t
}

// poisonSpares, set only by tests, fills the arena of a table take hands
// out: a value its INSERTs leave unwritten shows sparePoison. It also
// fills what the session's other scratch leaves behind when it is
// emptied — the key arenas of a map cleared (keyIDs.reset) and the row
// lists of a build side popped (popSides, poisonRow) — so that a key or a
// row read after its scratch was emptied shows.
var (
	poisonSpares bool
	sparePoison  = types.NewString("\x00poison")
	poisonRow    = []types.Value{sparePoison}
)

// leave unbinds what block sc bound — its variables and temporary tables
// — and closes its cursors, keeping their buffers.
func (a *activation) leave(sc *scope) {
	clear(a.slots[sc.lo:sc.hi])
	for i := sc.clo; i < sc.chi; i++ {
		clear(a.curs[i].vals)
		a.curs[i] = cursor{vals: a.curs[i].vals[:0]}
	}
}

// varFrame is the frame of a statement run at top level, searched by
// name: the tables ExecStmtWithTables binds. Frames chain through parent;
// a frame binds a name, lowercase, at most once per kind.
type varFrame struct {
	parent *varFrame
	binds  []binding
}

type binding struct {
	name string
	slot
	cur *cursor // a cursor's
}

func tableBinding(k string, t *storage.Table) binding {
	return binding{name: k, slot: slot{val: newTableValue(t), kind: bindTable}}
}

// newTableValue and tableOf put a table in a value and take it out, the
// engine's one way to either; tableOf is nil unless v holds a table.
func newTableValue(t *storage.Table) types.Value { return types.NewTable(unsafe.Pointer(t)) }

func tableOf(v types.Value) *storage.Table { return (*storage.Table)(v.TablePtr()) }

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

// lookup is the walk from a name to its binding in a frame chain: the
// innermost frame that binds k with a kind among kinds holds it, and
// within that frame a scalar shadows a table of its name. It returns the
// frame and the binding's index, or nil.
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
