package engine

import (
	"fmt"
	"unsafe"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// rel is a stored relation over consecutive entries of its query level
// — the build side of a join, or what a source's memo keeps; rows that
// flow through a pipeline are never stored in one. It is kept per entry:
// ents[e][i] is the row entry base+e contributes to row i. Rows are
// shared with the tables and results they came from, so building a
// relation allocates per entry, never per row.
type rel struct {
	base int // level-scope index of ents[0]
	n    int // number of rows
	ents [][][]types.Value
	// For a single-source scan of a stored table, tab is that table and,
	// when the plan stab-joins the source, ords[i] is row i's ordinal in
	// tab.Rows (ascending): the probe step asks tab's interval index per
	// left row and intersects.
	tab  *storage.Table
	ords []int
	// ver is tab's version when the rows were loaded: its interval index
	// numbers the rows as loaded only while the version stands (a DELETE
	// by a routine the join calls renumbers them).
	ver int64
	// whole: the scan kept every row, so ents[0] is tab.Rows[:n:n] itself,
	// read in place, and row i's ordinal is i (ords stays empty). No
	// writer rewrites a table's rows below their length in place: an
	// INSERT appends past it (the cap keeps an append to ents[0] off the
	// table's array), a DELETE and an undo install another slice, and an
	// UPDATE writes the values, which every relation shares anyway. The
	// two that do — recovery (wal.Apply), before any statement runs, and
	// a collection table the free list empties (spares.put), after the
	// call that read it returned — move the version, and a relation kept
	// past its load is read only at the version it was built at (srcMemo).
	whole bool

	hash hashIdx // a join's over it, or over the memo's relation it stands in for (hashIndexFor): scratch only
}

func newRel(base, width int) *rel { return &rel{base: base, ents: make([][][]types.Value, width)} }

// add appends, as a new row of r, the rows sc currently binds for r's
// entries.
func (r *rel) add(sc *rowScope) {
	for e := range r.ents {
		r.ents[e] = append(r.ents[e], sc.rows[r.base+e])
	}
	r.n++
}

// bind points the scope's entries for r at row i of r.
func (sc *rowScope) bind(r *rel, i int) {
	for e, rows := range r.ents {
		sc.rows[r.base+e] = rows[i]
	}
}

// unbind clears the scope's entries for r. Every step unbinds what it
// bound before it returns, so name lookups (and FROM sources that are
// not lateral) only ever see the entries bound for the row in progress.
func (sc *rowScope) unbind(r *rel) {
	for e := range r.ents {
		sc.rows[r.base+e] = nil
	}
}

// allTrue reports whether every conjunct, except the one at index skip,
// is TRUE in ctx.
func (db *DB) allTrue(ctx *execCtx, cs []*conjunct, skip int) (bool, error) {
	for i, c := range cs {
		if i == skip {
			continue
		}
		if t, err := c.test(ctx); err != nil || t != types.True {
			return false, err
		}
	}
	return true, nil
}

// RelationColumns names the columns the relation name reaches from this
// scope (resolve), recording how it resolved on the plan being built:
// the scope is the storage.Relations the engine names a FROM element's
// correlation entries (storage.Bindings) and a query's columns
// (storage.QueryColumns) over, without loading data.
func (ctx *execCtx) RelationColumns(name string) ([]string, error) {
	return ctx.relationColumns(name, 0)
}

// inView is a scope read as storage.Relations inside the query of a view
// being named, depth views down.
type inView struct {
	*execCtx
	depth int
}

func (v inView) RelationColumns(name string) ([]string, error) {
	return v.relationColumns(name, v.depth)
}

// maxViewDepth cuts a chain of views named from their queries, as the
// catalog's storage.TableColumns does: only a cycle of views reaches it.
const maxViewDepth = 64

func (ctx *execCtx) relationColumns(name string, depth int) ([]string, error) {
	r := ctx.env.ref(name, bindTable)
	rel := ctx.db.resolve(ctx, &r)
	if rec := ctx.planRec; rec != nil {
		// How the name resolved, for revalidation on reuse. A view is
		// recorded by identity: no table holds the name (a later temp
		// table can't silently shadow the resolution), and a redefined
		// view is a new object. A system table's schema is code-defined:
		// only that neither a table nor a view holds the name counts.
		res := resolved{ref: r, kind: rel.kind, view: rel.view}
		if rel.tab != nil && rel.kind != relSystem {
			res.cols = rel.tab.Schema.Names()
		}
		rec.note(res)
	}
	switch {
	case rel.kind == relNone:
		return nil, fmt.Errorf("table or view %s does not exist", name)
	case rel.view == nil:
		return rel.tab.Schema.Names(), nil
	case len(rel.view.Cols) > 0:
		return rel.view.Cols, nil
	case depth >= maxViewDepth:
		return nil, fmt.Errorf("view nesting too deep at %s", name)
	}
	return storage.QueryColumns(inView{ctx.view(), depth + 1}, rel.view.Query)
}

// Function is the stored function a table function in this scope calls.
func (ctx *execCtx) Function(name string) *sqlast.CreateFunctionStmt {
	return ctx.db.Cat.Function(name)
}

// outer returns a copy of a query level's context as the enclosing
// level sees it. FROM sources that are queries themselves (views,
// derived tables) evaluate in it: they are not lateral.
func (ctx *execCtx) outer() *execCtx {
	c := *ctx
	c.scope = ctx.scope.parent
	return &c
}

// view returns the context a view's query is evaluated in from ctx: the
// catalog's alone, for a view is defined at top level. Its names reach
// no variable, no table bound in a slot or frame and no enclosing column
// of the reader, so its plan serves every reader. The invocation stays:
// what the query reads narrows its window.
func (ctx *execCtx) view() *execCtx {
	c := *ctx
	c.env, c.vars, c.scope = nil, nil, nil
	return &c
}

// relation is what a relation name reaches in a scope.
type relation struct {
	kind relKind
	tab  *storage.Table // relLocal, relTable, relSystem
	view *storage.View  // relView
}

type relKind uint8

const (
	relNone   relKind = iota
	relLocal          // a table bound in a slot — a collection variable or parameter, a routine's temporary table — or a table ExecStmtWithTables binds
	relTable          // a catalog table
	relView           // a view
	relSystem         // a system table, materialized
)

// resolve decides what the relation name r reaches in ctx, in the order
// that decides shadowing: a table bound in a slot of the routine or the
// frame of a statement at top level, a catalog table, a view, a system
// table. It is the one place that order is written.
func (db *DB) resolve(ctx *execCtx, r *ref) relation {
	if b := r.find(ctx); b != nil {
		if t := tableOf(b.val); t != nil {
			return relation{kind: relLocal, tab: t}
		}
	}
	name := r.name
	if t := db.Cat.Table(name); t != nil {
		return relation{kind: relTable, tab: t}
	}
	if v := db.Cat.View(name); v != nil {
		return relation{kind: relView, view: v}
	}
	if t := db.systemTable(name); t != nil {
		return relation{kind: relSystem, tab: t}
	}
	return relation{}
}

// tableFuncRows invokes a collection-returning function and returns its
// rows, for reading only: the function memo may hold the same table.
func (db *DB) tableFuncRows(ctx *execCtx, fp *fromPlan) ([][]types.Value, error) {
	v, err := fp.call.eval(ctx)
	if err != nil {
		return nil, err
	}
	name := fp.call.fc.Name
	if v.IsNull() {
		return nil, nil
	}
	if v.Kind != types.KindTable {
		return nil, fmt.Errorf("function %s used in FROM must return a collection", name)
	}
	t := tableOf(v)
	if t == nil {
		return nil, fmt.Errorf("function %s returned an invalid collection", name)
	}
	if want := len(ctx.scope.metas[fp.base].Cols); len(t.Schema.Cols) != want {
		return nil, fmt.Errorf("function %s returned %d columns, expected %d",
			name, len(t.Schema.Cols), want)
	}
	return t.Rows, nil
}

// appendKey appends the hash keys of vals, each followed by a
// separator, to buf. Every composite map key of the engine (join,
// group, DISTINCT and set-operation rows, the function memo) is built
// by it onto the session's key stack and probed as m[string(buf)], which
// allocates nothing; a key a map keeps is copied into that map's arena
// (keyIDs.id).
func appendKey(buf []byte, vals ...types.Value) []byte {
	for _, v := range vals {
		buf = append(v.AppendHashKey(buf), '|')
	}
	return buf
}

// keyIDs numbers distinct composite keys in first-seen order. The map's
// keys are strings over its own arena: a key is copied there once, when
// it is first seen, and lives until the map is emptied (reset).
type keyIDs struct {
	m     map[string]int
	arena []byte
}

// id returns key's number, fresh when it is new: then the key is copied
// into the arena, and the map keeps it as a string over the arena's bytes
// — the one place a composite key becomes a kept string. A key that does
// not fit starts an array of its own, twice the last one's size, and the
// full one stays with the strings over it.
func (k *keyIDs) id(key []byte) (id int, fresh bool) {
	if id, ok := k.m[string(key)]; ok {
		return id, false
	} else if k.m == nil {
		k.m = map[string]int{}
	}
	if cap(k.arena)-len(k.arena) < len(key) {
		k.arena = make([]byte, 0, max(2*cap(k.arena), len(key), 256))
	}
	a := len(k.arena)
	k.arena = append(k.arena, key...)
	k.m[unsafe.String(unsafe.SliceData(k.arena[a:]), len(key))] = len(k.m)
	return len(k.m) - 1, true
}

// reset empties k, keeping its map and arena for the next keys — or,
// past keep keys, dropping them, since clearing a Go map costs as much as
// the largest it has been.
func (k *keyIDs) reset(keep int) {
	if len(k.m) > keep {
		*k = keyIDs{}
		return
	}
	clear(k.m)
	if a := k.arena[:cap(k.arena)]; poisonSpares { // a string still over it no longer equals its key
		for i := range a {
			a[i] = 0xa5
		}
	}
	k.arena = k.arena[:0]
}

// hashIdx is the build side of a hash join: the row indexes of a
// relation grouped by composite key.
type hashIdx struct {
	ids  keyIDs
	rows [][]int
}

func (h *hashIdx) get(key []byte) []int {
	if id, ok := h.ids.m[string(key)]; ok {
		return h.rows[id]
	}
	return nil
}

// keyOf evaluates key expressions and appends their composite key to
// the session's key scratch, which callers use as a stack: they note
// its length, read the key above it, and truncate back, so a key under
// construction survives the nested statements its expressions may run.
// null=true when any key is NULL (such rows never join).
func (db *DB) keyOf(ctx *execCtx, keys []operand) (null bool, err error) {
	var t types.Value
	for i := range keys {
		v, err := keys[i].get(ctx, &t)
		if err != nil {
			return false, err
		}
		if v.IsNull() {
			return true, nil
		}
		db.keyBuf = appendKey(db.keyBuf, *v)
	}
	return false, nil
}
