package engine

import (
	"math"
	"strings"

	"taupsm/internal/core"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// Function-result memoization.
//
// The slicing strategies of the stratum invoke stored functions once
// per (tuple, constant period) under MAX and once per satisfying tuple
// under PERST, and the calls repeat heavily — PERST's period arguments
// are the same constants for every tuple, foreign keys repeat across
// tuples, and consecutive constant periods mostly differ in rows the
// function never reads. When a function writes no shared state, equal
// arguments give equal results, so the engine keeps a per-statement
// memo of (function, arguments) → result.
//
// What is keyed: the routine name and its scalar arguments
// (appendMemoKey); a table-valued argument disqualifies the call
// (memoizable), since the key cannot capture its contents. The slicing instant of a MAX
// clone (storage.Routine.Instant: the translator's mark, never a name)
// is left out: a key maps to a short chain of (window, value), and an
// entry answers every call whose instant its window holds. Any other
// routine is the degenerate case, one entry that instants never select.
// What is held: a scalar result, or — for a collection-returning
// function invoked as a FROM source, TABLE(f(..)) — the table the call
// returned, uncopied. That site only binds the table's rows into the
// row scope, read and never written, and the frame that built the table
// is gone; at every other site (SET v = f(..), an argument, RETURN
// f(..)) the caller receives the table itself and may change it in
// place, so collection results are neither looked up nor stored there.
//
// Scope and invalidation: the memo's entries live for one top-level
// statement (its arrays are the session's, stacks.memo, cleared when a
// statement starts and when it ends), and a write to shared state during
// it — DML on a table of the catalog, or DDL on the catalog — advances
// the generation it is valid for (sharedGen), wiping it. DML on collection
// variables and on the temporary tables a routine creates for itself
// does not: no other invocation can observe it. Memo hits still count as
// RoutineCalls — logical invocations: the strategies' call-count
// asymmetry must stay observable — and also in RoutineMemoHits. Hits emit
// no engine.routine span, traced or not: spans count executions.

// window is the validity window of a routine invocation: the instants
// [lo, hi) ∋ t at which it provably does what it does at t. A MAX clone
// reads its instant only in the translator's point predicates on the
// temporal tables of its own queries and as the instant of nested
// clones, so the window starts unbounded and narrows where such rows
// become a source and where a nested invocation ends or is answered
// from the memo (DESIGN §5). An invocation that is not sliced — any other
// routine, a clone that lost its mark — has no instant; its window only
// records, by being bounded, that it read temporal rows.
type window struct {
	lo, hi int64
	t      int64
	sliced bool
}

// unbounded is the window every invocation starts with.
var unbounded = window{lo: math.MinInt64, hi: math.MaxInt64}

func (w *window) narrow(lo, hi int64) { w.lo, w.hi = max(w.lo, lo), min(w.hi, hi) }

// collapse gives up on all but the instant (0 when not sliced: it only
// matters then that w is bounded).
func (w *window) collapse() { w.narrow(w.t, w.t+1) }

// meet folds the window c of a nested invocation into w: one sliced at
// w's instant narrows it, any other that read temporal rows collapses it.
func (w *window) meet(c window) {
	switch {
	case w == nil || (c.lo == unbounded.lo && c.hi == unbounded.hi):
	case w.sliced && c.sliced && w.t == c.t:
		w.narrow(c.lo, c.hi)
	default:
		w.collapse()
	}
}

// source narrows w for rows of t becoming a query source: by the period
// endpoints of the rows ords alone when a hash-index probe chose them
// (it does not read the instant), else by t's constant period.
func (w *window) source(t *storage.Table, probed bool, ords []int) {
	switch {
	case w == nil || !(t.ValidTime || t.TransactionTime):
	case !w.sliced:
		w.collapse()
	case probed:
		for _, o := range ords {
			for _, v := range t.Rows[o][t.BeginCol():] {
				if !v.IsInstant() {
					w.collapse()
				} else if v.I <= w.t {
					w.lo = max(w.lo, v.I)
				} else {
					w.hi = min(w.hi, v.I)
				}
			}
		}
	default:
		w.narrow(t.ConstantPeriod(w.t))
	}
}

// window returns the window of the invocation ctx runs in, nil outside.
func (ctx *execCtx) window() *window {
	if a := ctx.act; a != nil && a.r != nil {
		return &a.w
	}
	return nil
}

// fnMemoCap bounds one statement's memo, counting every entry and every
// row of a held table; overflow wipes wholesale. A cleared memo keeps
// its arrays only if they held at most fnMemoKeep entries, so that
// clearing a map costs no more than that; larger ones go to the GC.
const (
	fnMemoCap  = 1 << 16
	fnMemoKeep = 1 << 12
)

// memoEntry is one link of a key's chain: a value, the window it holds
// for, and the position (+1) in fnMemoState.chain of the key's previous entry.
type memoEntry struct {
	lo, hi int64
	v      types.Value
	prev   int
}

type fnMemoState struct {
	gen   int64  // generation of shared state the entries were computed at
	held  int    // entries plus rows of held tables
	wipes int64  // stores that found it empty or full (store)
	ids   keyIDs // the keys, interned in its arena when first stored
	heads []int  // by key's id, the position (+1) in chain of its latest entry
	chain []memoEntry
}

// sharedGen advances with every write to shared state: DML on a table
// of the catalog through this session, and DDL on the catalog.
func (db *DB) sharedGen() int64 { return db.writeGen + db.Cat.Version() }

// sync wipes entries that predate a write to shared state.
func (ms *fnMemoState) sync(db *DB) {
	if g := db.sharedGen(); ms.gen != g {
		ms.reset()
		ms.gen = g
	}
}

// reset drops every entry, and the arrays — the keys' arena with them —
// if they held more than fnMemoKeep.
func (ms *fnMemoState) reset() {
	if len(ms.chain) > fnMemoKeep {
		ms.ids, ms.heads, ms.chain = keyIDs{}, nil, nil
	}
	ms.ids.reset(fnMemoKeep)
	clear(ms.chain)
	ms.heads, ms.chain, ms.held = ms.heads[:0], ms.chain[:0], 0
}

// lookup returns key's entry for a call under w (else nil): the one
// holding w's instant (latest first: periods come in order), the only
// one if unsliced.
func (ms *fnMemoState) lookup(db *DB, key []byte, w window) *memoEntry {
	ms.sync(db)
	id, ok := ms.ids.m[string(key)]
	if !ok {
		return nil
	}
	for i := ms.heads[id]; i > 0; i = ms.chain[i-1].prev {
		if e := &ms.chain[i-1]; !w.sliced || (e.lo <= w.t && w.t < e.hi) {
			return e
		}
	}
	return nil
}

// store adds v, computed under window w, to key's chain; a new key is
// copied into the memo's own arena (keyIDs.id).
func (ms *fnMemoState) store(db *DB, key []byte, w window, v types.Value) {
	ms.sync(db)
	if len(ms.chain) == 0 || ms.held >= fnMemoCap {
		ms.wipes++
		ms.reset()
	}
	id, fresh := ms.ids.id(key)
	if fresh {
		ms.heads = append(ms.heads, 0)
	}
	ms.chain = append(ms.chain, memoEntry{lo: w.lo, hi: w.hi, v: v, prev: ms.heads[id]})
	ms.heads[id] = len(ms.chain)
	ms.held++
	if t := tableOf(v); t != nil {
		ms.held += len(t.Rows)
	}
}

// verdict is a conjunct's outcome on a row, shared by the periods
// beginning in [lo, hi), the meet of its calls' answer windows, while the
// memo holds those answers (by none when zeroed; DESIGN §5 item 23).
type verdict struct {
	at     int // the probe step's candidate it was decided on
	lo, hi int64
	era    int64  // the memo's when it was decided
	calls  [2]int // its calls' routines: db.calls[calls[0]:calls[1]]
	ok     bool   // TRUE
}

// era moves with every write to shared state and every wipe: what the
// memo answered in another era it may no longer hold.
func (ms *fnMemoState) era(db *DB) int64 { return db.sharedGen() + ms.wipes }

// answered notes, while a verdict is decided (pipe.test), a call its
// conjunct makes itself. One not sliced at the period (a clone redefined
// since the plan was laid out), or whose answer the memo does not keep,
// collapses the verdict's window.
func (db *DB) answered(ctx *execCtx, u *routineUse, w window, kept bool) {
	if db.deciding == ctx.depth+1 {
		db.decided.meet(w)
		if !kept || !w.sliced || w.t != db.decided.t {
			db.decided.collapse()
		}
		db.calls = append(db.calls, u)
	}
}

// reuse counts the calls a shared verdict stands for as the memo hits
// they would be.
func (db *DB) reuse(v *verdict) {
	for _, u := range db.calls[v.calls[0]:v.calls[1]] {
		db.noteRoutineCall(u)
		db.Stats.RoutineMemoHits++
		db.Stats.ReusedCalls++
	}
}

// memoizable reports whether a call may be answered from the memo: not
// when the routine writes shared state (!pure), an argument is a table
// (whose contents a key cannot capture), or the result is a collection
// anywhere but at a FROM source (fromSite).
func memoizable(r *storage.Routine, pure bool, args []types.Value, fromSite bool) bool {
	if r.Fn == nil || (r.Fn.Returns.IsCollection() && !fromSite) || !pure {
		return false
	}
	for _, v := range args {
		if v.Kind == types.KindTable {
			return false
		}
	}
	return true
}

// appendMemoKey appends the memo key of a memoizable call to buf,
// leaving out args[skip] (the instant of a sliced call; else -1).
func appendMemoKey(buf []byte, r *storage.Routine, args []types.Value, skip int) []byte {
	buf = append(append(buf, r.Name...), 0)
	for i, v := range args {
		if i != skip {
			buf = appendKey(buf, v)
		}
	}
	return buf
}

// purity is one routinePure verdict with what it was derived from: the
// routines and tables the effect analysis consulted.
type purity struct {
	pure bool
	deps *storage.Deps
}

// routinePure reports whether a routine writes no shared state: no DML
// against stored tables, no DDL on the catalog, and only such routines
// called, transitively. The verdict is the interprocedural effect
// summary's (Summary.SharedWriteFree), the one EXPLAIN's routine_memo
// row reports as well. Verdicts are cached by lowercased routine
// name for as long as their dependency set holds (storage.Deps):
// unrelated DDL re-pins the verdict instead of recomputing it, while
// redefining the routine or any callee invalidates it (CREATE OR
// REPLACE installs a new *storage.Routine). The cache is a sync.Map
// because concurrent statements share it through their session handles.
func (db *DB) routinePure(r *storage.Routine) bool {
	key := strings.ToLower(r.Name)
	if v, ok := db.fnPure.Load(key); ok {
		if p := v.(purity); p.deps.Valid(db.Cat) {
			return p.pure
		}
	}
	deps := storage.NewDeps(db.Cat)
	sum := core.SummarizeRoutine(db.Cat, r.Name)
	deps.Pin(db.Cat, sum.Routines, sum.Tables)
	pure := sum.SharedWriteFree()
	db.fnPure.Store(key, purity{pure: pure, deps: deps})
	return pure
}

// RoutinePure reports whether the named stored routine writes no shared
// state, or false when no such routine exists.
func (db *DB) RoutinePure(name string) bool {
	r := db.Cat.Routine(name)
	if r == nil {
		return false
	}
	return db.routinePure(r)
}
