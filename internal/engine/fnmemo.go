package engine

import (
	"strings"

	"taupsm/internal/check"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// Function-result memoization.
//
// The slicing strategies of the stratum invoke stored functions once
// per (tuple, constant period) under MAX and once per satisfying tuple
// under PERST, and the argument vectors repeat heavily — every tuple of
// one period shares the period's begin time, PERST's period arguments
// are the same constants for every tuple, and foreign keys repeat
// across tuples. When a function writes no shared state, two
// invocations with equal arguments must return equal results, so the
// engine keeps a per-statement memo of (function, arguments) → result.
//
// What is keyed: the routine name and its scalar arguments
// (appendMemoKey); a table-valued argument disqualifies the call, since
// the key cannot capture its contents. What is held: a scalar result,
// or — for a collection-returning function invoked as a FROM source,
// TABLE(f(..)) — the table the call returned, uncopied. That site only
// ever binds the table's rows into the row scope, where they are read
// and never written, and the frame that built the table is gone; at
// every other site (SET v = f(..), an argument, RETURN f(..)) the
// caller receives the table itself and may change it in place, so
// collection results are neither looked up nor stored there.
//
// Scope and invalidation: the memo lives for one top-level statement
// (each statement starts with a fresh fnMemoState), and a write to
// shared state during the statement — DML on a table of the catalog, or
// DDL on the catalog — advances the generation it is valid for
// (sharedGen), wiping it. DML on collection variables and on the
// temporary tables a routine creates for itself does not: no other
// invocation can observe it. Memo hits still count as RoutineCalls —
// they are logical invocations, and the strategy call-count asymmetry
// the stats exist to demonstrate must stay observable — and are
// additionally counted in RoutineMemoHits. A tracer changes nothing
// here: hits emit no engine.routine span, so spans count executions.

// fnMemoCap bounds one statement's memo, counting every entry and every
// row of a held table; overflow wipes wholesale.
const fnMemoCap = 1 << 16

type fnMemoState struct {
	gen  int64 // generation of shared state the entries were computed at
	held int   // entries plus rows of held tables
	m    map[string]types.Value
}

// sharedGen advances with every write to shared state: DML on a table
// of the catalog through this session, and DDL on the catalog.
func (db *DB) sharedGen() int64 { return db.writeGen + db.Cat.Version() }

// sync wipes entries that predate a write to shared state.
func (ms *fnMemoState) sync(db *DB) {
	if g := db.sharedGen(); ms.gen != g {
		ms.m, ms.held, ms.gen = nil, 0, g
	}
}

// lookup returns the cached result for key.
func (ms *fnMemoState) lookup(db *DB, key []byte) (types.Value, bool) {
	ms.sync(db)
	v, ok := ms.m[string(key)]
	return v, ok
}

func (ms *fnMemoState) store(db *DB, key string, v types.Value) {
	ms.sync(db)
	if ms.m == nil || ms.held >= fnMemoCap {
		ms.m, ms.held = make(map[string]types.Value), 0
	}
	ms.m[key] = v
	ms.held++
	if t, ok := v.Aux.(*storage.Table); ok {
		ms.held += len(t.Rows)
	}
}

// appendMemoKey appends the memo key of a call to buf; ok=false when
// the call is not memoizable: a routine that writes shared state, a
// table-valued argument (whose contents the key cannot capture), or a
// collection result anywhere but at a FROM source (fromSite).
func (db *DB) appendMemoKey(buf []byte, r *storage.Routine, args []types.Value, fromSite bool) (key []byte, ok bool) {
	if r.Fn == nil || (r.Fn.Returns.IsCollection() && !fromSite) || !db.routinePure(r) {
		return buf, false
	}
	for _, v := range args {
		if v.Kind == types.KindTable {
			return buf, false
		}
	}
	return appendKey(append(append(buf, r.Name...), 0), args...), true
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
// summary's (Summary.SharedWriteFree), the one the stratum's parallel
// gate rests on as well. Verdicts are cached by lowercased routine
// name for as long as their dependency set holds (storage.Deps):
// unrelated DDL re-pins the verdict instead of recomputing it, while
// redefining the routine or any callee invalidates it (CREATE OR
// REPLACE installs a new *storage.Routine). The cache is a sync.Map
// because parallel fragment workers share it through their session
// handles.
func (db *DB) routinePure(r *storage.Routine) bool {
	key := strings.ToLower(r.Name)
	if v, ok := db.fnPure.Load(key); ok {
		if p := v.(purity); p.deps.Valid(db.Cat) {
			return p.pure
		}
	}
	deps := storage.NewDeps(db.Cat)
	sum := check.SummarizeRoutine(check.FromStorage(db.Cat), r.Name)
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
