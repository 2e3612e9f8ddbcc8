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
// per (tuple, constant period), and the argument vectors repeat
// heavily — every tuple of one period shares the period's begin time,
// and foreign keys repeat across tuples. When a function is pure
// (reads SQL data but never writes it), two invocations with equal
// arguments must return equal results, so the engine keeps a
// per-statement memo of (function, arguments) → result.
//
// Scope and invalidation: the memo lives for one top-level statement
// (each statement starts with a fresh fnMemoState), and any DML or DDL
// executed during the statement bumps the session's write generation,
// wiping it. Memo hits still count as RoutineCalls — they are logical
// invocations, and the strategy call-count asymmetry the stats exist
// to demonstrate must stay observable — and are additionally counted
// in RoutineMemoHits. Detailed mode (a tracer) bypasses the memo so
// per-invocation spans remain real executions.

// fnMemoCap bounds one statement's memo; overflow wipes wholesale.
const fnMemoCap = 1 << 16

type fnMemoState struct {
	gen int64 // session write generation the entries were computed at
	m   map[string]types.Value
}

// lookup returns the cached result for key, wiping entries that
// predate a write.
func (ms *fnMemoState) lookup(db *DB, key []byte) (types.Value, bool) {
	if ms.gen != db.writeGen {
		ms.m = nil
		ms.gen = db.writeGen
	}
	v, ok := ms.m[string(key)]
	return v, ok
}

func (ms *fnMemoState) store(db *DB, key string, v types.Value) {
	if ms.gen != db.writeGen {
		ms.m = nil
		ms.gen = db.writeGen
	}
	if ms.m == nil || len(ms.m) >= fnMemoCap {
		ms.m = make(map[string]types.Value)
	}
	ms.m[key] = v
}

// appendMemoKey appends the memo key of a call to buf; ok=false when
// the call is not memoizable (impure routine, or a table-valued
// argument, whose contents the key cannot capture).
func (db *DB) appendMemoKey(buf []byte, r *storage.Routine, args []types.Value) (key []byte, ok bool) {
	if r.Fn == nil || r.Fn.Returns.IsCollection() || !db.routinePure(r) {
		return buf, false
	}
	for _, v := range args {
		if v.Kind == types.KindTable {
			return buf, false
		}
	}
	return appendKey(append(append(buf, r.Name...), 0), args...), true
}

// purity is one routinePure verdict. The persistent catalog version is
// a fast-path stamp; on mismatch the verdict revalidates against its
// dependency set — the routines and table names the effect analysis
// consulted — and re-pins if none changed.
type purity struct {
	catV     int64
	pure     bool
	routines map[string]*storage.Routine // consulted routine -> identity at analysis
	tables   map[string]bool             // consulted table name -> existed
}

// depsValid reports whether the recorded dependency set still resolves
// identically: every consulted routine is the same object (PutRoutine
// keeps the pointer when a redefinition renders identically), and every
// consulted table name still (or still doesn't) name a stored table.
func (db *DB) depsValid(routines map[string]*storage.Routine, tables map[string]bool) bool {
	for name, ptr := range routines {
		if db.Cat.Routine(name) != ptr {
			return false
		}
	}
	for name, existed := range tables {
		if (db.Cat.Table(name) != nil) != existed {
			return false
		}
	}
	return true
}

// analysisDeps snapshots the dependency set of an effect summary
// against the live catalog, for later revalidation.
func (db *DB) analysisDeps(sum *check.Summary) (map[string]*storage.Routine, map[string]bool) {
	routines := make(map[string]*storage.Routine, len(sum.Routines))
	for name := range sum.Routines {
		routines[name] = db.Cat.Routine(name)
	}
	tables := make(map[string]bool, len(sum.Tables))
	for name, existed := range sum.Tables {
		tables[name] = existed
	}
	return routines, tables
}

// routinePure reports whether a routine is free of SQL side effects:
// no DML against stored tables, no DDL, and only pure routines called,
// transitively. The verdict itself comes from the static analyzer
// (check.Pure), the single source of truth for effect inference.
// Verdicts are cached by lowercased routine name with two-level
// invalidation: a matching persistent catalog version accepts
// immediately, and a mismatched one falls back to the verdict's
// inferred dependency set (the routines and tables the analysis
// consulted) — unrelated DDL re-pins the verdict instead of
// recomputing it, while redefining the routine or any callee misses
// both levels (CREATE OR REPLACE installs a new *storage.Routine).
// The cache is a sync.Map because parallel fragment workers share it
// through their session handles.
func (db *DB) routinePure(r *storage.Routine) bool {
	catV := db.Cat.PersistentVersion()
	key := strings.ToLower(r.Name)
	if v, ok := db.fnPure.Load(key); ok {
		p := v.(purity)
		if p.catV == catV {
			return p.pure
		}
		if db.depsValid(p.routines, p.tables) {
			p.catV = catV
			db.fnPure.Store(key, p)
			return p.pure
		}
	}
	cat := check.FromStorage(db.Cat)
	pure := check.Pure(cat, r.Name)
	routines, tables := db.analysisDeps(check.SummarizeRoutine(cat, r.Name))
	db.fnPure.Store(key, purity{catV: catV, pure: pure, routines: routines, tables: tables})
	return pure
}

// RoutinePure reports whether the named stored routine is free of SQL
// side effects, or false when no such routine exists.
func (db *DB) RoutinePure(name string) bool {
	r := db.Cat.Routine(name)
	if r == nil {
		return false
	}
	return db.routinePure(r)
}
