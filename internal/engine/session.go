package engine

import (
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
)

// NewSession returns an evaluation session: a DB handle sharing this
// database's catalog, plan cache, configuration, clock, and tracer
// (inherited), but with its own zeroed Stats. Sessions make the read path
// re-entrant — any number of sessions may evaluate queries
// concurrently over the shared catalog (writers still need exclusive
// access) — and their Stats act as per-worker journals that the
// caller merges deterministically with Stats.Merge. Opening a session
// reads no counter: it may race a statement that is finishing.
func (db *DB) NewSession() *DB {
	return &DB{inherited: db.inherited, uses: map[*storage.Routine]*routineUse{}}
}

// LoadAfresh makes this session, and the sessions made from it, load
// every source by scanning it — no plan's source memo (srcMemo) is read
// or filled: the reference execution the tests compare memo-served
// results against. Nothing but tests calls it.
func (db *DB) LoadAfresh() { db.freshLoads = true }

// KeepMemo makes the statements this session executes from now on share
// one function memo: for a session that lives for one write-free user
// statement run as several engine calls (a parallel MAX worker's chunks)
// and no longer — only its own writes invalidate the memo (sharedGen).
func (db *DB) KeepMemo() { db.kept = db.newFnMemo() }

// Merge folds a session's journal into s.
func (s *Stats) Merge(d Stats) {
	s.RoutineCalls += d.RoutineCalls
	s.RoutineMemoHits += d.RoutineMemoHits
	s.RowsScanned += d.RowsScanned
	s.RowsReturned += d.RowsReturned
	s.Statements += d.Statements
	s.LogWrites += d.LogWrites
	s.IntervalProbes += d.IntervalProbes
	s.PlanReuseHits += d.PlanReuseHits
}

// ExecStmtWithTables executes one statement with the given tables
// bound as table-valued variables, shadowing catalog tables of the
// same name. The stratum uses this to hand each evaluation session
// its own constant-period relation (taupsm_cp) without touching the
// shared catalog — the key to both cache stability (no DDL churn per
// statement) and parallel fragment evaluation (each worker sees only
// its chunk of the periods).
func (db *DB) ExecStmtWithTables(stmt sqlast.Stmt, tables map[string]*storage.Table) (*Result, error) {
	frame := &varFrame{}
	for name, t := range tables {
		frame.bind(tableBinding(strings.ToLower(name), t))
	}
	ctx := &execCtx{db: db, vars: frame, memo: db.newFnMemo(), journal: db.Journal}
	return db.execTop(ctx, stmt)
}

// Prepared, NewPrepared and ExecPreparedWithTables are bench-only:
// bench/trace.go still names them. What a Prepared held lives on the
// plan (srcMemo), so it carries nothing and the argument is ignored;
// the next benchmark PR drops all three (ROADMAP item 5).
type Prepared struct{}

func NewPrepared() *Prepared { return &Prepared{} }

func (db *DB) ExecPreparedWithTables(_ *Prepared, stmt sqlast.Stmt, tables map[string]*storage.Table) (*Result, error) {
	return db.ExecStmtWithTables(stmt, tables)
}
