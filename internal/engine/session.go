package engine

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"weak"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
)

// NewSession returns an evaluation session: a DB handle sharing this
// database's catalog, plan cache, configuration, clock, and tracer
// (inherited), but with its own zeroed Stats. Sessions make the read path
// re-entrant — any number of sessions may evaluate queries concurrently
// over the shared catalog (writers still need exclusive access) — and
// their Stats act as per-statement journals that the caller merges with
// Stats.Merge. Opening a session reads no counter: it may race a statement
// that is finishing. Its stacks are the ones a session last gave back
// (Release), while the database keeps them: so a database whose statements
// run one at a time reuses one set of stacks from one statement to the
// next. The caller releases the session when it is done; a session it
// drops instead leaves its stacks to the GC, and the next session grows
// its own.
func (db *DB) NewSession() *DB {
	sc := db.scratch
	sc.mu.Lock()
	var st *stacks
	if n := len(sc.free); n > 0 {
		st, sc.free[n-1], sc.free = sc.free[n-1], nil, sc.free[:n-1]
	}
	sc.idle = 0
	sc.mu.Unlock()
	if st == nil {
		st = &stacks{}
	}
	return &DB{inherited: db.inherited, stacks: st, uses: map[*storage.Routine]*routineUse{}}
}

// Release gives the session's stacks back to the database, for the next
// session to take. The session evaluates nothing after it; its Stats
// stay readable. Nothing a statement returned aliases the stacks (DESIGN
// §15), so its results outlive the session.
func (db *DB) Release() {
	st := db.stacks
	if st == nil {
		return
	}
	if st.acts.n != 0 || st.sides.n != 0 {
		// Every call, block, level and join pops what it pushed, on every
		// path: a statement that ends has nothing left on these stacks.
		panic(fmt.Sprintf("engine: Release with %d activations and %d build sides pushed", st.acts.n, st.sides.n))
	}
	db.pop(stackTop{})
	st.keyBuf, st.ordBuf = st.keyBuf[:0], st.ordBuf[:0]
	st.journal.reset()
	db.stacks = nil
	sc := db.scratch
	sc.mu.Lock()
	sc.free = append(sc.free, st)
	sc.mu.Unlock()
}

// StackJournal makes the journal on the session's stacks its Journal and
// returns it: Release empties it and hands its array to the next session.
func (db *DB) StackJournal() *Journal {
	db.Journal = &db.stacks.journal
	return db.Journal
}

// scratch is where sessions leave their stacks when they are done: one set
// for a database whose statements run one at a time, one more for each
// statement running beside another; a session takes the set released last.
// The GC bounds them (ageScratch), so a database gone idle does not keep
// the stacks its largest statement grew, and only collections that find a
// set here count, so the sets of a database in use are never dropped
// between two statements: what one allocates does not depend on where the
// GC's cycles fell.
type scratch struct {
	mu   sync.Mutex
	free []*stacks
	idle int // collections that found sets here since a session opened
}

const idleCollections = 4 // the sets' lifetime with no session opening

func newScratch() *scratch {
	s := &scratch{}
	ageScratch(weak.Make(s))
	return s
}

// ageScratch runs after each collection for as long as the database
// lives: it drops the sets once idleCollections have found them. It hangs
// on an object unreachable at once, which holds a pointer to stay off the
// tiny allocator (whose blocks a collection may keep).
func ageScratch(w weak.Pointer[scratch]) {
	runtime.AddCleanup(new(*byte), func(w weak.Pointer[scratch]) {
		s := w.Value()
		if s == nil {
			return
		}
		s.mu.Lock()
		if len(s.free) > 0 {
			if s.idle++; s.idle >= idleCollections {
				s.free, s.idle = nil, 0
			}
		}
		s.mu.Unlock()
		ageScratch(w)
	}, w)
}

// LoadAfresh makes this session, and the sessions made from it, load
// every source by scanning it — no plan's source memo (srcMemo) is read
// or filled: the reference execution the tests compare memo-served
// results against. Nothing but tests calls it.
func (db *DB) LoadAfresh() { db.freshLoads = true }

// SetVerdictReuse lets this session, and the sessions made from it,
// share a conjunct's verdict over a run of constant periods (pipe.test),
// or — off — test every conjunct on every period: the reference
// execution the tests compare sharing against. Nothing but tests calls
// it.
func (db *DB) SetVerdictReuse(on bool) { db.noVerdicts = !on }

// Merge folds a session's journal into s.
func (s *Stats) Merge(d Stats) {
	s.RoutineCalls += d.RoutineCalls
	s.RoutineMemoHits += d.RoutineMemoHits
	s.ReusedCalls += d.ReusedCalls
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
// shared catalog — the key to cache stability (no DDL churn per
// statement) and to concurrent statements, each with its own periods.
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
// the next benchmark PR drops all three (ROADMAP item 2).
type Prepared struct{}

func NewPrepared() *Prepared { return &Prepared{} }

func (db *DB) ExecPreparedWithTables(_ *Prepared, stmt sqlast.Stmt, tables map[string]*storage.Table) (*Result, error) {
	return db.ExecStmtWithTables(stmt, tables)
}
