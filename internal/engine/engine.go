// Package engine implements the conventional SQL/PSM execution engine
// that transformed (conventional) statements run on: a relational
// evaluator with predicate pushdown and hash joins whose expressions are
// compiled to closures when a statement is planned (compile.go), DML and
// DDL execution, and a PSM interpreter for stored routines (compound
// blocks, control statements, cursors, handlers, and the table-valued
// variables per-statement slicing relies on).
//
// The engine deliberately speaks only conventional SQL/PSM: temporal
// statement modifiers are rejected here and must be removed by the
// stratum (internal/core) first, exactly as a stratum sits above the
// query evaluator in the paper's architecture (§III).
package engine

import (
	"fmt"
	"sync"
	"time"

	"taupsm/internal/obs"
	"taupsm/internal/proc"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/stats"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// Stats counts engine work, letting benchmarks and tests observe the
// behavioural difference between slicing strategies (e.g. MAX invoking
// a routine once per constant period versus PERST invoking it once per
// satisfying tuple).
type Stats struct {
	// RoutineCalls counts stored routine invocations, logically: a memo
	// hit is one, though the calls nested in the execution it stands for
	// are not counted again.
	RoutineCalls    int64
	RoutineMemoHits int64 // invocations answered from the function-result memo
	ReusedCalls     int64 // of those, answered by a conjunct verdict shared over a run of constant periods (verdict)
	RowsScanned     int64 // base-table rows visited by scans and lookups
	RowsReturned    int64 // rows produced by executed query statements
	Statements      int64 // statements executed (including PSM statements)
	LogWrites       int64 // rows appended to tables (models DBMS log pressure)
	IntervalProbes  int64 // temporal overlap-index stab queries answered
	PlanReuseHits   int64 // relations and hash tables served from a source's memo (srcMemo)
	SweepJoins      int64 // never incremented; bench/trace.go still reads it and drops it with its engine.sweep_joins metric
}

// Reset zeroes the counters.
func (s *Stats) Reset() { *s = Stats{} }

// DB is an in-memory SQL/PSM database, or a session of one (NewSession):
// what a session has in common with the database it was made from
// (inherited), and the state of its own.
type DB struct {
	inherited
	Stats Stats

	// routineNS caches the engine.routine_ns histogram handle.
	routineNS *obs.Histogram

	uses       map[*storage.Routine]*routineUse
	keyedScans int64 // scans whose candidates a join's keys chose (pipe.byKeys); the pipeline oracle reads it

	*stacks // the session's scratch (NewSession, Release)
}

// stacks is a session's scratch, each used as a stack: an evaluation
// pushes above what the evaluations it is nested in pushed, reads its
// part, and pops back to where it started. A session takes them from the
// database's pool (NewSession) and gives them back when it is done
// (Release), so they keep their arrays from one statement to the next.
type stacks struct {
	// keyBuf holds composite map keys (appendKey, keyOf).
	keyBuf []byte

	// ordBuf holds interval-index candidates (a scan's, a stab join's): a
	// scan appends its candidates, reads them while the scans nested in
	// its pushdown conjuncts and in the steps its rows pass append and
	// truncate above it, and truncates back.
	ordBuf []int

	// rowBuf and valBuf hold the rows of the queries being evaluated,
	// each above the ones it is nested in (pushQuery): a row's values are
	// written once onto valBuf, and rowBuf holds its header.
	rowBuf [][]types.Value
	valBuf []types.Value

	// acts holds the activations of the calls, blocks and query levels
	// running (popActs), sides the build sides of the joins running, each
	// with its hash table, where their source's memo does not keep them
	// (loadSource, popSides).
	acts  pile[activation]
	sides pile[rel]

	// verdicts holds the verdicts a tuple-major execution shares over a
	// run of periods (pipe.test), calls their calls' routines; deciding is
	// the depth (+1) of the one being decided, its calls met into decided.
	verdicts []verdict
	calls    []*routineUse
	deciding int
	decided  window

	// journal is StackJournal's; spares the tables calls left (bury);
	// memo the function memo's arrays (newFnMemo).
	journal Journal
	spares  spares
	memo    fnMemoState
}

// pile is a stack of objects reused in place: the first n are in use,
// and the ones above keep their arrays for the next push at their height.
// Each is an object of its own, so a pointer to it stays valid while it
// is pushed.
type pile[T any] struct {
	all []*T
	n   int
}

// push makes the object above the top — new on the first push to its
// height — the top, and returns it.
func (p *pile[T]) push() *T {
	if p.n == len(p.all) {
		p.all = append(p.all, new(T))
	}
	p.n++
	return p.all[p.n-1]
}

// inherited is what NewSession hands a session: the database's shared
// objects and configuration, and the per-statement settings (Proc, Trace,
// Journal) a session passes on to the sessions made from it. NewSession
// copies it whole and nothing else, so it never reads the counters a
// finishing statement is merging into.
type inherited struct {
	Cat *storage.Catalog

	// Tracer, when non-nil, receives an "engine.query" span per
	// executed query statement and an "engine.routine" span per stored
	// routine execution (invocations the function-result memo answers
	// execute nothing and emit none). Hot paths nil-check it first, so
	// the disabled cost is one pointer comparison.
	Tracer obs.Tracer

	// Trace is the span context engine spans attach under: spans carry
	// Trace.Trace as their trace ID and Trace.Span as their parent. The
	// stratum sets it per session (per statement); the zero value emits
	// root spans, preserving the pre-trace behavior for direct engine
	// use.
	Trace obs.SpanContext

	// Metrics, when set alongside Tracer, additionally receives
	// routine-invocation latencies in the engine.routine_ns histogram.
	// The stratum shares its registry here.
	Metrics *obs.Metrics

	// Proc, when set on a session, is the record of the user statement
	// this session executes (its process-list entry): the engine mirrors
	// batched progress counters (rows scanned, rows returned, routine
	// calls) into it and polls its kill switch at statement, scan and
	// routine boundaries for cooperative cancellation. Sessions opened
	// from it inherit the same entry through NewSession. Every mirror is
	// nil-receiver safe; nil disables tracking.
	Proc *proc.Process

	// Procs is the shared in-flight process registry backing the
	// tau_stat_activity system table.
	Procs *proc.Registry

	// TabStats is the table and workload statistics registry shared by
	// every session of this database: the stratum folds each committed
	// statement's effects into its table histories, and stored-routine
	// invocations are profiled by name.
	TabStats *stats.Registry

	// Now is the engine's CURRENT_DATE in epoch days. Fixing it makes
	// current-semantics results deterministic in tests.
	Now int64

	// DisableIndexes turns off the hash and interval indexes, forcing
	// full scans for equality and overlap lookups: none is built, and the
	// tables' writes have none to maintain. Ablation switch.
	DisableIndexes bool

	// DisableFnMemo turns off per-statement memoization of the results,
	// scalar and collection, of stored functions that write no shared
	// state (see fnmemo.go). Ablation switch.
	DisableFnMemo bool

	// plans caches the analysis phase of SELECT evaluation, shared by
	// all sessions of this database (see selPlan).
	plans *planCache

	// fnPure caches routine-purity verdicts, shared by all sessions.
	fnPure *sync.Map

	// scratch holds the stacks of sessions that are done (Release), for
	// the next session to take.
	scratch *scratch

	// Journal, when set on a session, collects the undo/redo records of
	// every statement the session executes, letting the stratum treat a
	// whole user statement — which a sequenced translation expands into
	// several engine statements — as one atomic, loggable unit. When
	// nil, each top-level statement still gets a private journal so a
	// failed statement rolls back its partial writes.
	Journal *Journal

	// writeGen counts the row changes DML made through this session to
	// tables of the catalog (wrote). With the catalog's version, which
	// counts the DDL, it is the generation of shared state the
	// function-result memo is valid for (sharedGen).
	writeGen int64

	freshLoads bool // the tests' reference execution (LoadAfresh)
	noVerdicts bool // the tests' reference execution (SetVerdictReuse)

	// invokeByName, when set — only tests set it — runs a routine's body
	// the way the interpreter did before slots: in frames each block
	// binds as it runs, searched by name (resolver_reference_test.go).
	invokeByName func(db *DB, ctx *execCtx, r *storage.Routine, name string, u *routineUse, w window, args []types.Value) (*activation, flow, error)
}

// New returns an empty database with CURRENT_DATE set to the real
// current date.
func New() *DB {
	now := time.Now().UTC()
	return &DB{
		inherited: inherited{
			Cat:      storage.NewCatalog(),
			Now:      types.CivilToDays(now.Year(), int(now.Month()), now.Day()),
			plans:    newPlanCache(),
			fnPure:   &sync.Map{},
			scratch:  newScratch(),
			TabStats: stats.NewRegistry(),
		},
		stacks: &stacks{},
		uses:   map[*storage.Routine]*routineUse{},
	}
}

// Result is the outcome of executing one statement.
type Result struct {
	Cols     []string
	Rows     [][]types.Value
	Affected int
}

// ExecScript parses and executes a semicolon-separated script,
// returning the result of the last statement.
func (db *DB) ExecScript(src string) (*Result, error) {
	stmts, err := sqlparser.ParseScript(src)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, s := range stmts {
		last, err = db.ExecStmt(s)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// ExecStmt executes one (conventional) statement.
func (db *DB) ExecStmt(stmt sqlast.Stmt) (*Result, error) {
	ctx := &execCtx{db: db, memo: db.newFnMemo(), journal: db.Journal}
	return db.execTop(ctx, stmt)
}

// execTop runs one top-level statement with statement atomicity: on
// error, every change journaled after entry is undone, so a statement
// failing mid-scan (an UPDATE whose SET expression divides by zero on
// the Nth row, say) leaves no partial writes behind.
func (db *DB) execTop(ctx *execCtx, stmt sqlast.Stmt) (*Result, error) {
	if ctx.journal == nil {
		ctx.journal = NewJournal()
	}
	m := ctx.journal.mark()
	res, err := db.exec(ctx, stmt)
	if ctx.memo != nil { // its entries die with the statement
		ctx.memo.reset()
	}
	for r, u := range db.uses { // the workload profile hears of the routine calls now
		db.TabStats.NoteRoutineCalls(r.Name, u.calls)
	}
	clear(db.uses)
	if err != nil {
		ctx.journal.rollbackTo(m)
	}
	return res, err
}

// newFnMemo returns the function-result memo of a statement starting,
// empty, on the session's arrays, or nil when memoization is ablated. A
// tracer does not turn it off: a traced statement runs the plan an
// untraced one does, and an engine.routine span — emitted only after the
// lookup misses — is still a real execution.
func (db *DB) newFnMemo() *fnMemoState {
	if db.DisableFnMemo {
		return nil
	}
	ms := &db.memo
	ms.reset()
	*ms = fnMemoState{gen: db.sharedGen(), ids: ms.ids, heads: ms.heads, chain: ms.chain}
	return ms
}

func (db *DB) exec(ctx *execCtx, stmt sqlast.Stmt) (*Result, error) {
	if err := db.Proc.Killed(); err != nil {
		return nil, err
	}
	if db.Proc != nil {
		// Live journaled-change count: the user statement's changes
		// pending WAL commit, visible mid-statement in the process list.
		db.Proc.SetWALPending(int64(ctx.journal.Pending()))
	}
	db.Stats.Statements++
	switch s := stmt.(type) {
	case *sqlast.TemporalStmt:
		if s.Mod == sqlast.ModCurrent {
			return db.exec(ctx, s.Body)
		}
		return nil, fmt.Errorf("engine: temporal statement modifier %s reached the conventional engine; translate it with the stratum first", s.Mod)
	case *sqlast.SelectStmt:
		return db.execQuery(ctx, s)
	case *sqlast.SetOpExpr:
		return db.execQuery(ctx, s)
	case *sqlast.ExplainStmt:
		return nil, fmt.Errorf("engine: EXPLAIN reached the conventional engine; it is a stratum-level statement")
	case *sqlast.AnalyzeStmt:
		return nil, fmt.Errorf("engine: ANALYZE reached the conventional engine; it is a stratum-level statement")
	case *sqlast.InsertStmt:
		return ctx.affected(db.execInsert(ctx, s))
	case *sqlast.UpdateStmt:
		return ctx.affected(db.execUpdate(ctx, s))
	case *sqlast.DeleteStmt:
		return ctx.affected(db.execDelete(ctx, s))
	case *sqlast.CreateTableStmt:
		return db.execCreateTable(ctx, s)
	case *sqlast.DropTableStmt:
		// Inside a routine, a temporary table the routine created is
		// bound in a slot, not the shared catalog; dropping it just
		// unbinds the slot. Collection variables are not eligible, and
		// anything else falls through to the catalog.
		if ctx.depth > 0 {
			if b := ctx.refs(s)[0].find(ctx); b != nil {
				if t := tableOf(b.val); t != nil && t.Temporary {
					*b = slot{}
					return &Result{}, nil
				}
			}
		}
		old := db.Cat.Table(s.Name)
		if !db.Cat.DropTable(s.Name) && !s.IfExists {
			return nil, fmt.Errorf("table %s does not exist", s.Name)
		}
		journalDropTable(ctx.journal, db.Cat, old)
		return &Result{}, nil
	case *sqlast.CreateViewStmt:
		if s.Mod != sqlast.ModCurrent {
			return nil, fmt.Errorf("engine: temporal view %s reached the conventional engine", s.Name)
		}
		old := db.Cat.View(s.Name)
		db.Cat.PutView(&storage.View{Name: s.Name, Cols: s.Cols, Query: s.Query, Mod: s.Mod})
		journalPutView(ctx.journal, db.Cat, old, s)
		return &Result{}, nil
	case *sqlast.DropViewStmt:
		old := db.Cat.View(s.Name)
		if !db.Cat.DropView(s.Name) && !s.IfExists {
			return nil, fmt.Errorf("view %s does not exist", s.Name)
		}
		journalDropView(ctx.journal, db.Cat, old)
		return &Result{}, nil
	case *sqlast.AlterAddValidTime:
		return db.execAddValidTime(ctx, s)
	case *sqlast.CreateFunctionStmt:
		return db.createRoutine(ctx, &storage.Routine{Kind: storage.KindFunction, Name: s.Name, Fn: s}, s.Replace)
	case *sqlast.CreateProcedureStmt:
		return db.createRoutine(ctx, &storage.Routine{Kind: storage.KindProcedure, Name: s.Name, Proc: s}, s.Replace)
	case *sqlast.DropRoutineStmt:
		old := db.Cat.Routine(s.Name)
		if !db.Cat.DropRoutine(s.Name) && !s.IfExists {
			return nil, fmt.Errorf("routine %s does not exist", s.Name)
		}
		journalDropRoutine(ctx.journal, db.Cat, old)
		return &Result{}, nil
	case *sqlast.CallStmt:
		return db.execCall(ctx, s)
	case *sqlast.CompoundStmt, *sqlast.SetStmt, *sqlast.IfStmt, *sqlast.CaseStmt,
		*sqlast.WhileStmt, *sqlast.RepeatStmt, *sqlast.LoopStmt, *sqlast.ForStmt,
		*sqlast.LeaveStmt, *sqlast.IterateStmt, *sqlast.ReturnStmt,
		*sqlast.OpenStmt, *sqlast.FetchStmt, *sqlast.CloseStmt, *sqlast.SignalStmt:
		if _, ok := stmt.(*sqlast.CompoundStmt); !ok && ctx.vars == nil && ctx.act == nil {
			return nil, fmt.Errorf("engine: PSM statement %T outside a routine body", stmt)
		}
		fl, err := db.execPSM(ctx, stmt)
		if err == nil {
			err = fl.escaped()
		}
		if err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
}

// affected is the result of a modification that wrote n rows: none in a
// routine body, where nothing reads it.
func (ctx *execCtx) affected(n int, err error) (*Result, error) {
	if err != nil || ctx.depth > 0 {
		return nil, err
	}
	return &Result{Affected: n}, nil
}

func (db *DB) execCreateTable(ctx *execCtx, s *sqlast.CreateTableStmt) (*Result, error) {
	// A temporary table created inside a routine is local to its block:
	// each invocation gets a private instance bound in the block's slot,
	// invisible to the shared catalog. This keeps routines that stage
	// intermediate results in temp tables free of shared writes (the
	// effect summary discounts such writes, so the function memo still
	// answers them) and scopes the table's lifetime to the block.
	local := s.Temporary && ctx.depth > 0
	t, err := db.newTable(ctx, s, local)
	switch {
	case err != nil:
		return nil, err
	case local:
		ctx.act.slots[ctx.refs(s)[0].slots[0]] = slot{val: newTableValue(t), kind: bindTable}
	default:
		db.Cat.PutTable(t)
		journalPutTable(ctx.journal, db.Cat, nil, t)
	}
	return &Result{Affected: len(t.Rows)}, nil
}

// newTable makes the table s creates, local or for the catalog. Its name
// is taken when it reaches a table bound in the routine or in the
// catalog; a table for the catalog's only in the catalog.
func (db *DB) newTable(ctx *execCtx, s *sqlast.CreateTableStmt, local bool) (*storage.Table, error) {
	name := ref{name: s.Name}
	if local {
		name = ctx.refs(s)[0]
	}
	if rel := db.resolve(ctx, &name); rel.kind == relLocal || rel.kind == relTable {
		return nil, fmt.Errorf("table %s already exists", s.Name)
	}
	var cols []storage.Column
	var rows [][]types.Value
	switch {
	case len(s.Cols) > 0:
		for _, c := range s.Cols {
			cols = append(cols, storage.Column{Name: c.Name, Type: c.Type})
		}
	case s.AsQuery != nil:
		res, err := db.evalQuery(ctx, s.AsQuery)
		if err != nil {
			return nil, err
		}
		for i, name := range res.Cols {
			k := types.KindString
			for _, r := range res.Rows {
				if !r[i].IsNull() {
					k = r[i].Kind
					break
				}
			}
			cols = append(cols, storage.Column{Name: name, Type: kindToType(k)})
		}
		if s.WithData {
			rows = res.Rows
		}
	}
	t := storage.NewTemporalTable(s.Name, cols, s.ValidTime, s.TransactionTime)
	t.Temporary = s.Temporary
	t.Restore(rows)
	return t, nil
}

func (db *DB) execAddValidTime(ctx *execCtx, s *sqlast.AlterAddValidTime) (*Result, error) {
	t := db.Cat.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("table %s does not exist", s.Table)
	}
	nt, err := storage.AddPeriod(t, s.Transaction)
	if err != nil {
		return nil, err
	}
	// Every existing row is valid, or believed, from now on.
	for _, r := range t.Rows {
		nr := append(append([]types.Value{}, r...), types.NewDate(db.Now), types.NewDate(types.Forever))
		if err := nt.Insert(nr); err != nil {
			return nil, err
		}
	}
	db.Cat.PutTable(nt)
	journalPutTable(ctx.journal, db.Cat, t, nt)
	return &Result{Affected: len(nt.Rows)}, nil
}

// createRoutine is CREATE FUNCTION / PROCEDURE. An identical
// re-registration is a no-op: PutRoutine keeps the entry, and nothing is
// journaled or logged.
func (db *DB) createRoutine(ctx *execCtx, r *storage.Routine, replace bool) (*Result, error) {
	old := db.Cat.Routine(r.Name)
	if old != nil && !replace {
		return nil, fmt.Errorf("routine %s already exists", r.Name)
	}
	if db.Cat.PutRoutine(r) {
		journalPutRoutine(ctx.journal, db.Cat, old, r.Name, r.SQL())
	}
	return &Result{}, nil
}

func kindToType(k types.Kind) sqlast.TypeName {
	switch k {
	case types.KindInt:
		return sqlast.TypeName{Base: "INTEGER"}
	case types.KindFloat:
		return sqlast.TypeName{Base: "FLOAT"}
	case types.KindDate:
		return sqlast.TypeName{Base: "DATE"}
	case types.KindBool:
		return sqlast.TypeName{Base: "BOOLEAN"}
	default:
		return sqlast.TypeName{Base: "VARCHAR"}
	}
}

// execQuery evaluates a query statement, counting rows returned and
// emitting an "engine.query" span when a tracer is attached.
func (db *DB) execQuery(ctx *execCtx, q sqlast.QueryExpr) (*Result, error) {
	if db.Tracer == nil {
		res, err := db.evalQuery(ctx, q)
		if err == nil {
			db.Stats.RowsReturned += int64(len(res.Rows))
			db.Proc.AddRows(int64(len(res.Rows)))
		}
		return res, err
	}
	start := time.Now()
	res, err := db.evalQuery(ctx, q)
	d := time.Since(start)
	rows := 0
	if err == nil {
		rows = len(res.Rows)
		db.Stats.RowsReturned += int64(rows)
		db.Proc.AddRows(int64(rows))
	}
	db.Tracer.Span(obs.Span{Name: "engine.query", Start: start, Dur: d,
		Trace: db.Trace.Trace, ID: obs.NewSpanID(), Parent: db.Trace.Span,
		Attrs: []obs.Attr{obs.AInt("rows", int64(rows))}})
	return res, err
}

// traceRoutine times one stored-routine invocation when a tracer is
// attached; it returns nil (for a one-branch fast path) otherwise. The
// per-invocation latency also feeds the engine.routine_ns histogram —
// under MAX slicing that is the per-fragment evaluation timing, one
// invocation per (satisfying tuple, constant period).
func (db *DB) traceRoutine(name string) func() {
	if db.Tracer == nil {
		return nil
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		db.Tracer.Span(obs.Span{Name: "engine.routine", Start: start, Dur: d,
			Trace: db.Trace.Trace, ID: obs.NewSpanID(), Parent: db.Trace.Span,
			Attrs: []obs.Attr{obs.A("routine", name)}})
		if db.Metrics != nil {
			if db.routineNS == nil {
				db.routineNS = db.Metrics.Histogram("engine.routine_ns")
			}
			db.routineNS.Record(d)
		}
		db.TabStats.NoteRoutineTime(name, d)
	}
}

// routineUse is a session's account of one routine while a top-level
// statement runs: whether it may be memoized (routinePure, asked once and
// again after DDL) and its invocations, for the shared workload profile.
type routineUse struct {
	calls int64
	pure  bool
	at    int64 // catalog version pure was decided at
}

func (db *DB) use(r *storage.Routine) *routineUse {
	u, v := db.uses[r], db.Cat.Version()
	if u == nil {
		u = &routineUse{at: v - 1}
		db.uses[r] = u
	}
	if u.at != v {
		u.pure, u.at = db.routinePure(r), v
	}
	return u
}

// noteRoutineCall counts one logical stored-routine invocation; the
// shared workload profile hears of it when the statement ends (execTop).
func (db *DB) noteRoutineCall(u *routineUse) {
	db.Stats.RoutineCalls++
	db.Proc.AddRoutineCalls(1)
	u.calls++
}

// EvalConstExpr evaluates an expression with no row or variable
// context (literals, CURRENT_DATE, arithmetic), compiled outside any
// query level and run once; the stratum uses it to resolve
// temporal-context bounds.
func (db *DB) EvalConstExpr(e sqlast.Expr) (types.Value, error) {
	b := binder{names: constNames}
	return b.expr(e)(&execCtx{db: db})
}

// FoldLiterals is EvalConstExpr of e when e is literals combined by
// operators (arithmetic, comparison, AND / OR / NOT, IS NULL). ok is
// false when e reads anything else or raises an error. The analyzer's
// constant folding asks it, so a folded verdict is the engine's.
func FoldLiterals(e sqlast.Expr) (types.Value, bool) {
	ok := e != nil
	sqlast.Walk(e, func(n sqlast.Node) bool {
		switch n.(type) {
		case *sqlast.Literal, *sqlast.UnaryExpr, *sqlast.BinaryExpr, *sqlast.IsNullExpr:
		default:
			ok = false
		}
		return ok
	})
	if !ok {
		return types.Null, false
	}
	v, err := (*DB)(nil).EvalConstExpr(e)
	return v, err == nil
}
