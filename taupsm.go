// Package taupsm is a Temporal SQL/PSM database: an in-memory SQL
// engine with stored procedures and functions (SQL/PSM) fronted by a
// stratum that implements the SQL/Temporal statement modifiers
// VALIDTIME and NONSEQUENCED VALIDTIME for queries, modifications, and
// — the contribution of the underlying paper — stored routines.
//
// It reproduces "Temporal Support for Persistent Stored Modules"
// (Snodgrass, Gao, Zhang, Thomas; ICDE 2012): statements without a
// temporal modifier get current semantics (temporal upward
// compatibility), VALIDTIME statements get sequenced semantics
// implemented by maximally-fragmented or per-statement slicing, and
// NONSEQUENCED VALIDTIME exposes the period timestamps as ordinary
// columns.
//
// Quick start:
//
//	db := taupsm.Open()
//	db.MustExec(`CREATE TABLE author (author_id CHAR(10), first_name CHAR(50)) AS VALIDTIME`)
//	db.MustExec(`NONSEQUENCED VALIDTIME INSERT INTO author VALUES ('a1', 'Ben', DATE '2010-01-01', DATE '2010-06-01')`)
//	res, err := db.Query(`VALIDTIME SELECT first_name FROM author`)
//
// Open creates an in-memory database; OpenDir creates one whose
// committed state persists in a data directory (write-ahead log plus
// snapshots) and survives restarts.
package taupsm

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taupsm/internal/core"
	"taupsm/internal/engine"
	"taupsm/internal/obs"
	"taupsm/internal/proc"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/storage"
	"taupsm/internal/temporal"
	"taupsm/internal/types"
	"taupsm/internal/wal"
)

// Strategy selects the sequenced slicing strategy.
type Strategy = core.Strategy

// Slicing strategies. Auto applies the paper's §VII-F heuristic.
const (
	Auto         = core.StrategyAuto
	Max          = core.StrategyMax
	PerStatement = core.StrategyPerStatement
)

// ErrNotTransformable reports that per-statement slicing cannot handle
// a statement; use Max instead (Auto falls back automatically).
var ErrNotTransformable = core.ErrNotTransformable

// DB is a temporal database: the stratum plus the conventional engine.
type DB struct {
	eng      *engine.DB
	tr       *core.Translator
	strategy Strategy

	// tracer receives spans and events from the stratum and (shared)
	// from the engine; nil means tracing is off and every
	// instrumentation site reduces to one pointer comparison.
	tracer obs.Tracer
	// metrics is the always-on registry; sm caches its hot handles.
	metrics *obs.Metrics
	sm      stratumMetrics

	// ring buffers recently captured spans for /traces and the REPL's
	// \trace; sampleN/sampleCtr implement every-Nth-statement capture
	// into it (0 = off, the default). See trace.go.
	ring      *obs.Ring
	sampleN   atomic.Int64
	sampleCtr atomic.Uint64

	// procs is the in-flight statement registry: every user statement
	// registers its record (proc.Process), whose progress counters the
	// engine updates, and which SHOW PROCESSLIST, tau_stat_activity, the
	// REPL and /processlist read live. KILL works through it. See
	// process.go.
	procs *proc.Registry

	// slowW/slowMin configure the structured slow-query log; slowMu
	// serializes entry writes so concurrent statements never interleave
	// JSON lines. See slowlog.go.
	slowMu  sync.Mutex
	slowW   io.Writer
	slowMin time.Duration

	// figure8SQL makes MAX slicing compute its constant periods by
	// executing the paper's Figure-8 SQL instead of the stratum's native
	// computation: the reference the tests hold the native path against
	// (set through export_test.go only).
	figure8SQL bool

	// CoalesceResults, when true, merges value-equivalent rows with
	// adjacent or overlapping periods in sequenced query results,
	// returning maximal periods. Off by default: the raw fragmentation
	// is what the slicing strategies naturally produce (and what the
	// benchmark measures); snapshot equivalence holds either way.
	CoalesceResults bool

	// mu guards the statement-plan cache below (and what a cached plan
	// holds that changes after it is built) and the merge of
	// per-statement engine journals into eng.Stats. Statements execute on
	// engine sessions, so any number of goroutines may call Query
	// concurrently; writes (DML/DDL) still need external serialization
	// against concurrent readers.
	mu    sync.Mutex
	plans map[string]*stmtPlan

	// lastFallbackErr is why PERST did not apply to the most recent
	// statement for which Auto took MAX on that ground; see
	// LastFallbackNote.
	lastFallbackErr error

	// lastTrace/lastDur describe the most recent statement for
	// LastStatement (the REPL's \timing and \trace); guarded by mu.
	lastTrace obs.TraceID
	lastDur   time.Duration

	// dur is the write-ahead log of a persistent database (nil for
	// in-memory databases); recovery describes what the last OpenDir /
	// OpenFS reconstructed. See durability.go.
	dur      *wal.Store
	recovery *wal.RecoveryInfo
}

// Open creates an empty in-memory temporal database. For a durable
// database backed by a data directory, see OpenDir.
func Open() *DB {
	return newDB(engine.New(), obs.NewMetrics())
}

// newDB assembles a stratum over an engine (whose catalog may have
// been recovered from a snapshot + WAL) and a metrics registry.
func newDB(eng *engine.DB, metrics *obs.Metrics) *DB {
	db := &DB{
		eng:      eng,
		strategy: Auto,
		metrics:  metrics,
		plans:    map[string]*stmtPlan{},
		ring:     obs.NewRing(0),
		procs:    proc.NewRegistry(),
	}
	eng.Procs = db.procs
	db.sm = newStratumMetrics(db.metrics)
	eng.Metrics = db.metrics
	db.tr = core.NewTranslator(eng.Cat)
	return db
}

// SetParallelism does nothing: MAX evaluates every statement serially
// (DESIGN §5 item 12). It exists only because the benchmark in bench/
// still calls it.
func (db *DB) SetParallelism(int) {}

// SetTracer attaches (or, with nil, detaches) a tracer receiving spans
// and events from every layer: stratum statement phases, strategy
// decisions, engine query evaluations and routine invocations. A
// tracer also enables the detailed metrics that require timing or
// extra bookkeeping (engine.routine_ns, stratum.fragments). Use
// obs.MultiTracer to fan out to several sinks.
func (db *DB) SetTracer(t obs.Tracer) {
	db.tracer = t
	db.eng.Tracer = t
}

// Tracer returns the attached tracer (nil when tracing is off).
func (db *DB) Tracer() obs.Tracer { return db.tracer }

// Metrics returns the database's metrics registry: atomic counters,
// gauges and latency histograms covering the stratum (statement kinds,
// strategy decisions, constant periods) and the engine (rows scanned
// and returned, routine invocations). Render it with String().
func (db *DB) Metrics() *obs.Metrics { return db.metrics }

// stratumMetrics caches the registry handles the stratum updates on
// every statement, so the hot path never takes the registry lock.
type stratumMetrics struct {
	statements    *obs.Counter
	kind          map[string]*obs.Counter
	explain       *obs.Counter
	strategyMax   *obs.Counter
	strategyPerst *obs.Counter
	autoDecisions *obs.Counter
	autoReason    map[core.Reason]*obs.Counter
	cpLast        *obs.Gauge
	cpTotal       *obs.Counter
	fragLast      *obs.Gauge
	fragTotal     *obs.Counter
	parseNS       *obs.Histogram
	translateNS   *obs.Histogram
	executeNS     *obs.Histogram

	transHits   *obs.Counter
	transMisses *obs.Counter
	cpHits      *obs.Counter
	cpMisses    *obs.Counter

	lintRuns *obs.Counter

	eng engineCounters
}

// engineCounters are the registry's engine.*_total series, one per
// engine.Stats field that still counts something.
type engineCounters struct {
	rowsScanned, rowsReturned, routineCalls, routineMemoHits, statements,
	logWrites, intervalProbes, planReuseHits *obs.Counter
}

// add publishes one finished statement's engine session journal.
func (c *engineCounters) add(d engine.Stats) {
	c.rowsScanned.Add(d.RowsScanned)
	c.rowsReturned.Add(d.RowsReturned)
	c.routineCalls.Add(d.RoutineCalls)
	c.routineMemoHits.Add(d.RoutineMemoHits)
	c.statements.Add(d.Statements)
	c.logWrites.Add(d.LogWrites)
	c.intervalProbes.Add(d.IntervalProbes)
	c.planReuseHits.Add(d.PlanReuseHits)
}

func newStratumMetrics(m *obs.Metrics) stratumMetrics {
	sm := stratumMetrics{
		statements: m.Counter("stratum.statements_total"),
		kind: map[string]*obs.Counter{
			"current":      m.Counter("stratum.statements.current_total"),
			"sequenced":    m.Counter("stratum.statements.sequenced_total"),
			"nonsequenced": m.Counter("stratum.statements.nonsequenced_total"),
		},
		explain:       m.Counter("stratum.explain_total"),
		strategyMax:   m.Counter("stratum.strategy.max_total"),
		strategyPerst: m.Counter("stratum.strategy.perst_total"),
		autoDecisions: m.Counter("stratum.auto.decisions_total"),
		autoReason:    map[core.Reason]*obs.Counter{},
		cpLast:        m.Gauge("stratum.constant_periods"),
		cpTotal:       m.Counter("stratum.constant_periods_total"),
		fragLast:      m.Gauge("stratum.fragments"),
		fragTotal:     m.Counter("stratum.fragments_total"),
		parseNS:       m.Histogram("stratum.parse_ns"),
		translateNS:   m.Histogram("stratum.translate_ns"),
		executeNS:     m.Histogram("stratum.execute_ns"),

		transHits:   m.Counter("stratum.cache.translation_hits_total"),
		transMisses: m.Counter("stratum.cache.translation_misses_total"),
		cpHits:      m.Counter("stratum.cache.cp_hits_total"),
		cpMisses:    m.Counter("stratum.cache.cp_misses_total"),

		lintRuns: m.Counter("stratum.lint.analysis_runs_total"),

		eng: engineCounters{
			rowsScanned:     m.Counter("engine.rows_scanned_total"),
			rowsReturned:    m.Counter("engine.rows_returned_total"),
			routineCalls:    m.Counter("engine.routine_calls_total"),
			routineMemoHits: m.Counter("engine.routine_memo_hits_total"),
			statements:      m.Counter("engine.statements_total"),
			logWrites:       m.Counter("engine.log_writes_total"),
			intervalProbes:  m.Counter("engine.interval_probes_total"),
			planReuseHits:   m.Counter("engine.plan_reuse_hits_total"),
		},
	}
	for _, r := range []core.Reason{
		core.ReasonNotTransformable, core.ReasonPerPeriodCursor,
		core.ReasonShortContext, core.ReasonStatsFewPeriods,
		core.ReasonDefault, core.ReasonProbeError,
	} {
		sm.autoReason[r] = m.Counter("stratum.auto.reason." + string(r) + "_total")
	}
	return sm
}

// stmtKind classifies a statement by its temporal modifier; EXPLAIN is
// a kind of its own (counted in stratum.explain_total, not among the
// statements).
func stmtKind(stmt sqlast.Stmt) string {
	mod := sqlast.ModCurrent
	switch s := stmt.(type) {
	case *sqlast.ExplainStmt:
		return "explain"
	case *sqlast.TemporalStmt:
		mod = s.Mod
	case *sqlast.CreateViewStmt:
		mod = s.Mod
	}
	switch mod {
	case sqlast.ModSequenced:
		return "sequenced"
	case sqlast.ModNonsequenced:
		return "nonsequenced"
	}
	return "current"
}

// SetStrategy fixes the slicing strategy for sequenced statements;
// Auto (the default) uses the §VII-F heuristic with fallback to MAX
// when per-statement slicing does not apply.
func (db *DB) SetStrategy(s Strategy) { db.strategy = s }

// Strategy returns the current strategy setting.
func (db *DB) Strategy() Strategy { return db.strategy }

// SetNow fixes CURRENT_DATE, making current-semantics results
// deterministic.
func (db *DB) SetNow(year, month, day int) {
	db.eng.Now = types.MustDate(year, month, day)
}

// Engine exposes the underlying conventional engine (statistics,
// direct conventional execution). Intended for benchmarks and tests.
func (db *DB) Engine() *engine.DB { return db.eng }

// parseScript parses src, timing the parse phase. Every call parses:
// nothing downstream is keyed by these nodes — every translator path
// clones before the engine sees one, and a sequenced statement finds its
// plan (and with it the translated AST the engine's SELECT plans are
// keyed by) through its rendered text. When ctx carries a trace session
// the parse span joins that trace as a root-level span.
func (db *DB) parseScript(ctx context.Context, src string) ([]sqlast.Stmt, error) {
	start := time.Now()
	stmts, err := sqlparser.ParseScript(src)
	d := time.Since(start)
	db.sm.parseNS.Record(d)
	tr, sp := db.tracer, obs.Span{Name: "stratum.parse", Start: start, Dur: d}
	if ts := sessionFromContext(ctx); ts != nil {
		tr = ts.tr
		sp.Trace, sp.ID = ts.trace, obs.NewSpanID()
	}
	if tr != nil {
		sp.Attrs = []obs.Attr{obs.AInt("statements", int64(len(stmts)))}
		if err != nil {
			sp.Attrs = append(sp.Attrs, obs.A("error", err.Error()))
		}
		tr.Span(sp)
	}
	return stmts, err
}

// Exec parses and executes a Temporal SQL/PSM script, returning the
// result of the last statement.
func (db *DB) Exec(src string) (*Result, error) {
	return db.ExecContext(context.Background(), src)
}

// ExecContext is Exec under a context. The context may carry a forced
// trace session (WithTrace); otherwise the sampling policy decides
// whether the script is traced. All statements of one script share one
// trace.
func (db *DB) ExecContext(ctx context.Context, src string) (*Result, error) {
	ctx = db.ensureTraceContext(ctx)
	stmts, err := db.parseScript(ctx, src)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, s := range stmts {
		last, err = db.ExecParsedContext(ctx, s)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// MustExec is Exec that panics on error; for setup code and examples.
func (db *DB) MustExec(src string) *Result {
	res, err := db.Exec(src)
	if err != nil {
		panic(err)
	}
	return res
}

// Query executes a single statement and returns its rows.
func (db *DB) Query(src string) (*Result, error) {
	return db.QueryContext(context.Background(), src)
}

// QueryContext is Query under a context; see ExecContext for trace
// semantics.
func (db *DB) QueryContext(ctx context.Context, src string) (*Result, error) {
	ctx = db.ensureTraceContext(ctx)
	stmts, err := db.parseScript(ctx, src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("expected exactly one statement, found %d", len(stmts))
	}
	return db.ExecParsedContext(ctx, stmts[0])
}

// ExecParsed translates and executes one parsed statement. EXPLAIN
// statements are answered by the stratum without executing their body;
// EXPLAIN ANALYZE executes the body and annotates the plan with the
// observed timings.
func (db *DB) ExecParsed(stmt sqlast.Stmt) (*Result, error) {
	return db.ExecParsedContext(context.Background(), stmt)
}

// ExecParsedContext is ExecParsed under a context; see ExecContext for
// trace semantics. SHOW PROCESSLIST and KILL are answered from the
// registry without entering it (an idle database lists no process), and
// EXPLAIN ANALYZE's record is that of the body it executes; everything
// else — EXPLAIN and ANALYZE included — is a statement with a record.
func (db *DB) ExecParsedContext(ctx context.Context, stmt sqlast.Stmt) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlast.ShowProcessListStmt:
		defer db.noteControl(time.Now())
		return db.processListResult(), nil
	case *sqlast.KillStmt:
		defer db.noteControl(time.Now())
		if err := db.Kill(s.PID); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlast.ExplainStmt:
		if s.Analyze {
			// The body is the statement: it runs with a record of its own,
			// which the plan is then annotated with.
			e, err := db.explainAnalyzeParsed(ctx, s.Body)
			if err != nil {
				return nil, err
			}
			return e.Result(), nil
		}
	}
	res, _, err := db.execStatement(ctx, stmt)
	return res, err
}

// execStatement gives the statement its record, runs it, and publishes
// the record. It returns the detached record so EXPLAIN ANALYZE can
// render what actually happened.
func (db *DB) execStatement(ctx context.Context, stmt sqlast.Stmt) (*Result, proc.Snapshot, error) {
	pr := db.begin(ctx, stmt)
	res, work, err := db.runStatement(pr, stmt)
	return res, db.finish(pr, res, work, err), err
}

// runStatement is the statement spine: CREATE-time lint, translation,
// constant periods, execution, commit — each a stage of the record pr.
// Beside the result it returns the work journal of the statement's
// engine session.
func (db *DB) runStatement(pr *proc.Process, stmt sqlast.Stmt) (*Result, engine.Stats, error) {
	var warnings []Diagnostic
	switch s := stmt.(type) {
	case *sqlast.ExplainStmt:
		sc := db.enter(pr, "execute")
		var res *Result
		e, err := db.ExplainParsed(s.Body)
		if err == nil {
			res = e.Result()
		}
		db.leave(pr, sc, nil, err)
		return res, engine.Stats{}, err
	case *sqlast.AnalyzeStmt:
		res, err := db.execAnalyze(pr, s)
		return res, engine.Stats{}, err
	case *sqlast.CreateFunctionStmt, *sqlast.CreateProcedureStmt:
		// CREATE-time validation: routine definitions pass through the
		// static analyzer before translation. Error diagnostics (undeclared
		// variables or cursors, unknown callees, arity mismatches, ...)
		// reject the definition outright; warnings ride on the result.
		sc := db.enter(pr, "lint")
		var err error
		warnings, err = db.checkCreate(stmt)
		db.leave(pr, sc, nil, err)
		if err != nil {
			return nil, engine.Stats{}, err
		}
	}

	sc := db.enter(pr, "translate")
	p, err := db.plan(pr, stmt)
	db.leave(pr, sc, db.sm.translateNS, err)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	if pr.Kind == "sequenced" {
		switch p.t.Strategy {
		case Max:
			db.sm.strategyMax.Inc()
		case PerStatement:
			db.sm.strategyPerst.Inc()
		}
		pr.Note(func(rec *proc.Snapshot) { rec.Strategy = p.t.Strategy.String() })
	}
	res, work, err := db.run(pr, p)
	if err != nil {
		return nil, work, err
	}
	if db.CoalesceResults && isSequencedQueryResult(stmt, res) {
		res = coalesceResult(res)
	}
	out := wrapResult(res)
	out.Warnings = warnings
	return out, work, nil
}

// run executes a plan on a fresh engine session under one journal — a
// sequenced DML translation is several engine statements, but commits
// (and rolls back) as a unit — and returns the session's work journal
// with the result. Constant periods, execution and the journal's commit
// (WAL append + fsync) or rollback are stages of their own.
func (db *DB) run(pr *proc.Process, p *stmtPlan) (*engine.Result, engine.Stats, error) {
	var cp *storage.Table
	if p.t.NeedsConstantPeriods && !db.figure8SQL {
		var err error
		if cp, err = db.constantPeriodTable(pr, p); err != nil {
			return nil, engine.Stats{}, err
		}
	}
	ses := db.eng.NewSession()
	defer ses.Release()
	ses.Proc = pr
	j := engine.NewJournal()
	ses.Journal = j
	sc := db.enter(pr, "execute")
	if pr.Tracer != nil {
		ses.Tracer = pr.Tracer
		ses.Trace = obs.SpanContext{Trace: pr.Root.Trace, Span: sc}
	}
	res, err := db.runTranslation(ses, p, cp)
	db.leave(pr, sc, db.sm.executeNS, err)
	pr.SetWALPending(int64(j.Len()))
	if err != nil && pr.KilledBy(err) {
		// A killed statement must leave storage as if it never ran:
		// undo everything it journaled and skip the commit — the WAL
		// append and the statistics fold alike. A cached plan whose
		// registrations were undone no longer finds the clones its
		// dependencies pin, so it is rebuilt on next use.
		sc := db.enter(pr, "rollback")
		j.RollbackAll()
		db.leave(pr, sc, nil, nil)
		res = nil
	} else if cerr := db.commitJournal(pr, j); cerr != nil && err == nil {
		res, err = nil, cerr
	}
	pr.SetWALPending(0)
	return res, ses.Stats, err
}

// isSequencedQueryResult reports whether res is the row set of a
// sequenced query (leading begin_time/end_time columns).
func isSequencedQueryResult(stmt sqlast.Stmt, res *engine.Result) bool {
	if !isSequenced(stmt) || res == nil || len(res.Cols) < 2 {
		return false
	}
	return strings.EqualFold(res.Cols[0], "begin_time") && strings.EqualFold(res.Cols[1], "end_time")
}

// coalesceResult merges value-equivalent rows with adjacent or
// overlapping periods into maximal periods.
func coalesceResult(res *engine.Result) *engine.Result {
	// Value groups in first-seen order, each with its periods.
	type group struct {
		row     []types.Value
		periods []temporal.TimestampedRow
	}
	var groups []*group
	byKey := map[string]*group{}
	for _, r := range res.Rows {
		var b strings.Builder
		for _, v := range r[2:] {
			b.WriteString(v.HashKey())
			b.WriteByte('|')
		}
		g := byKey[b.String()]
		if g == nil {
			g = &group{row: r}
			byKey[b.String()] = g
			groups = append(groups, g)
		}
		g.periods = append(g.periods, temporal.TimestampedRow{Period: temporal.Period{Begin: r[0].I, End: r[1].I}})
	}
	out := &engine.Result{Cols: res.Cols, Affected: res.Affected}
	for _, g := range groups {
		for _, tr := range temporal.Coalesce(g.periods) {
			out.Rows = append(out.Rows, append([]types.Value{
				types.NewDate(tr.Period.Begin), types.NewDate(tr.Period.End),
			}, g.row[2:]...))
		}
	}
	return out
}

// runTranslation registers the plan's routines (once per plan — a
// cached plan's dependencies pin the installed clones, so on later hits
// they are still there), then executes the main statement on the given
// engine session: natively over cp, the constant-period relation of a
// MAX plan, or — when there is none — through the translation's own
// Setup/Teardown script.
func (db *DB) runTranslation(e *engine.DB, p *stmtPlan, cp *storage.Table) (res *engine.Result, err error) {
	t := p.t
	db.mu.Lock()
	register := !p.registered
	db.mu.Unlock()
	if register {
		for _, r := range t.Routines {
			if _, err := e.ExecStmt(r); err != nil {
				return nil, fmt.Errorf("registering transformed routine: %w", err)
			}
		}
		// Registration may have changed what the clone names resolve to;
		// re-pin a cached plan so the very next lookup already hits.
		db.mu.Lock()
		p.registered = true
		if p.deps != nil {
			p.deps.Reset(db.eng.Cat)
			db.pin(p)
		}
		db.mu.Unlock()
	}
	if cp != nil {
		return db.runNative(e, p.t, cp)
	}
	if len(t.Teardown) > 0 {
		defer func() {
			for _, s := range t.Teardown {
				if _, terr := e.ExecStmt(s); terr != nil && err == nil {
					err = terr
				}
			}
		}()
	}
	for _, s := range t.Setup {
		if _, err := e.ExecStmt(s); err != nil {
			return nil, fmt.Errorf("translation setup: %w", err)
		}
	}
	if t.NeedsConstantPeriods {
		// Figure-8 SQL path: the cp table holds the constant periods.
		if tab := db.eng.Cat.Table("taupsm_cp"); tab != nil {
			db.notePeriods(e.Proc, len(tab.Rows))
		}
	}
	db.recordFragments(e.Proc, t)
	if t.Main == nil {
		return &engine.Result{}, nil
	}
	return e.ExecStmt(t.Main)
}

// notePeriods publishes a MAX statement's constant-period count to the
// metrics registry and to its record.
func (db *DB) notePeriods(pr *proc.Process, n int) {
	db.sm.cpLast.Set(int64(n))
	db.sm.cpTotal.Add(int64(n))
	pr.SetPeriods(int64(n))
}

// runNative executes a MAX plan without materializing catalog tables:
// the plan's constant-period relation binds to the main statement as a
// table variable, so the catalog version never churns and repeated
// statements keep every cache warm.
func (db *DB) runNative(e *engine.DB, t *core.Translation, cpTab *storage.Table) (*engine.Result, error) {
	db.notePeriods(e.Proc, len(cpTab.Rows))
	db.recordFragments(e.Proc, t)
	if t.Main == nil {
		return &engine.Result{}, nil
	}
	res, err := e.ExecStmtWithTables(t.Main, map[string]*storage.Table{"taupsm_cp": cpTab})
	if err == nil {
		// Every period is evaluated in one engine statement, so period
		// progress resolves at completion.
		e.Proc.AddPeriodsDone(int64(len(cpTab.Rows)))
	}
	return res, err
}

// recordFragments counts the stored row fragments the statement's
// context overlaps. It walks the reachable temporal tables — the one
// piece of the record whose cost scales with the data — so it runs
// only while a consumer is armed: the statement is traced, or the slow
// log is listening. Whether this statement was sampled does not
// decide it, so a slow-log line reads the same either way.
func (db *DB) recordFragments(pr *proc.Process, t *core.Translation) {
	if t.ContextBegin == nil || (pr.Tracer == nil && !db.slowLogArmed()) {
		return
	}
	if ctx, err := db.evalPeriod(t.ContextBegin, t.ContextEnd); err == nil {
		_, n := db.contextCounts(t.TemporalTables, t.Dim, ctx.Begin, ctx.End)
		db.sm.fragLast.Set(n)
		db.sm.fragTotal.Add(n)
		pr.Note(func(rec *proc.Snapshot) { rec.Fragments = n })
	}
}

// Translate performs the pure source-to-source transformation: it
// parses one Temporal SQL/PSM statement and returns the conventional
// SQL/PSM script it compiles to, without executing anything.
func (db *DB) Translate(src string, strategy Strategy) (string, error) {
	stmt, err := sqlparser.ParseStatement(src)
	if err != nil {
		return "", err
	}
	t, err := db.TranslateStmt(stmt, strategy)
	if err != nil {
		return "", err
	}
	return t.SQL(), nil
}

// TranslateStmt is Translate over a parsed statement, returning the
// structured translation. Under Auto it is the translation of the plan
// an execution would build now: the translator itself never chooses.
func (db *DB) TranslateStmt(stmt sqlast.Stmt, strategy Strategy) (*core.Translation, error) {
	if strategy != Auto {
		return db.tr.Translate(stmt, strategy)
	}
	p, err := db.buildPlan(stmt, Auto)
	if err != nil {
		return nil, err
	}
	return p.t, nil
}
