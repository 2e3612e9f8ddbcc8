package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"taupsm"
	"taupsm/internal/check"
	"taupsm/internal/core"
	"taupsm/internal/engine"
	"taupsm/internal/obs"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/sqlscan"
	"taupsm/internal/storage"
	"taupsm/internal/taubench"
	"taupsm/internal/temporal"
	"taupsm/internal/types"
)

// recorder keeps spans in memory; they are written out when the run
// ends. Tracing lives in the benchmark only: every span brackets one of
// the harness's own calls into a layer's public function.
type recorder struct {
	epoch time.Time
	spans []span
	stmt  int
}

func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{Name: name, Stmt: r.stmt, Parent: parent, Start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

// end closes span i and returns its duration.
func (r *recorder) end(i int) time.Duration {
	r.spans[i].End = int64(time.Since(r.epoch))
	return time.Duration(r.spans[i].End - r.spans[i].Start)
}

// acc is a running sum with its number of observations.
type acc struct{ sum, n float64 }

func (a acc) mean() float64 { return ratio(a.sum, a.n) }

// layers accumulates per-layer observations, overall and per statement
// class.
type layers struct {
	total   map[string]*acc
	byClass map[string][]acc
	classes int
}

func newLayers(classes int) *layers {
	return &layers{total: map[string]*acc{}, byClass: map[string][]acc{}, classes: classes}
}

func (l *layers) add(name string, class int, v float64) {
	a := l.total[name]
	if a == nil {
		a = &acc{}
		l.total[name] = a
		l.byClass[name] = make([]acc, l.classes)
	}
	a.sum += v
	a.n++
	c := &l.byClass[name][class]
	c.sum += v
	c.n++
}

func (l *layers) mean(name string) float64 {
	if a := l.total[name]; a != nil {
		return a.mean()
	}
	return 0
}

func (l *layers) sum(name string) float64 {
	if a := l.total[name]; a != nil {
		return a.sum
	}
	return 0
}

// stagedPlan is what the harness keeps per statement text on workloads
// whose text repeats, mirroring what the stratum's own caches keep: the
// translation (so the engine's plan cache, keyed by AST identity, hits),
// the shared prepared plan and the constant-period relation.
type stagedPlan struct {
	t    *core.Translation
	prep *engine.Prepared
	cp   *storage.Table
}

// stager replays each statement in stages under one root span, every
// stage a timed call into one layer, then runs the statement for real
// through the integrated path.
type stager struct {
	in    *instance
	rec   *recorder
	l     *layers
	plans map[string]*stagedPlan
	// exec and eng hold the per-class durations (us) of the integrated
	// statement and of the translated plan run directly on the engine.
	exec, eng [][]float64
	// lint moves around db.LintParsed, integrated around db.Query.
	lint, integrated []counter
}

// counter is one of the program's public metrics whose delta the stager
// reads around a call, and the name the delta is accumulated under.
type counter struct {
	name string
	c    *obs.Counter
}

func values(cs []counter) []int64 {
	out := make([]int64, len(cs))
	for i, c := range cs {
		out[i] = c.c.Value()
	}
	return out
}

func newStager(in *instance, rec *recorder) *stager {
	m := in.db.Metrics()
	return &stager{in: in, rec: rec, l: newLayers(len(in.w.classes)), plans: map[string]*stagedPlan{},
		exec: make([][]float64, len(in.w.classes)), eng: make([][]float64, len(in.w.classes)),
		lint: []counter{
			{"lint_hits", m.Counter("stratum.lint.cache_hits_total")},
			{"lint_runs", m.Counter("stratum.lint.analysis_runs_total")},
		},
		integrated: []counter{
			{"trans_hits", m.Counter("stratum.cache.translation_hits_total")},
			{"trans_misses", m.Counter("stratum.cache.translation_misses_total")},
			{"cp_hits", m.Counter("stratum.cache.cp_hits_total")},
			{"cp_misses", m.Counter("stratum.cache.cp_misses_total")},
			{"strat_max", m.Counter("stratum.strategy.max_total")},
			{"strat_perst", m.Counter("stratum.strategy.perst_total")},
			{"stratum.perst_fallbacks", m.Counter("stratum.perst_fallback_total")},
			{"stratum.constant_periods", m.Counter("stratum.constant_periods_total")},
			{"par_stmts", m.Counter("stratum.parallel.statements_total")},
		}}
}

// addDeltas accumulates what each counter moved by since before.
func (s *stager) addDeltas(class int, cs []counter, before []int64) {
	for i, after := range values(cs) {
		s.l.add(cs[i].name, class, float64(after-before[i]))
	}
}

// run executes one statement stage by stage and returns the integrated
// path's result, which is the one that is checked.
func (s *stager) run(o op) (*taupsm.Result, error) {
	db, rec, l, c := s.in.db, s.rec, s.l, o.class
	rec.stmt++
	root := rec.begin("statement", -1)
	defer rec.end(root)

	sp := rec.begin("sqlscan.scan", root)
	toks, err := sqlscan.ScanAll(o.sql)
	l.add("sqlscan.scan_us", c, us(rec.end(sp)))
	if err != nil {
		return nil, err
	}
	l.add("sqlscan.tokens", c, float64(len(toks)))

	sp = rec.begin("sqlparser.parse", root)
	stmts, err := sqlparser.ParseScript(o.sql)
	l.add("sqlparser.parse_us", c, us(rec.end(sp)))
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("generated %d statements, want 1: %s", len(stmts), o.sql)
	}
	stmt := stmts[0]
	nodes := 0
	sqlast.Walk(stmt, func(sqlast.Node) bool { nodes++; return true })
	l.add("sqlparser.ast_nodes", c, float64(nodes))

	before := values(s.lint)
	sp = rec.begin("check.lint", root)
	diags := db.LintParsed(stmt)
	l.add("check.lint_us", c, us(rec.end(sp)))
	s.addDeltas(c, s.lint, before)
	l.add("check.diagnostics", c, float64(len(diags)))
	sp = rec.begin("check.summarize", root)
	check.Summarize(check.FromStorage(db.Engine().Cat), nil, stmt)
	l.add("check.summarize_us", c, us(rec.end(sp)))

	t, err := s.translate(root, o, stmt)
	if err != nil {
		return nil, err
	}
	plan := s.plans[o.sql]
	if plan == nil {
		plan = &stagedPlan{t: t, prep: engine.NewPrepared()}
		if s.in.w.repeats {
			s.plans[o.sql] = plan
		}
	}
	if plan.t.NeedsConstantPeriods {
		if err := s.constantPeriods(root, o, plan); err != nil {
			return nil, err
		}
	}
	if err := s.engineExec(root, o, plan); err != nil {
		return nil, fmt.Errorf("engine stage: %w", err)
	}

	before = values(s.integrated)
	sp = rec.begin("stratum.exec", root)
	res, err := db.Query(o.sql)
	d := us(rec.end(sp))
	l.add("stratum.exec_us", c, d)
	s.exec[c] = append(s.exec[c], d)
	s.addDeltas(c, s.integrated, before)
	return res, err
}

// translate times the translation of stmt. A sequenced statement is
// translated under both strategies, each timed on its own; the one
// returned is the one the workload's strategy would run (for auto, the
// one EXPLAIN says the heuristic picks). Anything else translates once.
func (s *stager) translate(root int, o op, stmt sqlast.Stmt) (*core.Translation, error) {
	db, rec, l, c := s.in.db, s.rec, s.l, o.class
	ts, ok := stmt.(*sqlast.TemporalStmt)
	if !ok || ts.Mod != sqlast.ModSequenced {
		sp := rec.begin("core.translate", root)
		t, err := db.TranslateStmt(stmt, db.Strategy())
		l.add("core.translate_current_us", c, us(rec.end(sp)))
		if err == nil {
			s.noteOutput(c, t)
		}
		return t, err
	}
	sp := rec.begin("core.translate.max", root)
	tMax, err := db.TranslateStmt(stmt, taupsm.Max)
	l.add("core.translate_max_us", c, us(rec.end(sp)))
	if err != nil {
		return nil, err
	}
	sp = rec.begin("core.translate.perst", root)
	tPerst, perr := db.TranslateStmt(stmt, taupsm.PerStatement)
	l.add("core.translate_perst_us", c, us(rec.end(sp)))
	refused := 0.0
	if errors.Is(perr, taupsm.ErrNotTransformable) {
		refused = 1
	} else if perr != nil {
		return nil, perr
	}
	l.add("core.not_transformable", c, refused)

	chosen := tMax
	switch strategy := db.Strategy(); {
	case perr != nil:
	case strategy == taupsm.PerStatement:
		chosen = tPerst
	case strategy == taupsm.Auto:
		e, err := db.ExplainParsed(stmt)
		if err != nil {
			return nil, err
		}
		if e.Strategy == taupsm.PerStatement {
			chosen = tPerst
		}
	}
	s.noteOutput(c, chosen)
	return chosen, nil
}

func (s *stager) noteOutput(class int, t *core.Translation) {
	n := len(t.Routines) + len(t.Setup) + len(t.Teardown)
	if t.Main != nil {
		n++
	}
	s.l.add("core.out_stmts", class, float64(n))
	s.l.add("core.out_sql_bytes", class, float64(len(t.SQL())))
}

// constantPeriods times the two steps MAX slicing needs before it can
// run: collecting the period endpoints of the reachable temporal tables,
// and computing the constant periods of the context from them. The
// resulting relation is bound to the plan as taupsm_cp.
func (s *stager) constantPeriods(root int, o op, plan *stagedPlan) error {
	db, rec, l, t := s.in.db, s.rec, s.l, plan.t
	bv, err := db.Engine().EvalConstExpr(t.ContextBegin)
	if err != nil {
		return err
	}
	ev, err := db.Engine().EvalConstExpr(t.ContextEnd)
	if err != nil {
		return err
	}
	ctx := temporal.Period{Begin: bv.Int(), End: ev.Int()}

	sp := rec.begin("storage.collect_points", root)
	var points []int64
	fragments := 0
	for _, name := range t.TemporalTables {
		tab := db.Engine().Cat.Table(name)
		if tab == nil {
			continue
		}
		bc, ec := tab.BeginCol(), tab.EndCol()
		if t.Dim == sqlast.DimTransaction && tab.Bitemporal() {
			bc, ec = tab.TTBeginCol(), tab.TTEndCol()
		}
		for _, row := range tab.Rows {
			points = append(points, row[bc].I, row[ec].I)
			if row[bc].I < ctx.End && ctx.Begin < row[ec].I {
				fragments++
			}
		}
	}
	l.add("storage.collect_points_us", o.class, us(rec.end(sp)))
	l.add("temporal.points_in", o.class, float64(len(points)))
	l.add("stratum.fragments", o.class, float64(fragments))

	sp = rec.begin("temporal.cp", root)
	periods := temporal.ConstantPeriods(points, ctx)
	l.add("temporal.cp_us", o.class, us(rec.end(sp)))
	l.add("temporal.periods_out", o.class, float64(len(periods)))

	if plan.cp != nil && samePeriods(plan.cp, periods) {
		return nil
	}
	tab := storage.NewTable("taupsm_cp", storage.NewSchema([]storage.Column{
		{Name: "begin_time", Type: sqlast.TypeName{Base: "DATE"}},
		{Name: "end_time", Type: sqlast.TypeName{Base: "DATE"}},
	}))
	tab.Temporary = true
	for _, p := range periods {
		tab.Rows = append(tab.Rows, []types.Value{types.NewDate(p.Begin), types.NewDate(p.End)})
	}
	plan.cp = tab
	return nil
}

func samePeriods(tab *storage.Table, periods []temporal.Period) bool {
	if len(tab.Rows) != len(periods) {
		return false
	}
	for i, p := range periods {
		if tab.Rows[i][0].I != p.Begin || tab.Rows[i][1].I != p.End {
			return false
		}
	}
	return true
}

// engineExec runs the translated plan directly on an engine session,
// under a private journal that is rolled back afterwards, so the
// database is unchanged when the integrated path runs the statement for
// real. The session's own Stats are the counts of this one execution.
func (s *stager) engineExec(root int, o op, plan *stagedPlan) error {
	t := plan.t
	ses := s.in.db.Engine().NewSession()
	j := engine.NewJournal()
	ses.Journal = j
	defer j.RollbackAll()
	// Routine clones the integrated path has already registered stay as
	// they are: re-registering would bump the catalog version and wipe
	// the very caches whose hit rates are being read.
	for _, r := range t.Routines {
		if !registered(ses.Cat, r) {
			if _, err := ses.ExecStmt(r); err != nil {
				return err
			}
		}
	}
	sp := s.rec.begin("engine.exec", root)
	err := runTranslated(ses, plan)
	d := us(s.rec.end(sp))
	if err != nil {
		return err
	}
	l, c, st := s.l, o.class, ses.Stats
	l.add("engine.exec_us", c, d)
	s.eng[c] = append(s.eng[c], d)
	l.add("engine.rows_scanned", c, float64(st.RowsScanned))
	l.add("engine.rows_returned", c, float64(st.RowsReturned))
	l.add("engine.routine_calls", c, float64(st.RoutineCalls))
	l.add("memo_hits", c, float64(st.RoutineMemoHits))
	l.add("engine.psm_statements", c, float64(st.Statements))
	l.add("engine.log_writes", c, float64(st.LogWrites))
	l.add("engine.interval_probes", c, float64(st.IntervalProbes))
	l.add("engine.plan_reuse_hits", c, float64(st.PlanReuseHits))
	l.add("engine.sweep_joins", c, float64(st.SweepJoins))
	return nil
}

func registered(cat *storage.Catalog, def sqlast.Stmt) bool {
	switch d := def.(type) {
	case *sqlast.CreateFunctionStmt:
		return cat.Routine(d.Name) != nil
	case *sqlast.CreateProcedureStmt:
		return cat.Routine(d.Name) != nil
	}
	return false
}

// runTranslated executes a translation the way the stratum does: a MAX
// query binds the constant periods as a table variable under the shared
// prepared plan; anything else runs Setup, Main and Teardown in order.
func runTranslated(ses *engine.DB, plan *stagedPlan) (err error) {
	t := plan.t
	if t.NeedsConstantPeriods {
		if t.Main == nil {
			return nil
		}
		_, err = ses.ExecPreparedWithTables(plan.prep, t.Main, map[string]*storage.Table{"taupsm_cp": plan.cp})
		return err
	}
	defer func() {
		for _, st := range t.Teardown {
			if _, terr := ses.ExecStmt(st); terr != nil && err == nil {
				err = terr
			}
		}
	}()
	for _, st := range t.Setup {
		if _, err := ses.ExecStmt(st); err != nil {
			return err
		}
	}
	if t.Main != nil {
		_, err = ses.ExecStmt(t.Main)
	}
	return err
}

// Shares of a traced run's length: an untraced phase first, so the same
// process yields the class medians the tracing overhead is relative to
// (and the garbage-collector and I/O figures of an undisturbed run); on
// a parallel workload a second untraced phase at parallelism 1, whose
// throughput the parallel speed-up is relative to; then the staged
// phase.
const (
	shareUntraced = 0.3
	shareSerial   = 0.2
)

// runTraced produces the per-layer metrics of one workload.
func runTraced(w workload, c config) (*report, error) {
	in, _, err := setUpMeasured(w, c, false)
	if err != nil {
		return nil, err
	}
	defer in.close()
	v, err := newVerifier(w, c.seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	staged := 1 - shareUntraced
	base, next := in.runPasses(0, c.sizingFor(w, shareUntraced), v, in.query)
	speedup := 1.0
	if w.par > 1 {
		staged -= shareSerial
		in.db.SetParallelism(1)
		var serial measured
		serial, next = in.runPasses(next, c.sizingFor(w, shareSerial), v, in.query)
		in.db.SetParallelism(w.par)
		speedup = ratio(ratio(base.stmts(), base.timed.Seconds()), ratio(serial.stmts(), serial.timed.Seconds()))
	}
	rec := &recorder{epoch: time.Now()}
	st := newStager(in, rec)
	tm, _ := in.runPasses(next, c.sizingFor(w, staged), v, st.run)
	probes := probeStorage(in)
	recov := in.finish(v)

	r := newReport(w, c, true, tm, v)
	l := st.l
	for _, d := range perLayer {
		r.set(d.Name, l.mean(d.Name))
	}
	frac := func(hit, miss string) float64 { return ratio(l.sum(hit), l.sum(hit)+l.sum(miss)) }
	r.set("engine.scanned_per_returned", ratio(l.sum("engine.rows_scanned"), l.sum("engine.rows_returned")))
	r.set("engine.memo_hit_frac", ratio(l.sum("memo_hits"), l.sum("engine.routine_calls")))
	r.set("stratum.translation_hit_frac", frac("trans_hits", "trans_misses"))
	r.set("stratum.cp_hit_frac", frac("cp_hits", "cp_misses"))
	r.set("stratum.lint_hit_frac", frac("lint_hits", "lint_runs"))
	r.set("stratum.auto_max_frac", frac("strat_max", "strat_perst"))
	r.set("stratum.parallel_stmt_frac", l.mean("par_stmts"))
	r.set("stratum.parallel_speedup", speedup)
	r.set("stats.analyze_ms", ms(in.analyze))

	// Per class: medians of the integrated and the engine-only execution,
	// their difference (what the stratum adds around the plan), and the
	// traced median relative to the untraced one.
	r.PerClass = map[string]map[string]float64{}
	var overhead, tracedMed, baseMed []float64
	for ci, name := range w.classes {
		if len(st.exec[ci]) == 0 {
			continue
		}
		execMed, engMed := median(st.exec[ci]), median(st.eng[ci])
		overhead = append(overhead, execMed-engMed)
		tracedMed = append(tracedMed, execMed)
		baseMed = append(baseMed, median(base.classLat[ci])*1000)
		r.PerClass[name] = map[string]float64{
			"stratum.exec_us": execMed, "engine.exec_us": engMed,
			"engine.routine_calls": l.byClass["engine.routine_calls"][ci].mean(),
			"untraced_us":          median(base.classLat[ci]) * 1000,
		}
	}
	r.set("stratum.overhead_us", ratio(sumOf(overhead), float64(len(overhead))))
	r.set("trace.overhead_frac", ratio(geomean(tracedMed), geomean(baseMed))-1)

	r.set("storage.overlap_probe_ns", probes.overlapNS)
	r.set("storage.overlap_rebuild_us", probes.rebuildUS)
	r.set("storage.lookup_ns", probes.lookupNS)
	r.set("storage.rows_final", probes.rows)
	all := append([]float64(nil), base.lat...)
	sort.Float64s(all)
	r.set("stmt_p50_ms", percentile(all, 0.5))
	r.set("stmt_p95_ms", percentile(all, 0.95))
	r.Samples["stmt_p95_ms"] = len(all)
	r.set("runtime.gc_cycles", ratio(float64(base.gcCycles)*1000, base.stmts()))
	r.set("runtime.gc_pause_ms", ratio(ms(base.gcPause)*1000, base.stmts()))
	r.set("runtime.heap_peak_mb", float64(base.heapPeak)/(1<<20))
	if w.persist {
		setPersistMetrics(r, in, base, recov)
	}
	if err := writeJSON(filepath.Join(c.out, "trace-"+w.name+".json"), traceFile(w, c, rec)); err != nil {
		return nil, err
	}
	return r, nil
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// setPersistMetrics derives the WAL and read/write figures of a
// persistent workload from its untraced phase, the checkpoints taken
// over the whole run, and the reopen.
func setPersistMetrics(r *report, in *instance, base measured, recov recovery) {
	reads := append([]float64(nil), base.readLat...)
	writes := append([]float64(nil), base.writeLat...)
	sort.Float64s(reads)
	sort.Float64s(writes)
	if len(reads) > 0 && len(writes) > 0 {
		r.set("oltp.read_p50_ms", percentile(reads, 0.5))
		r.set("oltp.read_p95_ms", percentile(reads, 0.95))
		r.set("oltp.write_p50_ms", percentile(writes, 0.5))
		r.set("oltp.write_p95_ms", percentile(writes, 0.95))
		r.Samples["oltp.read_p95_ms"], r.Samples["oltp.write_p95_ms"] = len(reads), len(writes)
	}
	r.set("oltp.recovery_ms", ms(recov.firstAnswer))
	r.set("oltp.wal_bytes_per_write", ratio(float64(base.io.bytesWritten()), float64(len(writes))))
	// Commit I/O is what the log saw outside checkpoints (a checkpoint
	// writes and syncs the new log's header).
	commit := base.io.minus(base.ckptIO)
	commits := float64(base.commits)
	r.set("wal.append_us", ratio(us(commit.LogWrite.Time), commits))
	r.set("wal.fsync_us", ratio(us(commit.LogSync.Time), commits))
	r.set("wal.fsyncs_per_commit", ratio(float64(commit.LogSync.Calls), commits))
	r.set("wal.bytes_per_commit", ratio(float64(commit.LogWrite.Bytes), commits))
	n := float64(len(in.checkpoints))
	var total time.Duration
	for _, d := range in.checkpoints {
		total += d
	}
	r.set("wal.checkpoint_ms", ratio(ms(total), n))
	r.set("wal.checkpoint_bytes", ratio(float64(in.ckptIO.bytesWritten()), n))
	r.set("wal.recovery_commits", float64(recov.commits))
	r.set("wal.open_ms", ms(recov.open))
}

// storageProbes are micro-measurements of the storage layer's index
// paths on the workload's largest temporal table, taken after the last
// pass because the rebuild probe bumps the table's version.
type storageProbes struct {
	overlapNS, rebuildUS, lookupNS, rows float64
}

func probeStorage(in *instance) storageProbes {
	cat := in.db.Engine().Cat
	var big *storage.Table
	var p storageProbes
	for _, name := range cat.TableNames() {
		t := cat.Table(name)
		if t == nil || t.Temporary {
			continue
		}
		p.rows += float64(len(t.Rows))
		if t.ValidTime && (big == nil || len(t.Rows) > len(big.Rows)) {
			big = t
		}
	}
	if big == nil || len(big.Rows) == 0 {
		return p
	}
	const probes = 2000
	big.Overlapping(0, 0) // build the index outside the timed probes
	start := time.Now()
	for i := int64(0); i < probes; i++ {
		d := taubench.TimelineStart() + (i*7)%int64(coldSpan)
		big.Overlapping(d, d)
	}
	p.overlapNS = float64(time.Since(start)) / probes
	big.Lookup(0, big.Rows[0][0])
	start = time.Now()
	for i := 0; i < probes; i++ {
		big.Lookup(0, big.Rows[i%len(big.Rows)][0])
	}
	p.lookupNS = float64(time.Since(start)) / probes
	const rebuilds = 5
	start = time.Now()
	for i := 0; i < rebuilds; i++ {
		big.Bump()
		big.Overlapping(0, 0)
	}
	p.rebuildUS = us(time.Since(start)) / rebuilds
	return p
}

// traceOut is the shape of trace-<workload>.json.
type traceOut struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Spans    []spanSelf `json:"spans"`
}

type spanSelf struct {
	span
	Self int64 `json:"self_ns"`
}

func traceFile(w workload, c config, rec *recorder) traceOut {
	self := selfTimes(rec.spans)
	out := traceOut{Workload: w.name, Seed: c.seed, Spans: make([]spanSelf, len(rec.spans))}
	for i, s := range rec.spans {
		out.Spans[i] = spanSelf{span: s, Self: self[i]}
	}
	return out
}
