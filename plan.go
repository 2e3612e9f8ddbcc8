package taupsm

import (
	"errors"
	"strings"

	"taupsm/internal/core"
	"taupsm/internal/obs"
	"taupsm/internal/proc"
	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/temporal"
	"taupsm/internal/types"
)

// planCacheCap bounds the statement-plan cache, which is wiped wholesale
// when it outgrows it — staleness is handled by validation, the cap only
// bounds memory when many one-shot statements flow through.
const planCacheCap = 256

// stmtPlan is the stratum's plan of one statement, made once by
// buildPlan and read by three parties: run executes it, ExplainParsed
// renders it, the plan cache stores it. Only sequenced statements are
// cached — the strategy heuristic, routine cloning and slicing rewrites
// make their plans expensive; a current or nonsequenced statement's plan
// is a cheap syntax rewrite and carries nothing but t.
type stmtPlan struct {
	t *core.Translation // t.Strategy is the strategy chosen
	// reason is the §VII-F clause that chose it under Auto ("" under a
	// fixed strategy); fallback is why PERST did not apply, when it was (a).
	reason   core.Reason
	fallback error
	// summary is the effect summary of the translated main statement
	// (what runs); origSummary that of the statement as written (what the
	// user touches, and the only one naming the original routines, since
	// the translation calls clones).
	summary, origSummary *core.Summary

	// The rest changes after the plan is built and is guarded by db.mu: a
	// cached plan is shared by concurrent executions.

	// deps says whether the plan is still good: what both summaries
	// consulted resolves to the same catalog objects, and the temporal
	// tables — the Auto heuristic counted their rows, the constant periods
	// are computed from them — hold the same data. Nil on a non-sequenced
	// plan, which is built per execution and never shared.
	deps *storage.Deps
	// registered: t.Routines are installed in the catalog. deps pins the
	// clones from then on, so a valid plan skips registration.
	registered bool
	// cp is a MAX plan's constant-period relation for the evaluated context
	// cpCtx (a context written with CURRENT_DATE moves with SetNow), shared
	// read-only by executions.
	cp    *storage.Table
	cpCtx temporal.Period
}

func isSequenced(stmt sqlast.Stmt) bool {
	ts, ok := stmt.(*sqlast.TemporalStmt)
	return ok && ts.Mod == sqlast.ModSequenced
}

// buildPlan plans a statement under a strategy setting: the only place a
// strategy is chosen and a statement translated to run. It consults the
// catalog and changes nothing, so EXPLAIN and Translate may call it freely.
func (db *DB) buildPlan(stmt sqlast.Stmt, strategy Strategy) (*stmtPlan, error) {
	if !isSequenced(stmt) {
		t, err := db.tr.Translate(stmt, strategy)
		if err != nil {
			return nil, err
		}
		return &stmtPlan{t: t}, nil
	}
	// deps is started before anything is read: a racing change can only
	// make the plan look too old, never too new.
	p := &stmtPlan{deps: storage.NewDeps(db.eng.Cat)}
	if strategy == Auto {
		// The probe is the PERST translation of the statement itself: when
		// PERST wins it is the plan's, when PERST does not apply its error is.
		probe, perr := db.tr.Translate(stmt, PerStatement)
		strategy, p.reason = db.auto(stmt.(*sqlast.TemporalStmt), probe, perr)
		if strategy == PerStatement {
			p.t = probe
		} else if errors.Is(perr, core.ErrNotTransformable) {
			p.fallback = perr
		}
	}
	if p.t == nil {
		var err error
		if p.t, err = db.tr.Translate(stmt, strategy); err != nil {
			return nil, err
		}
	}
	db.summarize(p, stmt)
	db.pin(p)
	return p, nil
}

// auto applies the §VII-F heuristic to a sequenced statement and its
// PERST probe, off which applicability, per-period cursor use and the
// reachable temporal tables are read, and reports which clause decided.
func (db *DB) auto(ts *sqlast.TemporalStmt, probe *core.Translation, perr error) (Strategy, core.Reason) {
	f := core.Features{PerstTransformable: true, ContextDays: 1 << 30} // whole timeline
	var ctx temporal.Period
	if ts.Period != nil {
		ctx, _ = db.evalPeriod(ts.Period.Begin, ts.Period.End) // unevaluable: a zero-length context
		f.ContextDays = ctx.End - ctx.Begin
	}
	switch {
	case errors.Is(perr, core.ErrNotTransformable):
		f.PerstTransformable = false
	case perr != nil:
		return Max, core.ReasonProbeError
	default:
		f.UsesPerPeriodCursor = probe.UsesPerPeriodCursor
		f.TemporalRows = db.temporalRowCount()
		if est, ok := db.statsEstimates(probe.TemporalTables, probe.Dim, ts.Period == nil, ctx.Begin, ctx.End); ok {
			f.HasStats = true
			f.EstConstantPeriods = est.ConstantPeriods
			f.EstRows = est.Rows
		}
	}
	return core.ChooseExplained(f)
}

// temporalRowCount is the heuristic's "data set size" proxy: total
// rows across all temporal tables.
func (db *DB) temporalRowCount() int {
	n := 0
	for _, name := range db.eng.Cat.TableNames() {
		if t := db.eng.Cat.Table(name); t != nil && (t.ValidTime || t.TransactionTime) {
			n += len(t.Rows)
		}
	}
	return n
}

// summarize computes the plan's two effect summaries. buildPlan does it
// for every sequenced statement; a non-sequenced statement runs without
// (only EXPLAIN wants its read and write sets).
func (db *DB) summarize(p *stmtPlan, stmt sqlast.Stmt) {
	p.summary = db.mainSummary(p.t)
	p.origSummary = core.Summarize(db.eng.Cat, nil, stmt)
}

// mainSummary computes the interprocedural effect summary of a
// translation's main statement, resolving its routine clones first.
func (db *DB) mainSummary(t *core.Translation) *core.Summary {
	return core.Summarize(db.eng.Cat, cloneBodies(t), t.Main)
}

// cloneBodies maps the folded names of a translation's routine clones
// to their bodies: the locals the effect analysis resolves first, since
// the clones enter the catalog only when the translation runs.
func cloneBodies(t *core.Translation) map[string]sqlast.Stmt {
	local := map[string]sqlast.Stmt{}
	for _, r := range t.Routines {
		switch x := r.(type) {
		case *sqlast.CreateFunctionStmt:
			local[strings.ToLower(x.Name)] = x.Body
		case *sqlast.CreateProcedureStmt:
			local[strings.ToLower(x.Name)] = x.Body
		}
	}
	return local
}

// pin fills the plan's dependency set: what the summaries consulted plus
// the rows of the temporal tables. Done when the plan is built and again
// (under db.mu, the set reset) once its routines are registered and the
// clone names resolve to the installed clones.
func (db *DB) pin(p *stmtPlan) {
	cat := db.eng.Cat
	p.deps.Pin(cat, p.summary.Routines, p.summary.Tables)
	p.deps.Pin(cat, p.origSummary.Routines, p.origSummary.Tables)
	p.deps.PinRows(cat, p.t.TemporalTables)
}

// renderStmtSQL renders a statement back to SQL text, the plan cache's
// key ("" when the node cannot render itself). Text keys, not AST
// pointers, let EXPLAIN find the plan with its separately parsed body and
// make repeated Query(src) calls, each parsed anew, hit.
func renderStmtSQL(stmt sqlast.Stmt) string {
	if s, ok := stmt.(interface{ SQL() string }); ok {
		return s.SQL()
	}
	return ""
}

// planKey keys the plan cache by the statement's rendered text (the
// record's, rendered once) and the strategy setting.
func (db *DB) planKey(text string) string {
	if text == "" {
		return ""
	}
	return text + "\x00" + db.strategy.String()
}

// plan returns the statement's plan: the cached one while it is still
// good, a new one otherwise. Only building moves the Auto decision
// counters: a cached plan was decided once.
func (db *DB) plan(pr *proc.Process, stmt sqlast.Stmt) (*stmtPlan, error) {
	if !isSequenced(stmt) {
		return db.buildPlan(stmt, db.strategy)
	}
	key := db.planKey(pr.Text)
	if p := db.lookupPlan(key); p != nil {
		db.sm.transHits.Inc()
		pr.Note(func(rec *proc.Snapshot) { rec.TranslationCache = "hit" })
		return p, nil
	}
	db.sm.transMisses.Inc()
	pr.Note(func(rec *proc.Snapshot) { rec.TranslationCache = "miss" })
	p, err := db.buildPlan(stmt, db.strategy)
	if err != nil {
		return nil, err
	}
	if p.reason != "" {
		db.noteDecision(p)
	}
	if key != "" {
		db.mu.Lock()
		if len(db.plans) >= planCacheCap {
			db.plans = map[string]*stmtPlan{}
		}
		db.plans[key] = p
		db.mu.Unlock()
	}
	return p, nil
}

// noteDecision publishes an Auto decision an execution just made.
func (db *DB) noteDecision(p *stmtPlan) {
	db.sm.autoDecisions.Inc()
	if c := db.sm.autoReason[p.reason]; c != nil {
		c.Inc()
	}
	if p.fallback != nil {
		db.mu.Lock()
		db.lastFallbackErr = p.fallback
		db.mu.Unlock()
	}
	if db.tracer != nil {
		attrs := []obs.Attr{obs.A("strategy", p.t.Strategy.String()), obs.A("reason", string(p.reason))}
		if p.fallback != nil {
			attrs = append(attrs, obs.A("error", p.fallback.Error()))
		}
		db.tracer.Event(obs.Event{Name: "stratum.auto", Attrs: attrs})
	}
}

// lookupPlan returns the cached plan for key while its dependencies
// hold, or nil.
func (db *DB) lookupPlan(key string) *stmtPlan {
	if key == "" {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if p := db.plans[key]; p != nil && p.deps.Valid(db.eng.Cat) {
		return p
	}
	return nil
}

// newCPTable materializes constant periods as a taupsm_cp-shaped table
// (not placed in the catalog — executions bind it as a table variable).
func newCPTable(periods []temporal.Period) *storage.Table {
	tab := storage.NewTable("taupsm_cp", storage.NewSchema([]storage.Column{
		{Name: "begin_time", Type: sqlast.TypeName{Base: "DATE"}},
		{Name: "end_time", Type: sqlast.TypeName{Base: "DATE"}},
	}))
	tab.Temporary, tab.Tiling = true, true
	tab.Rows = make([][]types.Value, len(periods))
	for i, p := range periods {
		tab.Rows[i] = []types.Value{types.NewDate(p.Begin), types.NewDate(p.End)}
	}
	return tab
}

// heldCP returns the constant-period relation the plan holds for ctx, or
// nil. The plan was looked up valid, which covers the rows the relation
// was computed from; the context is all there is left to compare.
func (db *DB) heldCP(p *stmtPlan, ctx temporal.Period) *storage.Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	if p.cp != nil && p.cpCtx == ctx {
		return p.cp
	}
	return nil
}

// computeCP computes the constant-period relation of a MAX translation
// over ctx from the stored endpoints.
func (db *DB) computeCP(t *core.Translation, ctx temporal.Period) *storage.Table {
	var points []int64
	for _, v := range db.slicedEndpoints(t.TemporalTables, t.Dim) {
		points = append(points, v.Inside(ctx.Begin, ctx.End)...)
	}
	return newCPTable(temporal.ConstantPeriods(points, ctx))
}

// constantPeriodTable returns the constant-period relation for the
// plan's context: the one the plan holds when the context evaluates to
// the same period (a cp hit); otherwise it is computed — the statement's
// cp stage — and left on the plan.
func (db *DB) constantPeriodTable(pr *proc.Process, p *stmtPlan) (*storage.Table, error) {
	ctx, err := db.evalPeriod(p.t.ContextBegin, p.t.ContextEnd)
	if err != nil {
		return nil, err
	}
	if tab := db.heldCP(p, ctx); tab != nil {
		db.sm.cpHits.Inc()
		pr.Note(func(rec *proc.Snapshot) { rec.CPCache = "hit" })
		return tab, nil
	}
	db.sm.cpMisses.Inc()
	pr.Note(func(rec *proc.Snapshot) { rec.CPCache = "miss" })
	sc := db.enter(pr, "cp")
	tab := db.computeCP(p.t, ctx)
	db.leave(pr, sc, nil, nil)
	db.mu.Lock()
	p.cp, p.cpCtx = tab, ctx
	db.mu.Unlock()
	return tab, nil
}

// evalPeriod resolves a period written as expressions — a sequenced
// translation's temporal context — to concrete instants [Begin, End).
// Each bound is evaluated and read as a DATE (types.Convert), the way
// the translated statement compares it with a period column: a string is
// parsed as a date, an integer is a day number.
func (db *DB) evalPeriod(begin, end sqlast.Expr) (temporal.Period, error) {
	var p [2]int64
	for i, e := range [2]sqlast.Expr{begin, end} {
		v, err := db.eng.EvalConstExpr(e)
		if err == nil {
			v, err = types.Convert(v, types.KindDate)
		}
		if err != nil {
			return temporal.Period{}, err
		}
		p[i] = v.Int()
	}
	return temporal.Period{Begin: p[0], End: p[1]}, nil
}

// slicedEndpoints returns the endpoint views of the named tables that
// exist, each over the period columns a statement sliced along dim
// reads from it: those the translator names.
func (db *DB) slicedEndpoints(tables []string, dim sqlast.TemporalDimension) []*storage.Endpoints {
	var out []*storage.Endpoints
	for _, tn := range tables {
		tab := db.eng.Cat.Table(tn)
		if tab == nil {
			continue
		}
		bcol, ecol := db.tr.SlicePeriodCols(tab.Name, dim)
		if v := tab.Endpoints(tab.Schema.Index(bcol), tab.Schema.Index(ecol)); v != nil {
			out = append(out, v)
		}
	}
	return out
}

// contextCounts sums, over the named tables sliced along dim, the
// distinct endpoints strictly inside (b, e) and the stored fragments
// the context overlaps: EXPLAIN's estimates and the statement record's
// fragments are both this one count.
func (db *DB) contextCounts(tables []string, dim sqlast.TemporalDimension, b, e int64) (points, fragments int64) {
	for _, v := range db.slicedEndpoints(tables, dim) {
		points += int64(len(v.Inside(b, e)))
		fragments += v.Overlapping(b, e)
	}
	return points, fragments
}
