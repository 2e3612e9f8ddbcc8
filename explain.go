package taupsm

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"taupsm/internal/core"
	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// Explain describes how one Temporal SQL/PSM statement would execute —
// the translation plan and the slicing statistics — without executing
// it. It is produced by DB.Explain and by the SQL-level
// `EXPLAIN <statement>` (e.g. `EXPLAIN VALIDTIME SELECT ...`).
//
// The slicing numbers are exact, not estimates: ConstantPeriods and
// Fragments are computed from the stored data with the same code the
// executor uses, so running the statement immediately afterwards
// reports the same values through DB.Metrics (stratum.constant_periods
// and stratum.fragments).
type Explain struct {
	// Kind is the statement's temporal class: current, sequenced, or
	// nonsequenced.
	Kind string
	// Strategy is the slicing strategy a sequenced statement would use
	// (after resolving Auto with the §VII-F heuristic).
	Strategy Strategy
	// AutoReason names the heuristic clause that decided Strategy when
	// the database strategy is Auto; empty for fixed strategies.
	AutoReason string
	// TemporalTables are the temporal tables reachable from the
	// statement, directly or through routines.
	TemporalTables []string
	// Routines counts the transformed routine clones (curr_/max_/ps_)
	// the translation registers before running.
	Routines int
	// ContextBegin/ContextEnd are the resolved temporal context bounds
	// (sequenced statements only).
	ContextBegin, ContextEnd string
	// ConstantPeriods is the number of constant periods MAX slicing
	// computes for the context — the number of times MAX evaluates the
	// statement. Zero for PERST and non-sequenced statements.
	ConstantPeriods int
	// Fragments counts the stored row fragments of the reachable
	// temporal tables overlapping the context — the candidate
	// fragments a sequenced statement evaluates.
	Fragments int
	// HasStats reports that the statistics registry supplied the
	// estimates below; EstConstantPeriods and EstRows are the registry's
	// predictions of ConstantPeriods and Fragments, shown side by side
	// with the exact numbers so estimate drift is visible per statement.
	HasStats           bool
	EstConstantPeriods int64
	EstRows            int64
	// UsesPerPeriodCursor reports the PERST per-period cursor pattern
	// (the heuristic's clause b).
	UsesPerPeriodCursor bool
	// TranslationCacheHit reports that the plan cache holds a still-good
	// plan for this statement, CPCacheHit that this plan already holds the
	// constant periods of the statement's context: executing now would
	// recompute neither. Read-only — EXPLAIN neither stores a plan nor
	// moves the hit/miss counters.
	TranslationCacheHit bool
	CPCacheHit          bool
	// Durability summarizes the database's write-ahead-log state (epoch,
	// log bytes, what recovery replayed) for persistent databases; empty
	// for in-memory ones.
	Durability string
	// Reads and Writes are the statement's inferred effect sets: the
	// stored tables (and views) it can read or write, each with the
	// temporal dimensions touched, e.g. "item[validtime]". Computed by
	// the interprocedural effect analysis — the same summary that
	// revalidates the caches.
	Reads, Writes []string
	// Signatures are the typed signatures of the routine clones the
	// translation registers, e.g. "max_get_item_price(char, date) -> float".
	Signatures []string
	// RoutineMemo says, for every stored function the translated
	// statement can reach, whether the engine's per-statement
	// function-result memo may answer repeated calls of it —
	// "ps_get_author_name: memoizable", "max_get_author_name: memoizable
	// (windowed)" for a MAX clone — and, if not, why:
	// "noisy: not memoizable (writes audit)", "(ddl)", "(unknown callee)".
	// The verdict is the effect summary's (core.Summary.SharedEffect),
	// the one the engine's memo gate asks once the routine is registered.
	RoutineMemo []string
	// SQL is the conventional SQL/PSM script the statement compiles to.
	SQL string
	// Lint holds the static analyzer's findings for the statement
	// against the live catalog (warnings and errors; EXPLAIN reports
	// rather than rejects).
	Lint []Diagnostic
	// Analyzed is the executed statement's record — the same detached
	// snapshot its slow-query log line and the process list render — set
	// only by EXPLAIN ANALYZE / DB.ExplainAnalyze, nil for plain EXPLAIN.
	// Its trace's span tree is retrievable from DB.TraceBuffer and the
	// /traces endpoint by Analyzed.TraceID.
	Analyzed *ProcessSnapshot
}

// Explain parses one statement (a bare statement or an EXPLAIN
// statement) and describes how it would execute, without executing it.
func (db *DB) Explain(src string) (*Explain, error) {
	stmt, err := db.explainBody(src)
	if err != nil {
		return nil, err
	}
	return db.ExplainParsed(stmt)
}

// ExplainAnalyze parses one statement, executes it under a forced
// trace, and returns the plan annotated with the observed execution
// profile (Explain.Analyzed). The statement really runs: EXPLAIN
// ANALYZE of a DML statement modifies (and durably commits) data.
func (db *DB) ExplainAnalyze(src string) (*Explain, error) {
	stmt, err := db.explainBody(src)
	if err != nil {
		return nil, err
	}
	return db.explainAnalyzeParsed(context.Background(), stmt)
}

// explainBody parses the one statement of src, unwrapping an EXPLAIN.
func (db *DB) explainBody(src string) (sqlast.Stmt, error) {
	stmts, err := db.parseScript(context.Background(), src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("expected exactly one statement, found %d", len(stmts))
	}
	if ex, ok := stmts[0].(*sqlast.ExplainStmt); ok {
		return ex.Body, nil
	}
	return stmts[0], nil
}

// explainAnalyzeParsed computes the plan first (so the would-hit cache
// probes reflect the state the execution is about to see), then
// executes the statement under a forced trace and attaches its record.
// The execution is the one an unobserved run performs: tracing changes
// what is reported, not what runs.
func (db *DB) explainAnalyzeParsed(ctx context.Context, body sqlast.Stmt) (*Explain, error) {
	e, err := db.ExplainParsed(body)
	if err != nil {
		return nil, err
	}
	if ts := sessionFromContext(ctx); ts == nil || ts.tr == nil {
		ctx, _ = db.WithTrace(ctx)
	}
	_, snap, err := db.execStatement(ctx, body)
	if err != nil {
		return nil, err
	}
	e.Analyzed = &snap
	return e, nil
}

// ExplainParsed is Explain over a parsed statement.
func (db *DB) ExplainParsed(stmt sqlast.Stmt) (*Explain, error) {
	if _, ok := stmt.(*sqlast.ExplainStmt); ok {
		return nil, fmt.Errorf("EXPLAIN cannot be nested")
	}
	db.sm.explain.Inc()
	e := &Explain{Kind: stmtKind(stmt), Lint: db.LintParsed(stmt), Durability: db.durabilityNote()}

	// The plan rendered is the plan a subsequent execution runs: the
	// cached one when the key that execution would look up still holds a
	// good plan, one built the way that execution would build it
	// otherwise — read here, never stored, no counter moved.
	var p *stmtPlan
	if isSequenced(stmt) {
		p = db.lookupPlan(db.planKey(renderStmtSQL(stmt)))
		e.TranslationCacheHit = p != nil
	}
	if p == nil {
		var err error
		if p, err = db.buildPlan(stmt, db.strategy); err != nil {
			return nil, err
		}
	}
	t := p.t
	e.Strategy = t.Strategy
	e.AutoReason = string(p.reason)
	e.TemporalTables = append([]string(nil), t.TemporalTables...)
	e.Routines = len(t.Routines)
	e.UsesPerPeriodCursor = t.UsesPerPeriodCursor
	e.SQL = t.SQL()

	if t.ContextBegin != nil {
		ctx, cerr := db.evalPeriod(t.ContextBegin, t.ContextEnd)
		if cerr != nil {
			return nil, cerr
		}
		e.ContextBegin = types.FormatDate(ctx.Begin)
		e.ContextEnd = types.FormatDate(ctx.End)
		_, fragments := db.contextCounts(t.TemporalTables, t.Dim, ctx.Begin, ctx.End)
		e.Fragments = int(fragments)
		if est, ok := db.statsEstimates(t.TemporalTables, t.Dim, false, ctx.Begin, ctx.End); ok {
			e.HasStats = true
			e.EstConstantPeriods = est.ConstantPeriods
			e.EstRows = est.Rows
		}
		if t.NeedsConstantPeriods {
			cp := db.heldCP(p, ctx)
			e.CPCacheHit = cp != nil
			if cp == nil {
				cp = db.computeCP(t, ctx)
			}
			e.ConstantPeriods = len(cp.Rows)
		}
	}
	if !isSequenced(stmt) {
		db.summarize(p, stmt)
	}
	// origSummary summarizes the user's statement (not the translated
	// plan), so the read/write rows carry the temporal dimension the user
	// touches; summary is of the plan's main statement, which is what runs.
	sum := p.origSummary
	for _, name := range sum.ReadList() {
		e.Reads = append(e.Reads, fmt.Sprintf("%s[%s]", name, sum.Reads[name]))
	}
	for _, name := range sum.WriteList() {
		e.Writes = append(e.Writes, fmt.Sprintf("%s[%s]", name, sum.Writes[name]))
	}
	e.Signatures = routineSignatures(t)
	e.RoutineMemo = db.routineMemo(t, p.summary.Callees)
	return e, nil
}

// routineMemo renders the memo verdict of every stored function among
// callees, the per-routine summaries of everything the translation's
// main statement can reach.
func (db *DB) routineMemo(t *core.Translation, callees map[string]*core.Summary) []string {
	isFn := map[string]bool{} // clones shadow the catalog, as in cloneBodies
	windowed := map[string]bool{}
	for _, r := range t.Routines {
		switch x := r.(type) {
		case *sqlast.CreateFunctionStmt:
			isFn[strings.ToLower(x.Name)] = true
			windowed[strings.ToLower(x.Name)] = (&storage.Routine{Fn: x}).Instant() >= 0
		case *sqlast.CreateProcedureStmt:
			isFn[strings.ToLower(x.Name)] = false
		}
	}
	var out []string
	for name, sum := range callees {
		fn, clone := isFn[name]
		if !clone {
			r := db.eng.Cat.Routine(name)
			fn = r != nil && r.Kind == storage.KindFunction
		}
		if !fn {
			continue // procedures are never memoized
		}
		verdict := "memoizable"
		if why := sum.SharedEffect(); why != "" {
			verdict = "not memoizable (" + why + ")"
		} else if windowed[name] {
			verdict += " (windowed)"
		}
		out = append(out, name+": "+verdict)
	}
	sort.Strings(out)
	return out
}

// routineSignatures renders the typed signatures of the translation's
// routine clones from their declared parameter and return types.
func routineSignatures(t *core.Translation) []string {
	kind := func(tn sqlast.TypeName) string {
		if tn.IsCollection() {
			return "table"
		}
		return strings.ToLower(tn.Kind().String())
	}
	params := func(ps []sqlast.ParamDef) string {
		parts := make([]string, len(ps))
		for i, p := range ps {
			parts[i] = kind(p.Type)
			if m := p.Mode.String(); m != "" && m != "IN" {
				parts[i] = strings.ToLower(m) + " " + parts[i]
			}
		}
		return strings.Join(parts, ", ")
	}
	var out []string
	for _, r := range t.Routines {
		switch x := r.(type) {
		case *sqlast.CreateFunctionStmt:
			out = append(out, fmt.Sprintf("%s(%s) -> %s", x.Name, params(x.Params), kind(x.Returns)))
		case *sqlast.CreateProcedureStmt:
			out = append(out, fmt.Sprintf("%s(%s)", x.Name, params(x.Params)))
		}
	}
	return out
}

// Result renders the explanation as a two-column (property, value)
// result set — what the SQL-level EXPLAIN statement returns.
func (e *Explain) Result() *Result {
	out := &Result{Columns: []string{"property", "value"}}
	add := func(prop, val string) {
		out.Rows = append(out.Rows, []Value{
			{inner: types.NewString(prop)}, {inner: types.NewString(val)},
		})
	}
	// list renders lines under one property name, on the first row only.
	list := func(prop string, lines []string) {
		for i, line := range lines {
			if i > 0 {
				prop = ""
			}
			add(prop, line)
		}
	}
	add("kind", e.Kind)
	if e.Kind == "sequenced" {
		add("strategy", e.Strategy.String())
		if e.AutoReason != "" {
			add("auto_reason", e.AutoReason)
		}
		add("context", fmt.Sprintf("[%s, %s)", e.ContextBegin, e.ContextEnd))
	}
	if len(e.TemporalTables) > 0 {
		add("temporal_tables", strings.Join(e.TemporalTables, ", "))
	}
	if len(e.Reads) > 0 {
		add("reads", strings.Join(e.Reads, ", "))
	}
	if len(e.Writes) > 0 {
		add("writes", strings.Join(e.Writes, ", "))
	}
	if e.Routines > 0 {
		add("routines", fmt.Sprintf("%d", e.Routines))
	}
	list("typed_signature", e.Signatures)
	list("routine_memo", e.RoutineMemo)
	if e.Kind == "sequenced" {
		if e.Strategy == Max {
			add("constant_periods", fmt.Sprintf("%d", e.ConstantPeriods))
		}
		if e.HasStats {
			add("est_constant_periods", fmt.Sprintf("%d", e.EstConstantPeriods))
		}
		add("fragments", fmt.Sprintf("%d", e.Fragments))
		if e.HasStats {
			add("est_rows", fmt.Sprintf("%d", e.EstRows))
		}
		if e.UsesPerPeriodCursor {
			add("per_period_cursor", "true")
		}
		hitMiss := func(hit bool) string {
			if hit {
				return "hit"
			}
			return "miss"
		}
		add("translation_cache", hitMiss(e.TranslationCacheHit))
		if e.Strategy == Max {
			add("cp_cache", hitMiss(e.CPCacheHit))
		}
	}
	if a := e.Analyzed; a != nil {
		num := func(prop string, n int64) { add(prop, fmt.Sprintf("%d", n)) }
		add("actual_time", time.Duration(a.ElapsedNS).String())
		if a.TraceID != "" {
			add("trace_id", a.TraceID)
		}
		num("pid", a.ID)
		for _, st := range a.Stages {
			add("actual_"+st.Name, time.Duration(st.NS).String())
		}
		if a.FsyncNS > 0 {
			add("actual_fsync", time.Duration(a.FsyncNS).String())
		}
		num("actual_rows", a.Rows)
		positive := func(prop string, n int64) {
			if n > 0 {
				num(prop, n)
			}
		}
		positive("actual_affected", a.Affected)
		positive("actual_rows_scanned", a.RowsScanned)
		positive("actual_routine_calls", a.RoutineCalls)
		positive("actual_memo_hits", a.MemoHits)
		positive("actual_reused_calls", a.ReusedCalls)
		positive("actual_routine_executions", a.RoutineCalls-a.MemoHits)
		if e.Kind == "sequenced" && e.Strategy == Max {
			num("actual_constant_periods", a.CPTotal)
			num("actual_fragments", a.Fragments)
		}
		if e.Kind == "sequenced" {
			num("actual_plan_reuse", a.PlanReuseHits)
		}
		if a.TranslationCache != "" {
			add("actual_translation_cache", a.TranslationCache)
		}
		if a.CPCache != "" {
			add("actual_cp_cache", a.CPCache)
		}
		if a.WALBytes > 0 || a.WALFsyncs > 0 {
			num("actual_wal_bytes", a.WALBytes)
			num("actual_wal_fsyncs", a.WALFsyncs)
		}
	}
	if e.Durability != "" {
		add("durability", e.Durability)
	}
	lint := make([]string, len(e.Lint))
	for i, d := range e.Lint {
		lint[i] = d.String()
	}
	list("lint", lint)
	list("plan", strings.Split(strings.TrimRight(e.SQL, "\n"), "\n"))
	return out
}

// String renders the explanation as the same aligned text table the
// SQL-level EXPLAIN prints.
func (e *Explain) String() string { return e.Result().String() }
