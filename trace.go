package taupsm

import (
	"context"
	"hash/fnv"
	"time"

	"taupsm/internal/engine"
	"taupsm/internal/obs"
	"taupsm/internal/proc"
	"taupsm/internal/sqlast"
)

// This file is the stratum half of the tracing layer: trace sessions
// (which sinks receive a statement's spans, under which trace ID), the
// sampling policy, and the three places a statement's record
// (proc.Process) is opened, clocked and published: begin, the stage
// helper, finish.
//
// A trace covers one top-level unit of work: one user statement, or —
// when Exec runs a multi-statement script — the whole script (the
// parse span and every statement root share the script's trace ID).
// Span identity lives in internal/obs; the stratum only decides when
// a trace starts and which spans join it.

// traceSession is the per-script (or per-statement) trace decision:
// the trace ID and the effective sink set. It rides on the
// context.Context so every layer below sees one consistent decision.
type traceSession struct {
	trace obs.TraceID
	tr    obs.Tracer
}

type traceSessionKey struct{}

func sessionFromContext(ctx context.Context) *traceSession {
	ts, _ := ctx.Value(traceSessionKey{}).(*traceSession)
	return ts
}

// WithTrace returns a context that forces span capture for every
// statement executed under it, regardless of the sampling setting,
// and the trace ID the spans will carry. Spans land in the trace
// buffer (TraceBuffer) and in the attached tracer, if any. The REPL's
// \trace and EXPLAIN ANALYZE are built on it.
func (db *DB) WithTrace(ctx context.Context) (context.Context, obs.TraceID) {
	ts := &traceSession{trace: obs.NewTraceID(), tr: obs.MultiTracer(db.tracer, db.ring)}
	return context.WithValue(ctx, traceSessionKey{}, ts), ts.trace
}

// ensureTraceContext attaches a trace session to ctx when none is
// present yet: the sampler decides once for the whole unit (script or
// statement). When the decision is "untraced", an empty session is
// still attached so the per-statement layer sees a decision was made
// and does not roll the sampler a second time.
func (db *DB) ensureTraceContext(ctx context.Context) context.Context {
	if sessionFromContext(ctx) != nil {
		return ctx
	}
	ts := db.newTraceSession()
	if ts == nil {
		ts = &traceSession{}
	}
	return context.WithValue(ctx, traceSessionKey{}, ts)
}

// newTraceSession makes the per-unit tracing decision: the attached
// tracer (SetTracer) always participates; the trace buffer joins for
// every Nth unit per the sampling setting. Nil when neither applies —
// the fully-disabled fast path.
func (db *DB) newTraceSession() *traceSession {
	var ring obs.Tracer
	if n := db.sampleN.Load(); n > 0 && db.sampleCtr.Add(1)%uint64(n) == 0 {
		ring = db.ring
	}
	tr := obs.MultiTracer(db.tracer, ring)
	if tr == nil {
		return nil
	}
	return &traceSession{trace: obs.NewTraceID(), tr: tr}
}

// SetTraceSampling controls span capture into the trace buffer: n = 1
// records every statement, n = k every kth, n = 0 (the default) none.
// Sampling is independent of SetTracer — an attached tracer always
// receives every span. The /traces telemetry endpoint and the
// taubench observability report read the sampled buffer.
func (db *DB) SetTraceSampling(n int) {
	if n < 0 {
		n = 0
	}
	db.sampleN.Store(int64(n))
}

// TraceSampling returns the current sampling setting (0 = off).
func (db *DB) TraceSampling() int { return int(db.sampleN.Load()) }

// TraceBuffer returns the bounded ring buffer holding recently
// sampled spans, grouped by trace ID — the store behind the /traces
// endpoint and the REPL's \trace.
func (db *DB) TraceBuffer() *obs.Ring { return db.ring }

// LastStatement reports the most recently executed statement's trace
// ID (zero when it was not traced) and its total duration — the
// record's elapsed time, which the stratum.statement root span and the
// slow-query log carry too, so \timing never disagrees with a trace.
func (db *DB) LastStatement() (obs.TraceID, time.Duration) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.lastTrace, db.lastDur
}

// noteControl times a statement that has no record (SHOW PROCESSLIST,
// KILL) for LastStatement.
func (db *DB) noteControl(start time.Time) {
	db.mu.Lock()
	db.lastTrace, db.lastDur = 0, time.Since(start)
	db.mu.Unlock()
}

// begin opens the statement's record and registers it in the process
// list: the SQL text is rendered and hashed here, once, and the trace
// decision is the context's session (possibly an empty "decided:
// untraced" one) or — for callers that never went through
// ensureTraceContext — a fresh per-statement sampling decision. A
// cancellable context gets a watcher that turns client cancellation
// into a kill.
func (db *DB) begin(ctx context.Context, stmt sqlast.Stmt) *proc.Process {
	ts := sessionFromContext(ctx)
	if ts == nil {
		ts = db.newTraceSession()
	}
	text := renderStmtSQL(stmt)
	pr := &proc.Process{Session: "embedded", Kind: stmtKind(stmt), Text: text, Digest: digestSQL(text)}
	if ts != nil && ts.tr != nil {
		pr.Tracer = ts.tr
		pr.Root = obs.SpanContext{Trace: ts.trace, Span: obs.NewSpanID()}
	}
	db.procs.Begin(pr)
	if ctx.Done() != nil {
		go pr.WatchContext(ctx)
	}
	return pr
}

// enter opens the named stage of pr's statement and returns the ID its
// span will carry (allocated at entry so children can name it; zero
// when the statement is not traced).
func (db *DB) enter(pr *proc.Process, name string) obs.SpanID {
	pr.Enter(name)
	if pr.Tracer == nil {
		return 0
	}
	return obs.NewSpanID()
}

// leave closes the stage in progress: one clock pair feeds the
// record's stage list, the stage's latency histogram (when it has one)
// and, when the statement is traced, a stratum.<stage> span under the
// root. Stage spans carry only a failure; the facts are attributes of
// the root span, rendered from the record.
func (db *DB) leave(pr *proc.Process, span obs.SpanID, h *obs.Histogram, err error) {
	name, start, d := pr.Leave()
	if h != nil {
		h.Record(d)
	}
	if pr.Tracer != nil {
		var attrs []obs.Attr
		if err != nil {
			attrs = []obs.Attr{obs.A("error", err.Error())}
		}
		pr.Tracer.Span(obs.Span{Name: "stratum." + name, Start: start, Dur: d,
			Trace: pr.Root.Trace, ID: span, Parent: pr.Root.Span, Attrs: attrs})
	}
}

// finish closes the statement's record and publishes it, once, to
// every consumer: the metrics registry and the shared engine
// statistics (work is the statement's engine session journal), the
// per-digest workload profile, LastStatement, the slow-query log, and
// the stratum.statement root span. It returns the detached record.
func (db *DB) finish(pr *proc.Process, res *Result, work engine.Stats, err error) proc.Snapshot {
	db.procs.Finish(pr)
	if res != nil {
		pr.SetRows(int64(len(res.Rows)))
	}
	pr.Note(func(rec *proc.Snapshot) {
		rec.MemoHits, rec.PlanReuseHits = work.RoutineMemoHits, work.PlanReuseHits
		if res != nil {
			rec.Affected = int64(res.Affected)
		}
		if err != nil {
			rec.Error = err.Error()
		}
	})
	snap := pr.Snapshot()
	total := time.Duration(snap.ElapsedNS)

	if c := db.sm.kind[snap.Kind]; c != nil {
		db.sm.statements.Inc()
		c.Inc()
	}
	db.sm.eng.add(work)
	db.mu.Lock()
	db.eng.Stats.Merge(work)
	db.lastTrace, db.lastDur = pr.Root.Trace, total
	db.mu.Unlock()
	db.eng.TabStats.NoteStatement(snap.Digest, snap.SQL, snap.Kind, snap.Strategy, total, err != nil)
	db.maybeSlowLog(&snap)
	if pr.Tracer != nil {
		pr.Tracer.Span(obs.Span{Name: "stratum.statement", Start: pr.Start, Dur: total,
			Trace: pr.Root.Trace, ID: pr.Root.Span, Attrs: snapshotAttrs(&snap)})
	}
	return snap
}

// snapshotAttrs renders a finished record as the attributes of its
// root span: the facts a trace viewer wants beside the stage timings.
func snapshotAttrs(s *proc.Snapshot) []obs.Attr {
	attrs := []obs.Attr{obs.A("kind", s.Kind), obs.AInt("pid", s.ID), obs.AInt("rows", s.Rows)}
	str := func(k, v string) {
		if v != "" {
			attrs = append(attrs, obs.A(k, v))
		}
	}
	num := func(k string, v int64) {
		if v != 0 {
			attrs = append(attrs, obs.AInt(k, v))
		}
	}
	str("strategy", s.Strategy)
	str("translation_cache", s.TranslationCache)
	str("cp_cache", s.CPCache)
	num("rows_scanned", s.RowsScanned)
	num("routine_calls", s.RoutineCalls)
	num("memo_hits", s.MemoHits)
	num("cp_total", s.CPTotal)
	num("fragments", s.Fragments)
	num("wal_bytes", s.WALBytes)
	str("error", s.Error)
	return attrs
}

// digestSQL is the statement digest carried by the record: a stable
// 64-bit FNV-1a of the rendered SQL text, so repeated executions of
// one statement aggregate under one key.
func digestSQL(text string) string {
	h := fnv.New64a()
	h.Write([]byte(text))
	return obs.TraceID(h.Sum64()).String()
}
