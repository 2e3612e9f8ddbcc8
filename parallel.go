package taupsm

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taupsm/internal/check"
	"taupsm/internal/core"
	"taupsm/internal/engine"
	"taupsm/internal/obs"
	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
)

// ParallelSafe decides whether a MAX-sliced translation's main
// statement may be evaluated as independent chunks of the constant-
// period relation — the gate buildPlan records on the plan, exported
// for the agreement tests between the static analyzer and the legacy
// inline walker. Chunking is sound because MAX injects the constant
// period into every output row (and into GROUP BY when aggregating),
// so rows from different periods never interact: DISTINCT, set
// operations, and grouping all partition by period. Two statement
// shapes break that independence and force serial evaluation:
//
//   - a top-level ORDER BY or FETCH FIRST, which orders/limits across
//     the whole result rather than per period;
//   - a reachable write to SHARED state: DML on a stored table, or DDL
//     against the shared catalog, whose concurrent execution would race.
//
// The second condition is the interprocedural effect summary's
// shared-write set, not mere write-freedom: writes confined to
// collection variables and to temporary tables a routine creates for
// itself are frame-local (each invocation gets a private instance), so
// a routine that stages intermediate results in its own temp table
// still qualifies. Both conditions are decided by the static analyzer
// (internal/check), the single source of truth for effect inference:
// the translation's routine clones resolve locals-first, everything
// else through the catalog.
func (db *DB) ParallelSafe(t *core.Translation) bool {
	return chunkOrderSafeMain(t) && db.mainSummary(t).SharedWriteFree()
}

// chunkOrderSafeMain is the statement-shape half of the parallel gate.
func chunkOrderSafeMain(t *core.Translation) bool {
	q, ok := t.Main.(sqlast.QueryExpr)
	return ok && check.ChunkOrderSafe(q)
}

// mainSummary computes the interprocedural effect summary of a
// translation's main statement, resolving its routine clones first.
func (db *DB) mainSummary(t *core.Translation) *check.Summary {
	return check.Summarize(check.FromStorage(db.eng.Cat), cloneBodies(t), t.Main)
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

// chunkCPTable wraps rows [lo, hi) of the constant-period table as an
// independent table sharing the underlying row storage (read-only).
func chunkCPTable(cp *storage.Table, lo, hi int) *storage.Table {
	t := storage.NewTable(cp.Name, cp.Schema)
	t.Temporary = true
	t.Rows = cp.Rows[lo:hi]
	return t
}

// parallelChunkSize bounds the constant periods per work unit: small
// enough that the process entry's progress counters advance many
// times per statement (and a kill lands at the next chunk boundary),
// large enough that per-chunk execution setup stays amortized.
func parallelChunkSize(n, workers int) int {
	size := n / (workers * 8)
	if size < 1 {
		return 1
	}
	if size > 64 {
		return 64
	}
	return size
}

// runParallelMain evaluates the main statement across a bounded worker
// pool pulling bounded-size chunks of constant periods from a shared
// queue. Because the translator prepends cp as the first FROM entry,
// the serial engine iterates periods outermost — so concatenating
// chunk results in chunk-index order reproduces the serial row order
// exactly, regardless of which worker ran which chunk. Each worker
// runs on its own engine session; the per-worker stats are merged
// into e's in worker-index order, deterministically.
//
// Workers inherit the statement's process entry through NewSession:
// every completed chunk advances the shared constant-period/fragment
// progress counters, and each chunk boundary polls the kill switch —
// a KILL (or cancelled client context) stops the queue and surfaces
// the cancellation cause as the statement error.
//
// Under tracing, each worker emits a stratum.worker span parented to
// the execute span; the engine spans it produces parent to the worker
// span. Tracers are concurrency-safe by contract, so workers record
// directly — span IDs, not delivery order, carry the tree structure.
func (db *DB) runParallelMain(e *engine.DB, t *core.Translation, cp *storage.Table, k int, prep *engine.Prepared) (*engine.Result, error) {
	n := len(cp.Rows)
	chunkSize := parallelChunkSize(n, k)
	nchunks := (n + chunkSize - 1) / chunkSize
	type chunkOut struct {
		res *engine.Result
		err error
	}
	outs := make([]chunkOut, nchunks)
	wstats := make([]engine.Stats, k)
	var next atomic.Int64
	var stop atomic.Bool
	e.Proc.SetWorkers(int64(k))
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		ses := e.NewSession()
		// The parallel-safety gate proves the statement write-free, so
		// workers don't journal; sharing e's journal would race.
		ses.Journal = nil
		var workerID obs.SpanID
		if e.Tracer != nil {
			ses.Trace, workerID = e.Trace.Child()
		}
		wg.Add(1)
		go func(w int, ses *engine.DB, workerID obs.SpanID) {
			defer wg.Done()
			start := time.Now()
			periods := 0
			var werr error
			for !stop.Load() {
				ci := int(next.Add(1)) - 1
				if ci >= nchunks {
					break
				}
				if err := ses.Proc.Killed(); err != nil {
					outs[ci] = chunkOut{err: err}
					stop.Store(true)
					break
				}
				lo := ci * chunkSize
				hi := lo + chunkSize
				if hi > n {
					hi = n
				}
				// Workers share the read-only prepared plan: the first one to
				// need a source relation or hash table builds it, the rest
				// reuse it (the statement is write-free here, so the plan's
				// version stamps stay valid for the whole run).
				res, err := ses.ExecPreparedWithTables(prep, t.Main, map[string]*storage.Table{
					"taupsm_cp": chunkCPTable(cp, lo, hi),
				})
				outs[ci] = chunkOut{res: res, err: err}
				if err != nil {
					werr = err
					stop.Store(true)
					break
				}
				periods += hi - lo
				ses.Proc.AddPeriodsDone(int64(hi - lo))
			}
			if workerID != 0 {
				attrs := []obs.Attr{
					obs.AInt("worker", int64(w)),
					obs.AInt("periods", int64(periods)),
				}
				if werr != nil {
					attrs = append(attrs, obs.A("error", werr.Error()))
				}
				e.Tracer.Span(obs.Span{Name: "stratum.worker", Start: start, Dur: time.Since(start),
					Trace: e.Trace.Trace, ID: workerID, Parent: e.Trace.Span, Attrs: attrs})
			}
			wstats[w] = ses.Stats
		}(w, ses, workerID)
	}
	wg.Wait()

	db.sm.parStmts.Inc()
	db.sm.parFrags.Add(int64(n))
	for _, s := range wstats {
		e.Stats.Merge(s)
	}
	merged := &engine.Result{}
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		if o.res == nil {
			continue
		}
		if merged.Cols == nil {
			merged.Cols = o.res.Cols
		}
		merged.Rows = append(merged.Rows, o.res.Rows...)
		merged.Affected += o.res.Affected
	}
	return merged, nil
}
