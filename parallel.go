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

// chunkCPTable wraps rows [lo, hi) of the constant-period table as an
// independent table sharing the underlying row storage (read-only).
func chunkCPTable(cp *storage.Table, lo, hi int) *storage.Table {
	t := storage.NewTable(cp.Name, cp.Schema)
	t.Temporary, t.Tiling = true, cp.Tiling
	t.Rows = cp.Rows[lo:hi]
	return t
}

// parallelChunkSize bounds the constant periods per engine call of a
// worker: small enough that the process entry's progress counters
// advance many times per statement (and a kill lands at the next chunk
// boundary), large enough that per-chunk execution setup stays amortized.
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

// runParallelMain evaluates the main statement on k workers, each taking
// one contiguous range of the constant periods in bounded-size chunks.
// Rows of different periods never interact, so the workers' results
// concatenated in worker order are the serial result as a bag — not in
// its order: the engine walks a chunk's tuples through its periods as
// it walks the whole statement's, and a result without ORDER BY has none
// (DESIGN §11). The ranges are static: no count in the statement record
// depends on scheduling. Each worker has its own engine session and
// keeps one function memo across its chunks (engine.KeepMemo), as a
// serial run does across periods. Worker stats merge into e's in worker
// order.
//
// Workers inherit the statement's process entry through NewSession:
// every completed chunk advances the shared constant-period/fragment
// progress counters, and each chunk boundary polls the kill switch —
// a KILL (or cancelled client context) stops every worker at its next
// boundary and surfaces the cancellation cause as the statement error.
//
// Under tracing, each worker emits a stratum.worker span parented to
// the execute span; the engine spans it produces parent to the worker
// span. Tracers are concurrency-safe by contract, so workers record
// directly — span IDs, not delivery order, carry the tree structure.
func (db *DB) runParallelMain(e *engine.DB, t *core.Translation, cp *storage.Table, k int) (*engine.Result, error) {
	n := len(cp.Rows)
	chunkSize := parallelChunkSize(n, k)
	outs := make([]engine.Result, k)
	errs := make([]error, k)
	wstats := make([]engine.Stats, k)
	var stop atomic.Bool
	e.Proc.SetWorkers(int64(k))
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		ses := e.NewSession()
		// The parallel-safety gate proves the statement write-free, so
		// workers don't journal; sharing e's journal would race.
		ses.Journal = nil
		ses.KeepMemo()
		var workerID obs.SpanID
		if e.Tracer != nil {
			ses.Trace, workerID = e.Trace.Child()
		}
		wg.Add(1)
		go func(w int, ses *engine.DB, workerID obs.SpanID) {
			defer wg.Done()
			defer ses.Release()
			start := time.Now()
			periods := 0
			out, end := &outs[w], (w+1)*n/k
			for lo := w * n / k; lo < end && !stop.Load(); lo += chunkSize {
				hi := min(lo+chunkSize, end)
				// Workers execute the one cached plan of t.Main, so they share
				// its source memos: one keeps a relation or hash table, the rest
				// are served it (write-free, so the stamps hold for the whole run).
				// The engine polls the kill switch as the chunk's statement starts.
				res, err := ses.ExecStmtWithTables(t.Main, map[string]*storage.Table{
					"taupsm_cp": chunkCPTable(cp, lo, hi),
				})
				if errs[w] = err; err != nil {
					stop.Store(true)
					break
				}
				out.Cols = res.Cols
				out.Rows = append(out.Rows, res.Rows...)
				out.Affected += res.Affected
				periods += hi - lo
				ses.Proc.AddPeriodsDone(int64(hi - lo))
			}
			if workerID != 0 {
				attrs := []obs.Attr{
					obs.AInt("worker", int64(w)),
					obs.AInt("periods", int64(periods)),
				}
				if errs[w] != nil {
					attrs = append(attrs, obs.A("error", errs[w].Error()))
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
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := &outs[0]
	for _, o := range outs[1:] {
		merged.Rows = append(merged.Rows, o.Rows...)
		merged.Affected += o.Affected
	}
	return merged, nil
}
