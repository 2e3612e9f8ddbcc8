package taupsm_test

// Correctness property of batched fragment execution: what a plan's
// sources remember between loads is a pure execution-strategy change, so
// over the full 16-query benchmark corpus the MAX path served from the
// source memos (the default) must produce exactly the rows of the MAX
// path whose session loads every source afresh (DB.QueryUnprepared) —
// same order — under serial and parallel evaluation, also right after
// DML invalidated the kept relations mid-batch, and the same multiset as
// PERST slicing and as a database recovered from snapshot + WAL.

import (
	"testing"

	"taupsm"
	"taupsm/internal/enginetest"
	"taupsm/internal/taubench"
	"taupsm/internal/wal"
)

func TestBatchedExecutionProperty(t *testing.T) {
	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}

	mem := taupsm.Open()
	enginetest.LoadCorpus(t, mem, spec)
	mem.MustExec("ANALYZE") // mirrors the benchmark runner's setup

	fs := wal.NewMemFS()
	per, err := taupsm.OpenFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	enginetest.LoadCorpus(t, per, spec)
	if err := per.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	per.Close()
	rec, err := taupsm.OpenFS(fs.CrashImage())
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	rec.SetNow(2011, 1, 1)
	rec.MustExec("ANALYZE")

	pairs := 0
	before := map[string]string{} // each query's rows, ahead of the DML below
	for _, par := range []int{1, 4} {
		mem.SetParallelism(par)
		rec.SetParallelism(par)
		for _, q := range taubench.Queries() {
			sql := taubench.SequencedSQL(q, 30)
			mem.SetStrategy(taupsm.Max)
			rec.SetStrategy(taupsm.Max)

			// Batched, twice: the second run executes the plan the first one
			// built, and is served what its routine bodies' sources kept.
			cold, err := mem.Query(sql)
			if err != nil {
				t.Fatalf("%s par=%d batched cold: %v", q.Name, par, err)
			}
			warm, err := mem.Query(sql)
			if err != nil {
				t.Fatalf("%s par=%d batched warm: %v", q.Name, par, err)
			}
			want := enginetest.RenderRows(cold)
			before[q.Name] = want
			if g := enginetest.RenderRows(warm); g != want {
				t.Errorf("%s par=%d: warm batched run diverges from cold\n--- cold\n%s--- warm\n%s",
					q.Name, par, want, g)
			}

			plain, err := mem.QueryUnprepared(sql)
			if err != nil {
				t.Fatalf("%s par=%d unprepared: %v", q.Name, par, err)
			}
			if g := enginetest.RenderRows(plain); g != want {
				t.Errorf("%s par=%d: unprepared run diverges from batched\n--- batched\n%s--- unprepared\n%s",
					q.Name, par, want, g)
			}

			// Recovered database, batched path.
			recovered, err := rec.Query(sql)
			if err != nil {
				t.Fatalf("%s par=%d recovered: %v", q.Name, par, err)
			}
			if g := enginetest.RenderRows(recovered); g != want {
				t.Errorf("%s par=%d: recovered batched run diverges\n--- in-memory\n%s--- recovered\n%s",
					q.Name, par, want, g)
			}

			// PERST computes the same information by an entirely
			// different plan shape (per-statement cursors), and the two
			// strategies fragment result periods differently — MAX one
			// row per constant period, PERST per stored fragment — so
			// the row-for-row comparison is on coalesced results, where
			// both converge to the same canonical periods (order still
			// differs; compare sorted).
			if q.PerstOK {
				mem.CoalesceResults = true
				maxCoal, err := mem.Query(sql)
				if err != nil {
					t.Fatalf("%s par=%d max coalesced: %v", q.Name, par, err)
				}
				mem.SetStrategy(taupsm.PerStatement)
				perst, err := mem.Query(sql)
				mem.CoalesceResults = false
				if err != nil {
					t.Fatalf("%s par=%d perst: %v", q.Name, par, err)
				}
				if w, g := enginetest.SortedRows(maxCoal), enginetest.SortedRows(perst); g != w {
					t.Errorf("%s par=%d: PERST diverges from batched MAX (coalesced)\n--- MAX\n%s\n--- PERST\n%s",
						q.Name, par, w, g)
				}
			}
			pairs++
		}
	}
	if pairs < 32 {
		t.Fatalf("corpus ran only %d query/parallelism pairs", pairs)
	}

	// Mid-batch DML: every warm plan above keeps relations of item. The
	// update bumps the table's version, so the next batched run must
	// rebuild them and agree with the path loading afresh, not with its past.
	mem.SetStrategy(taupsm.Max)
	mem.MustExec(`VALIDTIME (DATE '2010-01-05', DATE '2010-01-20') UPDATE item SET price = price + 100.0, title = 'repriced'`)
	moved := 0
	for _, q := range taubench.Queries() {
		sql := taubench.SequencedSQL(q, 30)
		batched, err := mem.Query(sql)
		if err != nil {
			t.Fatalf("%s after DML: %v", q.Name, err)
		}
		plain, err := mem.QueryUnprepared(sql)
		if err != nil {
			t.Fatalf("%s after DML, unprepared: %v", q.Name, err)
		}
		got := enginetest.RenderRows(batched)
		if w := enginetest.RenderRows(plain); got != w {
			t.Errorf("%s: batched run after DML diverges from unprepared (stale cached relation?)\n--- batched\n%s--- unprepared\n%s",
				q.Name, got, w)
		}
		if got != before[q.Name] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the DML changed no query's result; the invalidation case compared nothing")
	}
	if mem.Metrics().Value("engine.plan_reuse_hits_total") == 0 {
		t.Fatal("no execution was served a relation from a source memo; the property compared nothing")
	}
	t.Logf("batched property: %d pairs agree; plan_reuse_hits=%d",
		pairs, mem.Metrics().Value("engine.plan_reuse_hits_total"))
}
