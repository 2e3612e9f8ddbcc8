package taupsm_test

// Correctness property of batched fragment execution: what a plan's
// sources remember between loads is a pure execution-strategy change, so
// over the full 16-query benchmark corpus the MAX path served from the
// source memos (the default) must produce exactly the rows of the MAX
// path whose session loads every source afresh (DB.QueryUnprepared) —
// under serial and parallel evaluation, also right after DML invalidated
// the kept relations mid-batch, and as a database recovered from
// snapshot + WAL — and the same multiset as PERST slicing. A result
// without ORDER BY has no order (parallel workers walk their chunks of
// the constant periods tuple-major), so it is compared as a bag; each
// query ordered by every output column is compared row for row.

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
			mem.SetStrategy(taupsm.Max)
			rec.SetStrategy(taupsm.Max)
			for _, v := range orderVariants(t, mem, taubench.SequencedSQL(q, 30)) {
				name := q.Name + " " + v.name
				// Batched, twice: the second run executes the plan the first one
				// built, and is served what its routine bodies' sources kept.
				cold, err := mem.Query(v.sql)
				if err != nil {
					t.Fatalf("%s par=%d batched cold: %v", name, par, err)
				}
				warm, err := mem.Query(v.sql)
				if err != nil {
					t.Fatalf("%s par=%d batched warm: %v", name, par, err)
				}
				want := v.render(cold)
				before[name] = want
				if g := v.render(warm); g != want {
					t.Errorf("%s par=%d: warm batched run diverges from cold\n--- cold\n%s\n--- warm\n%s",
						name, par, want, g)
				}

				plain, err := mem.QueryUnprepared(v.sql)
				if err != nil {
					t.Fatalf("%s par=%d unprepared: %v", name, par, err)
				}
				if g := v.render(plain); g != want {
					t.Errorf("%s par=%d: unprepared run diverges from batched\n--- batched\n%s\n--- unprepared\n%s",
						name, par, want, g)
				}

				// Recovered database, batched path.
				recovered, err := rec.Query(v.sql)
				if err != nil {
					t.Fatalf("%s par=%d recovered: %v", name, par, err)
				}
				if g := v.render(recovered); g != want {
					t.Errorf("%s par=%d: recovered batched run diverges\n--- in-memory\n%s\n--- recovered\n%s",
						name, par, want, g)
				}
			}

			// PERST computes the same information by an entirely
			// different plan shape (per-statement cursors), and the two
			// strategies fragment result periods differently — MAX one
			// row per constant period, PERST per stored fragment — so
			// the comparison is on coalesced results, where both
			// converge to the same canonical periods, as bags.
			if q.PerstOK {
				sql := taubench.SequencedSQL(q, 30)
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
		for _, v := range orderVariants(t, mem, taubench.SequencedSQL(q, 30)) {
			name := q.Name + " " + v.name
			batched, err := mem.Query(v.sql)
			if err != nil {
				t.Fatalf("%s after DML: %v", name, err)
			}
			plain, err := mem.QueryUnprepared(v.sql)
			if err != nil {
				t.Fatalf("%s after DML, unprepared: %v", name, err)
			}
			got := v.render(batched)
			if w := v.render(plain); got != w {
				t.Errorf("%s: batched run after DML diverges from unprepared (stale cached relation?)\n--- batched\n%s\n--- unprepared\n%s",
					name, got, w)
			}
			if got != before[name] {
				moved++
			}
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
