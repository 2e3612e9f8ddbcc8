package taupsm_test

// Correctness property of batched fragment execution: what a plan's
// sources remember between loads is a pure execution-strategy change, so
// over the full 16-query benchmark corpus the MAX path served from the
// source memos (the default) must produce exactly the rows of the MAX
// path whose session loads every source afresh (DB.QueryUnprepared) —
// also right after DML invalidated the kept relations mid-batch, and as
// a database recovered from snapshot + WAL — and the same multiset as
// PERST slicing. A result without ORDER BY has no order (DESIGN §11),
// so it is compared as a bag; each query ordered by every output column
// is compared row for row.

import (
	"fmt"
	"strings"
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
	for _, q := range taubench.Queries() {
		mem.SetStrategy(taupsm.Max)
		rec.SetStrategy(taupsm.Max)
		for _, v := range orderVariants(t, mem, taubench.SequencedSQL(q, 30)) {
			name := q.Name + " " + v.name
			// Batched, twice: the second run executes the plan the first one
			// built, and is served what its routine bodies' sources kept.
			cold, err := mem.Query(v.sql)
			if err != nil {
				t.Fatalf("%s batched cold: %v", name, err)
			}
			warm, err := mem.Query(v.sql)
			if err != nil {
				t.Fatalf("%s batched warm: %v", name, err)
			}
			want := v.render(cold)
			before[name] = want
			if g := v.render(warm); g != want {
				t.Errorf("%s: warm batched run diverges from cold\n--- cold\n%s\n--- warm\n%s",
					name, want, g)
			}

			plain, err := mem.QueryUnprepared(v.sql)
			if err != nil {
				t.Fatalf("%s unprepared: %v", name, err)
			}
			if g := v.render(plain); g != want {
				t.Errorf("%s: unprepared run diverges from batched\n--- batched\n%s\n--- unprepared\n%s",
					name, want, g)
			}

			// Recovered database, batched path.
			recovered, err := rec.Query(v.sql)
			if err != nil {
				t.Fatalf("%s recovered: %v", name, err)
			}
			if g := v.render(recovered); g != want {
				t.Errorf("%s: recovered batched run diverges\n--- in-memory\n%s\n--- recovered\n%s",
					name, want, g)
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
				t.Fatalf("%s max coalesced: %v", q.Name, err)
			}
			mem.SetStrategy(taupsm.PerStatement)
			perst, err := mem.Query(sql)
			mem.CoalesceResults = false
			if err != nil {
				t.Fatalf("%s perst: %v", q.Name, err)
			}
			if w, g := enginetest.SortedRows(maxCoal), enginetest.SortedRows(perst); g != w {
				t.Errorf("%s: PERST diverges from batched MAX (coalesced)\n--- MAX\n%s\n--- PERST\n%s",
					q.Name, w, g)
			}
		}
		pairs++
	}
	if pairs < 16 {
		t.Fatalf("corpus ran only %d queries", pairs)
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

// orderVariant is a query and how its results compare: as a bag, or
// row for row when it orders by every output column.
type orderVariant struct {
	name, sql string
	render    func(*taupsm.Result) string
}

// orderVariants returns sql, compared as a bag, and sql ordered by
// every column it returns on db, compared row for row.
func orderVariants(t *testing.T, db *taupsm.DB, sql string) []orderVariant {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	ords := make([]string, len(res.Columns))
	for i := range ords {
		ords[i] = fmt.Sprint(i + 1)
	}
	return []orderVariant{
		{"unordered", sql, enginetest.SortedRows},
		{"ordered", sql + " ORDER BY " + strings.Join(ords, ", "), enginetest.RenderRows},
	}
}
