package taupsm_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"taupsm"
	"taupsm/internal/enginetest"
	"taupsm/internal/sqlparser"
	"taupsm/internal/taubench"
)

// TestParallelEqualsSerial is the correctness property of parallel MAX
// fragment evaluation: for every benchmark query, every parallelism
// degree produces the serial result, both raw and coalesced. A result
// without ORDER BY has no order — each worker walks its own chunk of the
// constant periods tuple-major, so neither the serial rows nor the
// chunks' concatenation is in period order — and is compared as a bag;
// the same query ordered by every output column is compared row for row.
func TestParallelEqualsSerial(t *testing.T) {
	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}
	r, err := taubench.NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	db := r.DB
	db.SetStrategy(taupsm.Max)
	for _, coalesce := range []bool{false, true} {
		db.CoalesceResults = coalesce
		for _, q := range taubench.Queries() {
			for _, v := range orderVariants(t, db, taubench.SequencedSQL(q, 30)) {
				db.SetParallelism(1)
				serial, err := db.Query(v.sql)
				if err != nil {
					t.Fatalf("%s serial: %v", q.Name, err)
				}
				want := v.render(serial)
				for _, par := range []int{4, 8} {
					db.SetParallelism(par)
					got, err := db.Query(v.sql)
					if err != nil {
						t.Fatalf("%s par=%d: %v", q.Name, par, err)
					}
					if g := v.render(got); g != want {
						t.Errorf("%s par=%d coalesce=%v %s: results diverge from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
							q.Name, par, coalesce, v.name, want, g)
					}
				}
			}
		}
	}
	if db.Metrics().Value("stratum.parallel.statements_total") == 0 {
		t.Fatal("no statement took the parallel path; the property test exercised nothing")
	}
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

// TestConcurrentQueries hammers one database from many goroutines —
// same and different sequenced statements, so the parse, translation,
// and constant-period caches and the parallel fragment path all run
// concurrently. Run under -race this is the re-entrancy proof for the
// read path.
func TestConcurrentQueries(t *testing.T) {
	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}
	r, err := taubench.NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	db := r.DB
	db.SetStrategy(taupsm.Max)
	db.SetParallelism(4)

	var stmts []string
	var want []int
	for _, q := range taubench.Queries()[:4] {
		for _, c := range []int{7, 30} {
			sql := taubench.SequencedSQL(q, c)
			res, err := db.Query(sql)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			stmts = append(stmts, sql)
			want = append(want, len(res.Rows))
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				k := (g + i) % len(stmts)
				res, err := db.Query(stmts[k])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				if len(res.Rows) != want[k] {
					errs <- fmt.Errorf("goroutine %d: %d rows, want %d", g, len(res.Rows), want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestParallelRefusesSharedWriteThroughCall is the regression test of a
// lost write in the effect summary: a routine the query calls inserts
// into a non-temporal table, whose access carries the empty dimension
// mask, and Summary.merge used to drop such accesses on the way from
// the callee's summary to the caller's. The statement then passed the
// parallel gate and its workers ran the INSERT concurrently — a data
// race on the table (run under -race). It must be refused and run
// serially, once per constant period and row.
func TestParallelRefusesSharedWriteThroughCall(t *testing.T) {
	db := taupsm.Open()
	db.SetNow(2010, 6, 15)
	db.MustExec(`
		CREATE TABLE emp (k INTEGER) AS VALIDTIME;
		CREATE TABLE audit (n INTEGER);
		NONSEQUENCED VALIDTIME INSERT INTO emp VALUES
		  (1, DATE '2010-01-01', DATE '2010-02-15'),
		  (2, DATE '2010-02-01', DATE '2010-03-15');
		CREATE FUNCTION noisy (kk INTEGER)
		RETURNS INTEGER
		MODIFIES SQL DATA
		LANGUAGE SQL
		BEGIN
		  INSERT INTO audit VALUES (kk);
		  RETURN kk;
		END;
	`)
	db.SetStrategy(taupsm.Max)
	db.SetParallelism(2)
	const sql = `VALIDTIME (DATE '2010-01-01', DATE '2010-04-01') SELECT noisy(k) FROM emp`

	stmt, err := sqlparser.ParseStatement(sql)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := db.TranslateStmt(stmt, taupsm.Max)
	if err != nil {
		t.Fatal(err)
	}
	if db.ParallelSafe(tr) {
		t.Error("a statement that writes a stored table through a called routine passed the parallel gate")
	}
	ex, err := db.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Parallelism != 1 || len(ex.Writes) != 1 || ex.Writes[0] != "audit[snapshot]" {
		t.Errorf("EXPLAIN: parallelism %d, writes %v; want 1 and [audit[snapshot]]", ex.Parallelism, ex.Writes)
	}

	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if n := db.Metrics().Value("stratum.parallel.statements_total"); n != 0 {
		t.Errorf("%v statements took the parallel path", n)
	}
	// Constant periods: [01-01,02-01) {1}, [02-01,02-15) {1,2}, [02-15,03-15) {2}.
	audit, err := db.Query(`SELECT n FROM audit`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || len(audit.Rows) != 4 {
		t.Errorf("%d result rows and %d audit rows, want 4 and 4", len(res.Rows), len(audit.Rows))
	}
}
