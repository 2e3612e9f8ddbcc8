package taupsm_test

import (
	"fmt"
	"sync"
	"testing"

	"taupsm"
	"taupsm/internal/taubench"
)

// TestConcurrentQueries hammers one database from many goroutines —
// same and different sequenced statements, so the parse, translation,
// and constant-period caches, the plans' source memos and the purity
// verdicts are all used concurrently. Run under -race this is the
// re-entrancy proof for the read path.
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
