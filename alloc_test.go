package taupsm_test

import (
	"testing"

	"taupsm"
	"taupsm/internal/enginetest"
	"taupsm/internal/taubench"
)

// q2MaxAllocCeiling bounds the heap allocations of one warm execution
// of corpus query q2 under forced MAX at a one-month context on
// DS1-SMALL: a routine call per (tuple, constant period), each running
// a cached, slot-bound SELECT. ISSUE 13 (bound plans) set it, ≈20 %
// above the 7,600 measured there (the parent commit allocated 43,180).
// It guards the per-row and per-call allocation the bound plan removed;
// raise it only with a `go run ./bench` run showing what
// seq-max-1y.allocs_per_stmt pays for the new figure.
const q2MaxAllocCeiling = 9100

func TestWarmMaxQueryAllocations(t *testing.T) {
	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}
	db := taupsm.Open()
	enginetest.LoadCorpus(t, db, spec)
	db.SetStrategy(taupsm.Max)
	db.SetParallelism(1)
	q, _ := taubench.QueryByName("q2")
	sql := taubench.SequencedSQL(q, 30)
	run := func() {
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	run() // translation, constant periods, plans and indexes are built here
	if got := testing.AllocsPerRun(5, run); got > q2MaxAllocCeiling {
		t.Fatalf("warm q2 under MAX allocates %.0f objects per execution, ceiling %d", got, q2MaxAllocCeiling)
	} else {
		t.Logf("warm q2 under MAX: %.0f allocations per execution", got)
	}
}
