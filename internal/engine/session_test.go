package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"taupsm/internal/types"
)

// The stacks a released session leaves for the next are the GC's when no
// session takes them over idleCollections collections: the values a large
// top-level SELECT stacked are not pinned once the database is idle.
func TestReleasedStacksAreCollectable(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE a (x INTEGER); CREATE TABLE b (y INTEGER)`)
	for _, tab := range []struct {
		name string
		n    int
	}{{"a", 1000}, {"b", 100}} {
		vals := make([]string, tab.n)
		for i := range vals {
			vals[i] = fmt.Sprintf("(%d)", i)
		}
		mustExec(t, db, fmt.Sprintf(`INSERT INTO %s VALUES %s`, tab.name, strings.Join(vals, ", ")))
	}
	stmt := parseStmt(t, `SELECT a.x, b.y, a.x + b.y FROM a, b`)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	run := func() (stacked int64) {
		ses := db.NewSession()
		res, err := ses.ExecStmt(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 100_000 {
			t.Fatalf("got %d rows, want 100000", len(res.Rows))
		}
		stacked = int64(cap(ses.valBuf))*int64(unsafe.Sizeof(types.Value{})) + int64(cap(ses.rowBuf))*int64(unsafe.Sizeof([]types.Value{}))
		ses.Release()
		return stacked
	}
	before := heap()
	stacked := run()
	// The slot drops a set no session took over idleCollections
	// collections, from a cleanup that runs on its own goroutine after a
	// collection.
	held, gcs := heap()-before, 1
	for ; held > stacked/4 && gcs < 20; gcs++ {
		time.Sleep(time.Millisecond)
		held = heap() - before
	}
	t.Logf("the stacks held %d KiB; %d KiB remain after Release and %d collections", stacked>>10, held>>10, gcs)
	if held > stacked/4 {
		t.Errorf("%d KiB remain after Release and %d collections, of the %d KiB the stacks held", held>>10, gcs, stacked>>10)
	}
	db.scratch.mu.Lock()
	defer db.scratch.mu.Unlock()
	if len(db.scratch.free) != 0 {
		t.Error("the database still keeps the released stacks")
	}
}

// A collection during a statement and a few in the pause after it leave
// the stacks to the database's next session: only collections that find
// them unused count, so what a statement allocates does not depend on
// where the GC's cycles fell.
func TestStacksOutliveCollectionsBetweenStatements(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE a (x INTEGER); INSERT INTO a VALUES (1), (2), (3)`)
	stmt := parseStmt(t, `SELECT x FROM a`)
	collect := func() {
		runtime.GC()
		time.Sleep(5 * time.Millisecond) // the cleanup runs on its own goroutine
	}
	ses := db.NewSession()
	if _, err := ses.ExecStmt(stmt); err != nil {
		t.Fatal(err)
	}
	kept := ses.stacks
	collect()
	ses.Release()
	for range idleCollections - 1 {
		collect()
	}
	next := db.NewSession()
	defer next.Release()
	if next.stacks != kept {
		t.Fatalf("the next session grew new stacks after a collection during a statement and %d after it", idleCollections-1)
	}
}
