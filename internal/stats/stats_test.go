package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// temporalTable builds a valid-time table with the standard trailing
// begin_time/end_time layout and the given periods as rows.
func temporalTable(name string, periods ...[2]int64) *storage.Table {
	t := storage.NewTable(name, storage.NewSchema([]storage.Column{
		{Name: "id", Type: sqlast.TypeName{Base: "INTEGER"}},
		{Name: "begin_time", Type: sqlast.TypeName{Base: "DATE"}},
		{Name: "end_time", Type: sqlast.TypeName{Base: "DATE"}},
	}))
	t.ValidTime = true
	for i, p := range periods {
		t.Rows = append(t.Rows, []types.Value{
			types.NewInt(int64(i)), types.NewInt(p[0]), types.NewInt(p[1]),
		})
	}
	return t
}

func row(id, b, e int64) []types.Value {
	return []types.Value{types.NewInt(id), types.NewInt(b), types.NewInt(e)}
}

func TestHistBucket(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {math.MaxInt64, HistBuckets - 1},
	}
	for _, c := range cases {
		if got := histBucket(c.v); got != c.want {
			t.Errorf("histBucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's value range must be (2^(i-1), 2^i]: the bound
	// itself lands in the bucket, the next value in the following one.
	for i := 1; i < HistBuckets-1; i++ {
		bound := int64(1) << uint(i)
		if histBucket(bound) != i {
			t.Errorf("2^%d must land in bucket %d, got %d", i, i, histBucket(bound))
		}
		if histBucket(bound+1) != i+1 {
			t.Errorf("2^%d+1 must land in bucket %d, got %d", i, i+1, histBucket(bound+1))
		}
	}
}

func TestIncrementalMatchesRecompute(t *testing.T) {
	// Drive a random DML history through the registry hooks against a
	// shadow table, with every operation sometimes reverted (statement
	// rollback); the incrementally maintained distribution must equal a
	// from-scratch recompute after every step.
	rng := rand.New(rand.NewSource(7))
	tab := temporalTable("h")
	reg := NewRegistry()
	reg.Reset("h", false) // entry exists, dirty; first read recomputes
	var nextID int64
	for step := 0; step < 500; step++ {
		revert := rng.Intn(4) == 0
		switch op := rng.Intn(3); {
		case op == 0 || len(tab.Rows) == 0: // insert
			b := int64(rng.Intn(100))
			r := row(nextID, b, b+1+int64(rng.Intn(50)))
			nextID++
			tab.Rows = append(tab.Rows, r)
			reg.NoteInsert(tab, r)
			if revert {
				tab.Rows = tab.Rows[:len(tab.Rows)-1]
				reg.RevertInsert(tab, r)
			}
		case op == 1: // delete a random row
			i := rng.Intn(len(tab.Rows))
			r := tab.Rows[i]
			tab.Rows = append(tab.Rows[:i], tab.Rows[i+1:]...)
			reg.NoteDelete(tab, r)
			if revert {
				tab.Rows = append(tab.Rows, r)
				reg.RevertDelete(tab, r)
			}
		default: // update a random row's period
			i := rng.Intn(len(tab.Rows))
			old := tab.Rows[i]
			b := int64(rng.Intn(100))
			upd := row(old[0].I, b, b+1+int64(rng.Intn(50)))
			tab.Rows[i] = upd
			reg.NoteUpdate(tab, old, upd)
			if revert {
				tab.Rows[i] = old
				reg.RevertUpdate(tab, old, upd)
			}
		}
		got := reg.DistributionOf(tab)
		want := RecomputeDistribution(tab)
		if !got.Equal(want) {
			t.Fatalf("step %d: incremental distribution diverged\n got %+v\nwant %+v", step, got, want)
		}
	}
}

func TestInteriorPointsAndRowsOverlapping(t *testing.T) {
	// Periods [10,20) [15,30) [20,40): endpoints {10,15,20,30,40}.
	tab := temporalTable("t", [2]int64{10, 20}, [2]int64{15, 30}, [2]int64{20, 40})
	reg := NewRegistry()

	cases := []struct {
		b, e                 int64
		wantPoints, wantRows int64
	}{
		{0, 100, 5, 3},                       // everything interior
		{10, 40, 3, 3},                       // bounds excluded: {15,20,30}
		{math.MinInt64, math.MaxInt64, 5, 3}, // whole timeline
		{12, 18, 1, 2},                       // {15}; overlaps rows 1 and 2
		{20, 40, 1, 2},                       // {30}; row [10,20) ends at 20 → excluded
		{40, 50, 0, 0},                       // past the extent
		{0, 10, 0, 0},                        // before the extent
		{15, 15, 0, 0},                       // empty context
	}
	for _, c := range cases {
		if got := reg.InteriorPoints(tab, c.b, c.e); got != c.wantPoints {
			t.Errorf("InteriorPoints(%d,%d) = %d, want %d", c.b, c.e, got, c.wantPoints)
		}
		if got := reg.RowsOverlapping(tab, c.b, c.e); got != c.wantRows {
			t.Errorf("RowsOverlapping(%d,%d) = %d, want %d", c.b, c.e, got, c.wantRows)
		}
	}

	// Non-temporal tables always report full row count.
	plain := temporalTable("p", [2]int64{1, 2})
	plain.ValidTime = false
	if got := reg.RowsOverlapping(plain, 100, 200); got != 1 {
		t.Errorf("non-temporal RowsOverlapping = %d, want 1", got)
	}
}

func TestAnalyzeSweep(t *testing.T) {
	// [10,20) [15,30) [20,40) [15,30): depth profile over the sorted
	// points {10,15,20,30,40} is 1,3,3,1 → max 3.
	tab := temporalTable("a",
		[2]int64{10, 20}, [2]int64{15, 30}, [2]int64{20, 40}, [2]int64{15, 30})
	reg := NewRegistry()
	snap := reg.Analyze(tab)
	if !snap.Analyzed || snap.AnalyzedRows != 4 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if snap.DistinctPoints != 5 || snap.ConstantPeriods != 4 {
		t.Fatalf("points=%d periods=%d, want 5 and 4", snap.DistinctPoints, snap.ConstantPeriods)
	}
	if snap.MaxOverlap != 3 {
		t.Fatalf("MaxOverlap = %d, want 3", snap.MaxOverlap)
	}
	if !reg.HasAnalyzed(tab) {
		t.Fatal("HasAnalyzed must be true after Analyze")
	}
	// Depths 1,3,3,1 land in buckets histBucket(1)=0 (×2) and
	// histBucket(3)=2 (×2).
	p := reg.Persist()
	if len(p) != 1 {
		t.Fatalf("persist entries: %d", len(p))
	}
	wantHist := []int64{0, 2, 2, 2}
	if len(p[0].OverlapHist) != len(wantHist) {
		t.Fatalf("OverlapHist pairs = %v, want %v", p[0].OverlapHist, wantHist)
	}
	for i := range wantHist {
		if p[0].OverlapHist[i] != wantHist[i] {
			t.Fatalf("OverlapHist pairs = %v, want %v", p[0].OverlapHist, wantHist)
		}
	}
}

func TestPersistInstallRoundTrip(t *testing.T) {
	tab := temporalTable("r", [2]int64{1, 5}, [2]int64{2, 9})
	reg := NewRegistry()
	reg.NoteInsert(tab, tab.Rows[0])
	reg.NoteInsert(tab, tab.Rows[1])
	reg.NoteUpdate(tab, tab.Rows[1], tab.Rows[1])
	reg.Analyze(tab)

	reg2 := NewRegistry()
	reg2.Install(reg.Persist())
	s := reg2.Snapshot(tab) // dirty entry: distribution recomputed from rows
	if s.Inserts != 2 || s.Updates != 1 || s.Deletes != 0 {
		t.Fatalf("counters after round trip: %+v", s)
	}
	if !s.Analyzed || s.MaxOverlap != 2 || s.AnalyzedRows != 2 {
		t.Fatalf("analyze extras after round trip: %+v", s)
	}
	if s.RowCount != 2 || s.DistinctPoints != 4 {
		t.Fatalf("recomputed distribution after round trip: %+v", s)
	}
	// Replay continuation: counters fold in, zero-delta is a no-op.
	reg2.AddReplayDelta("r", 1, 0, 2)
	reg2.AddReplayDelta("r", 0, 0, 0)
	s = reg2.Snapshot(tab)
	if s.Inserts != 3 || s.Deletes != 2 {
		t.Fatalf("replay deltas: %+v", s)
	}
}

func TestResetDropRestore(t *testing.T) {
	tab := temporalTable("x", [2]int64{1, 2})
	reg := NewRegistry()
	reg.NoteInsert(tab, tab.Rows[0])

	prev := reg.Reset("x", true)
	if prev == nil || prev.Inserts != 1 {
		t.Fatalf("Reset must return the previous entry, got %+v", prev)
	}
	if s := reg.Snapshot(tab); s.Inserts != 1 {
		t.Fatalf("preserve must carry counters: %+v", s)
	}
	if prev2 := reg.Reset("x", false); prev2 == nil {
		t.Fatal("second Reset lost the entry")
	}
	if s := reg.Snapshot(tab); s.Inserts != 0 {
		t.Fatalf("non-preserving Reset must zero counters: %+v", s)
	}

	dropped := reg.Drop("x")
	if dropped == nil {
		t.Fatal("Drop must return the entry")
	}
	reg.Restore("x", prev)
	if s := reg.Snapshot(tab); s.Inserts != 1 {
		t.Fatalf("Restore must reinstate the saved entry: %+v", s)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var reg *Registry
	tab := temporalTable("n", [2]int64{1, 2})
	reg.NoteInsert(tab, tab.Rows[0])
	reg.NoteDelete(tab, tab.Rows[0])
	reg.NoteUpdate(tab, tab.Rows[0], tab.Rows[0])
	reg.Reset("n", true)
	reg.Drop("n")
	reg.Restore("n", nil)
	reg.Install(nil)
	reg.AddReplayDelta("n", 1, 1, 1)
	reg.NoteRoutineCalls("p", 1)
	reg.NoteStatement("d", "SELECT 1", "query", "", 0, false)
	if reg.HasAnalyzed(tab) || reg.RowCount(tab) != 0 {
		t.Fatal("nil registry must report zero values")
	}
	if reg.InteriorPoints(tab, 0, 10) != 0 || reg.RowsOverlapping(tab, 0, 10) != 0 {
		t.Fatal("nil registry estimates must be zero")
	}
}

// The statement profile table is bounded: traffic whose text never
// repeats (more distinct digests than the cap) cannot grow it past the
// cap, and a digest that keeps recurring among it keeps its history.
func TestStatementProfilesCapped(t *testing.T) {
	reg := NewRegistry()
	const distinct = 3*statementProfileCap + 17
	for i := 0; i < distinct; i++ {
		reg.NoteStatement(fmt.Sprintf("cold%d", i), "SELECT ...", "current", "", time.Microsecond, false)
		reg.NoteStatement("hot", "VALIDTIME SELECT ...", "sequenced", "MAX", time.Microsecond, false)
		if n := len(reg.statements); n > statementProfileCap {
			t.Fatalf("after %d distinct statements the table holds %d profiles, cap %d", i+1, n, statementProfileCap)
		}
	}
	for _, s := range reg.StatementSnapshots() {
		if s.Digest == "hot" {
			if s.Calls != distinct {
				t.Fatalf("hot digest counted %d calls, want %d", s.Calls, distinct)
			}
			return
		}
	}
	t.Fatal("the hot digest was evicted")
}
