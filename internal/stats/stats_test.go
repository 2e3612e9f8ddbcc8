package stats

import (
	"fmt"
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

func TestAnalyzeSweep(t *testing.T) {
	// [10,20) [15,30) [20,40) [15,30): depth profile over the sorted
	// points {10,15,20,30,40} is 1,3,3,1 → max 3.
	tab := temporalTable("a",
		[2]int64{10, 20}, [2]int64{15, 30}, [2]int64{20, 40}, [2]int64{15, 30})
	reg := NewRegistry()
	reg.FoldAll(catalogWith(tab), []storage.Effect{eff(storage.EffAnalyze, "a")})
	snap := reg.Snapshot(tab)
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
		t.Fatal("HasAnalyzed must be true after ANALYZE")
	}
}

// catalogWith returns a catalog holding the given tables.
func catalogWith(tabs ...*storage.Table) *storage.Catalog {
	cat := storage.NewCatalog()
	for _, t := range tabs {
		cat.PutTable(t)
	}
	return cat
}

func eff(kind storage.EffectKind, name string) storage.Effect {
	return storage.Effect{Kind: kind, Name: name}
}

func TestPersistInstallRoundTrip(t *testing.T) {
	tab := temporalTable("r", [2]int64{1, 5}, [2]int64{2, 9})
	cat := catalogWith(tab)
	reg := NewRegistry()
	reg.FoldAll(cat, []storage.Effect{
		eff(storage.EffInsert, "r"), eff(storage.EffInsert, "r"), eff(storage.EffUpdate, "r"),
	})
	reg.FoldAll(cat, []storage.Effect{eff(storage.EffAnalyze, "r")})

	reg2 := NewRegistry()
	reg2.Install(reg.Persist())
	s := reg2.Snapshot(tab)
	if s.Inserts != 2 || s.Updates != 1 || s.Deletes != 0 {
		t.Fatalf("counters after round trip: %+v", s)
	}
	if !s.Analyzed || s.MaxOverlap != 2 || s.AnalyzedRows != 2 {
		t.Fatalf("analyze facts after round trip: %+v", s)
	}
	if s.RowCount != 2 || s.DistinctPoints != 4 {
		t.Fatalf("row-derived statistics after round trip: %+v", s)
	}
	// Replay continues the history with the same fold.
	reg2.FoldAll(cat, []storage.Effect{
		eff(storage.EffInsert, "r"), eff(storage.EffDelete, "r"), eff(storage.EffDelete, "r"),
	})
	if s = reg2.Snapshot(tab); s.Inserts != 3 || s.Deletes != 2 {
		t.Fatalf("folded continuation: %+v", s)
	}
}

// TestFoldRules pins the rules of the one fold: rows that arrive with
// their table are not DML, a put-table keeps the counters and clears
// the ANALYZE facts, a drop discards the entry, and only effects that
// were folded count at all.
func TestFoldRules(t *testing.T) {
	tab := temporalTable("x", [2]int64{1, 2})
	cat := catalogWith(tab)
	reg := NewRegistry()
	snap := func() TableSnapshot { return reg.Snapshot(tab) }

	reg.FoldAll(cat, []storage.Effect{eff(storage.EffPutTable, "x"), eff(storage.EffInsert, "x")})
	if s := snap(); s.Inserts != 0 || s.RowCount != 1 {
		t.Fatalf("rows loaded with their table must not count: %+v", s)
	}
	reg.FoldAll(cat, []storage.Effect{
		eff(storage.EffInsert, "X"), eff(storage.EffUpdate, "x"), eff(storage.EffDelete, "x"),
		eff(storage.EffInsert, "other"),
	})
	reg.FoldAll(cat, []storage.Effect{eff(storage.EffAnalyze, "x")})
	if s := snap(); s.Inserts != 1 || s.Updates != 1 || s.Deletes != 1 || !s.Analyzed {
		t.Fatalf("counters and ANALYZE: %+v", s)
	}
	// ALTER TABLE ... ADD VALIDTIME: a put-table and the table's rows.
	reg.FoldAll(cat, []storage.Effect{eff(storage.EffPutTable, "x"), eff(storage.EffInsert, "x")})
	if s := snap(); s.Inserts != 1 || s.Updates != 1 || s.Deletes != 1 || s.Analyzed {
		t.Fatalf("a put-table keeps the counters and clears ANALYZE: %+v", s)
	}
	reg.FoldAll(cat, []storage.Effect{eff(storage.EffDropTable, "x")})
	if s := snap(); s.Inserts != 0 || s.Updates != 0 || s.Deletes != 0 {
		t.Fatalf("a drop discards the entry: %+v", s)
	}
	for _, p := range reg.Persist() {
		if p.Name == "x" {
			t.Fatalf("dropped entry persisted: %+v", p)
		}
	}
	// An analyze effect naming no table changes nothing.
	reg.FoldAll(cat, []storage.Effect{eff(storage.EffAnalyze, "gone")})
	if reg.HasAnalyzed(temporalTable("gone")) {
		t.Fatal("analyze of a missing table recorded facts")
	}
}

// The statement profile table is bounded: traffic whose text never
// repeats (more distinct digests than the cap) cannot grow it past the
// cap, and a digest that keeps recurring among it keeps its history.
func TestStatementProfilesCapped(t *testing.T) {
	reg := NewRegistry()
	const distinct = 3*statementProfileCap + 17
	for i := 0; i < distinct; i++ {
		reg.NoteStatement(fmt.Sprintf("cold%d", i), "SELECT ...", "current", "", time.Microsecond, 0, false)
		reg.NoteStatement("hot", "VALIDTIME SELECT ...", "sequenced", "MAX", time.Microsecond, 0, false)
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
