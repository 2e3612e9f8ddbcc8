package storage

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

func newTemporalTable(t *testing.T) *Table {
	t.Helper()
	tab := NewTable("iv", NewSchema([]Column{
		{Name: "id", Type: sqlast.TypeName{Base: "INT"}},
		{Name: "begin_time", Type: sqlast.TypeName{Base: "DATE"}},
		{Name: "end_time", Type: sqlast.TypeName{Base: "DATE"}},
	}))
	tab.ValidTime = true
	return tab
}

// TestOverlappingMatchesBruteForce cross-checks the interval tree
// against a direct scan over random period data, including stab
// queries (lo == hi) and ranges.
func TestOverlappingMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tab := newTemporalTable(t)
	type span struct{ b, e int64 }
	var spans []span
	for i := 0; i < 500; i++ {
		b := int64(rng.Intn(1000))
		e := b + 1 + int64(rng.Intn(200))
		spans = append(spans, span{b, e})
		if err := tab.Insert([]types.Value{
			types.NewInt(int64(i)), types.NewDate(b), types.NewDate(e),
		}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(lo, hi int64) {
		t.Helper()
		var want []int
		for i, s := range spans {
			if s.b <= hi && s.e > lo {
				want = append(want, i)
			}
		}
		got, ok := tab.Overlapping(lo, hi)
		if !ok {
			t.Fatalf("Overlapping(%d,%d): not indexable", lo, hi)
		}
		if !sort.IntsAreSorted(got) {
			t.Fatalf("Overlapping(%d,%d): ordinals not sorted: %v", lo, hi, got)
		}
		if len(got) != len(want) {
			t.Fatalf("Overlapping(%d,%d): got %d ordinals, want %d", lo, hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Overlapping(%d,%d): ordinal %d: got %d want %d", lo, hi, i, got[i], want[i])
			}
		}
		// Appending leaves what the caller's slice already holds alone,
		// however large, and sorts only what it appended.
		app, _ := tab.AppendOverlapping([]int{1 << 30, -7}, lo, hi)
		if len(app) != 2+len(want) || app[0] != 1<<30 || app[1] != -7 || !slices.Equal(app[2:], got) {
			t.Fatalf("AppendOverlapping(%d,%d) = %v, want the prefix then %v", lo, hi, app, got)
		}
	}
	for i := 0; i < 300; i++ {
		lo := int64(rng.Intn(1300)) - 50
		check(lo, lo) // stab
		check(lo, lo+int64(rng.Intn(150)))
	}
	check(-100, -50) // entirely before all data
	check(1400, 1500)
}

// TestOverlappingInvalidation proves the index follows table mutations.
func TestOverlappingInvalidation(t *testing.T) {
	tab := newTemporalTable(t)
	ins := func(id, b, e int64) {
		t.Helper()
		if err := tab.Insert([]types.Value{types.NewInt(id), types.NewDate(b), types.NewDate(e)}); err != nil {
			t.Fatal(err)
		}
	}
	ins(1, 10, 20)
	if got, _ := tab.Overlapping(15, 15); len(got) != 1 {
		t.Fatalf("stab 15: got %v", got)
	}
	ins(2, 12, 30)
	if got, _ := tab.Overlapping(15, 15); len(got) != 2 {
		t.Fatalf("after insert, stab 15: got %v", got)
	}
	tab.Rows[0][2] = types.NewDate(14) // shrink row 0's period in place
	tab.Bump()
	if got, _ := tab.Overlapping(15, 15); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after bump, stab 15: got %v", got)
	}
}

// TestOverlappingOddEndpoints proves rows with NULL endpoints are
// always returned as candidates for the caller's residual check.
func TestOverlappingOddEndpoints(t *testing.T) {
	tab := newTemporalTable(t)
	if err := tab.Insert([]types.Value{types.NewInt(1), types.NewDate(10), types.NewDate(20)}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert([]types.Value{types.NewInt(2), types.Value{}, types.NewDate(20)}); err != nil {
		t.Fatal(err)
	}
	got, ok := tab.Overlapping(100, 100)
	if !ok || len(got) != 1 || got[0] != 1 {
		t.Fatalf("stab 100: got %v ok=%v, want just the NULL-endpoint row", got, ok)
	}
}

// TestCatalogVersion proves the schema version bumps only on real
// mutations: no-op drops and identical routine re-registrations keep
// version-keyed caches warm.
func TestCatalogVersion(t *testing.T) {
	c := NewCatalog()
	v0 := c.Version()
	if c.DropTable("missing") {
		t.Fatal("DropTable of missing table reported true")
	}
	if c.Version() != v0 {
		t.Fatal("no-op DropTable bumped the version")
	}
	tab := NewTable("t", NewSchema([]Column{{Name: "a", Type: sqlast.TypeName{Base: "INT"}}}))
	c.PutTable(tab)
	if c.Version() == v0 {
		t.Fatal("PutTable did not bump the version")
	}
}

// ConstantPeriod brackets an instant by the nearest endpoints of any
// period column — both pairs of a bitemporal table — and answers for the
// instant alone on a table with an endpoint it cannot order.
func TestConstantPeriod(t *testing.T) {
	date := sqlast.TypeName{Base: "DATE"}
	tab := NewTable("bt", NewSchema([]Column{{Name: "id", Type: sqlast.TypeName{Base: "INT"}},
		{Name: "begin_time", Type: date}, {Name: "end_time", Type: date},
		{Name: "tt_begin_time", Type: date}, {Name: "tt_end_time", Type: date}}))
	tab.ValidTime, tab.TransactionTime = true, true
	for i, p := range [][4]int64{{10, 20, 12, 40}, {20, 30, 15, 40}} {
		row := []types.Value{types.NewInt(int64(i)), types.NewDate(p[0]), types.NewDate(p[1]), types.NewDate(p[2]), types.NewDate(p[3])}
		if err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	for at, want := range map[int64][2]int64{
		5: {math.MinInt64, 10}, 10: {10, 12}, 14: {12, 15}, 19: {15, 20}, 20: {20, 30}, 39: {30, 40}, 40: {40, math.MaxInt64},
	} {
		if lo, hi := tab.ConstantPeriod(at); lo != want[0] || hi != want[1] {
			t.Errorf("ConstantPeriod(%d) = [%d, %d), want [%d, %d)", at, lo, hi, want[0], want[1])
		}
	}
	tab.Rows[1][4] = types.Null
	tab.Bump()
	if lo, hi := tab.ConstantPeriod(14); lo != 14 || hi != 15 {
		t.Errorf("ConstantPeriod with a NULL endpoint = [%d, %d), want [14, 15)", lo, hi)
	}
	if lo, hi := NewTable("plain", tab.Schema).ConstantPeriod(14); lo != 14 || hi != 15 {
		t.Errorf("ConstantPeriod on a table without periods = [%d, %d), want [14, 15)", lo, hi)
	}
}
