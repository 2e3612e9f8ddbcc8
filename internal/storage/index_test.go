package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

// TestIndexesFollowWrites is the oracle of index maintenance: seeded
// random sequences of appends, sets, retains, restores and Bumps —
// NULL, string and degenerate periods among the values — on a valid-time
// and a bitemporal table, with lookups and stabs between them building
// the indexes. After every step each built hash index holds, bucket for
// bucket, what one built from scratch over the rows holds, and the
// interval index, when built, answers AppendOverlapping at every
// endpoint and over ranges between them as a fresh table does.
func TestIndexesFollowWrites(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, bitemporal := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/bitemporal=%v", seed, bitemporal), func(t *testing.T) {
				followWrites(t, rand.New(rand.NewSource(seed)), bitemporal)
			})
		}
	}
}

func followWrites(t *testing.T, rng *rand.Rand, bitemporal bool) {
	tab := NewTemporalTable("t", []Column{
		{Name: "id", Type: sqlast.TypeName{Base: "INTEGER"}},
		{Name: "name", Type: sqlast.TypeName{Base: "VARCHAR"}},
	}, true, bitemporal)
	n := len(tab.Schema.Cols)
	value := func(c int) types.Value {
		switch r := rng.Intn(12); {
		case r == 0:
			return types.Null
		case c == 1 || r == 1:
			return types.NewString(string(rune('a' + rng.Intn(4))))
		case c == 0:
			return types.NewInt(int64(rng.Intn(6)))
		}
		return types.NewDate(int64(rng.Intn(40)))
	}
	row := func() []types.Value {
		r := make([]types.Value, n)
		for c := range r {
			r[c] = value(c)
		}
		if rng.Intn(3) > 0 && r[tab.BeginCol()].IsInstant() { // mostly a proper period
			r[tab.EndCol()] = types.NewDate(r[tab.BeginCol()].I + int64(rng.Intn(15)))
		}
		return r
	}
	var saved [][][]types.Value
	maintained := 0 // checks of an interval index the writes changed
	for step := 0; step < 600; step++ {
		var op string
		switch r := rng.Intn(20); {
		case r < 5:
			op = "lookup"
			c := rng.Intn(n)
			tab.Lookup(c, value(c))
		case r < 7:
			op = "stab"
			lo := int64(rng.Intn(40))
			tab.Overlapping(lo, lo+int64(rng.Intn(10)))
		case r < 12 || len(tab.Rows) == 0:
			op = "append"
			if err := tab.Insert(row()); err != nil {
				t.Fatal(err)
			}
		case r < 16:
			op = "set"
			cols := rng.Perm(n)[:1+rng.Intn(3)]
			vals := make([]types.Value, len(cols))
			for k, c := range cols {
				vals[k] = value(c)
			}
			tab.Set(rng.Intn(len(tab.Rows)), cols, vals)
		case r < 18:
			op = "retain"
			var kept [][]types.Value
			var removed []int
			for i, r := range tab.Rows {
				if rng.Intn(4) == 0 {
					removed = append(removed, i)
				} else {
					kept = append(kept, r)
				}
			}
			saved = append(saved, tab.Rows)
			tab.Retain(kept, removed)
		case r < 19 && len(saved) > 0:
			op = "restore"
			tab.Restore(saved[rng.Intn(len(saved))])
		default:
			op = "bump"
			tab.Rows[rng.Intn(len(tab.Rows))][tab.EndCol()] = value(tab.EndCol())
			tab.Bump()
		}
		if tab.ival != nil && tab.ival.churn > 0 {
			maintained++
		}
		checkIndexes(t, tab, fmt.Sprintf("step %d (%s)", step, op))
		if t.Failed() {
			return
		}
	}
	if maintained < 100 {
		t.Errorf("%d checks of a maintained interval index, want 100 or more", maintained)
	}
}

// checkIndexes compares tab's built indexes with ones built from scratch
// over its rows.
func checkIndexes(t *testing.T, tab *Table, at string) {
	t.Helper()
	fresh := NewTable(tab.Name, tab.Schema)
	fresh.ValidTime, fresh.TransactionTime = tab.ValidTime, tab.TransactionTime
	fresh.Restore(slices.Clone(tab.Rows))
	for col, idx := range tab.indexes {
		want := fresh.buildHash(col)
		for key, id := range want.ids {
			got, ok := idx.ids[key]
			if !ok || !slices.Equal(idx.ords[got], want.ords[id]) {
				t.Errorf("%s: column %d, key %q: bucket %v, want %v", at, col, key, bucketOf(idx, key), want.ords[id])
			}
		}
		for key, id := range idx.ids {
			if _, ok := want.ids[key]; !ok && len(idx.ords[id]) > 0 {
				t.Errorf("%s: column %d, key %q: bucket %v, want none", at, col, key, idx.ords[id])
			}
		}
	}
	if tab.ival == nil {
		return
	}
	points := []int64{-1, 100}
	for _, r := range tab.Rows {
		points = append(points, r[tab.BeginCol()].I, r[tab.EndCol()].I)
	}
	for k, p := range points {
		q := points[(k*7+3)%len(points)]
		for _, rg := range [][2]int64{{p, p}, {min(p, q), max(p, q)}} {
			got, _ := tab.Overlapping(rg[0], rg[1])
			want, _ := fresh.Overlapping(rg[0], rg[1])
			if !slices.Equal(got, want) {
				t.Errorf("%s: Overlapping(%d, %d) = %v, want %v", at, rg[0], rg[1], got, want)
			}
		}
	}
}

func bucketOf(idx *hashIndex, key string) []int {
	if id, ok := idx.ids[key]; ok {
		return idx.ords[id]
	}
	return nil
}

// Readers build a table's indexes lazily under its lock and then read
// them without it: goroutines asking for every column's hash index and
// for stabs at once, on a table written between the rounds, all read what
// one reader alone reads.
func TestConcurrentReadersShareBuiltIndexes(t *testing.T) {
	tab := NewTemporalTable("t", []Column{
		{Name: "id", Type: sqlast.TypeName{Base: "INTEGER"}},
		{Name: "name", Type: sqlast.TypeName{Base: "VARCHAR"}},
	}, true, false)
	for i := 0; i < 200; i++ {
		if err := tab.Insert([]types.Value{types.NewInt(int64(i % 7)), types.NewString(string(rune('a' + i%5))),
			types.NewDate(int64(i % 50)), types.NewDate(int64(i%50 + i%9))}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		fresh := NewTable(tab.Name, tab.Schema)
		fresh.ValidTime = true
		fresh.Restore(slices.Clone(tab.Rows))
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < 50; k++ {
					c, d := (g+k)%len(tab.Schema.Cols), int64((g*k)%60)
					v := tab.Rows[k%len(tab.Rows)][c]
					if got, want := tab.Lookup(c, v), fresh.buildHash(c); !slices.Equal(got, bucketOf(want, v.HashKey())) {
						t.Errorf("round %d: Lookup(%d, %v) = %v", round, c, v, got)
					}
					got, _ := tab.Overlapping(d, d)
					if want, _ := fresh.Overlapping(d, d); !slices.Equal(got, want) {
						t.Errorf("round %d: Overlapping(%d) = %v, want %v", round, d, got, want)
					}
				}
			}(g)
		}
		wg.Wait()
		tab.Set(round, []int{0, 3}, []types.Value{types.NewInt(99), types.NewDate(70)})
		tab.Retain(append(slices.Clone(tab.Rows[:5]), tab.Rows[6:]...), []int{5})
	}
}
