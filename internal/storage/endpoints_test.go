package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/temporal"
	"taupsm/internal/types"
)

func TestInteriorPointsAndRowsOverlapping(t *testing.T) {
	// Periods [10,20) [15,30) [20,40): endpoints {10,15,20,30,40}.
	tab := newTemporalTable(t)
	for i, p := range [][2]int64{{10, 20}, {15, 30}, {20, 40}} {
		if err := tab.Insert([]types.Value{types.NewInt(int64(i)), types.NewDate(p[0]), types.NewDate(p[1])}); err != nil {
			t.Fatal(err)
		}
	}
	v := tab.Endpoints(tab.BeginCol(), tab.EndCol())
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
		{15, 15, 0, 1},                       // empty context: [10,20) holds 15 strictly inside
		{25, 16, 0, 1},                       // inverted context: [15,30) spans [16,25]
	}
	for _, c := range cases {
		if got := int64(len(v.Inside(c.b, c.e))); got != c.wantPoints {
			t.Errorf("Inside(%d,%d) holds %d points, want %d", c.b, c.e, got, c.wantPoints)
		}
		if got := v.Overlapping(c.b, c.e); got != c.wantRows {
			t.Errorf("Overlapping(%d,%d) = %d, want %d", c.b, c.e, got, c.wantRows)
		}
	}
	if tab.Endpoints(-1, 2) != nil || tab.Endpoints(1, 3) != nil {
		t.Error("a view over columns the table lacks must be nil")
	}
}

// TestEndpointViewMatchesBruteForce drives random DML — inserts,
// in-place updates, deletes, and statements that fail or roll back
// part-way and restore the rows the way the engine's journal does —
// through valid-time, transaction-time and bitemporal tables whose
// periods repeat, coincide, abut, are empty or inverted, or have NULL
// endpoints. After every statement each endpoint view must agree with a
// pass over the rows on interior points, overlap counts, length sum,
// constant periods and the cp relation.
func TestEndpointViewMatchesBruteForce(t *testing.T) {
	date := sqlast.TypeName{Base: "DATE"}
	for _, kind := range []string{"valid", "transaction", "bitemporal"} {
		t.Run(kind, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(kind))))
			cols := []Column{{Name: "id", Type: sqlast.TypeName{Base: "INT"}},
				{Name: "begin_time", Type: date}, {Name: "end_time", Type: date}}
			if kind == "bitemporal" {
				cols = append(cols, Column{Name: "tt_begin_time", Type: date}, Column{Name: "tt_end_time", Type: date})
			}
			tab := NewTable(kind, NewSchema(cols))
			tab.ValidTime = kind != "transaction"
			tab.TransactionTime = kind != "valid"

			endpoint := func() types.Value {
				if rng.Intn(40) == 0 {
					return types.Null
				}
				return types.NewDate(int64(rng.Intn(60)))
			}
			period := func() (types.Value, types.Value) {
				b := endpoint()
				switch rng.Intn(6) {
				case 0: // empty
					return b, b
				case 1: // inverted, or a NULL
					return b, endpoint()
				}
				if b.Kind == types.KindNull {
					return b, endpoint()
				}
				return b, types.NewDate(b.I + 1 + int64(rng.Intn(20)))
			}
			newRow := func(id int) []types.Value {
				if len(tab.Rows) > 0 && rng.Intn(5) == 0 { // a duplicate period
					return append([]types.Value{types.NewInt(int64(id))}, tab.Rows[rng.Intn(len(tab.Rows))][1:]...)
				}
				row := []types.Value{types.NewInt(int64(id))}
				for c := 1; c < len(cols); c += 2 {
					b, e := period()
					row = append(row, b, e)
				}
				return row
			}

			for step := 0; step < 300; step++ {
				// One statement: a few changes, then commit or roll back.
				before := tab.Rows
				type undo struct {
					row, old []types.Value
				}
				var undos []undo
				fails := rng.Intn(4) == 0
				for n := 1 + rng.Intn(3); n > 0; n-- {
					switch op := rng.Intn(3); {
					case op == 0 || len(tab.Rows) == 0:
						if err := tab.Insert(newRow(step)); err != nil {
							t.Fatal(err)
						}
					case op == 1:
						row := tab.Rows[rng.Intn(len(tab.Rows))]
						old := slices.Clone(row)
						b, e := period()
						c := 1 + 2*rng.Intn(len(cols)/2)
						row[c], row[c+1] = b, e
						undos = append(undos, undo{row, old})
						tab.Bump()
					default:
						i := rng.Intn(len(tab.Rows))
						tab.Rows = append(slices.Clone(tab.Rows[:i]), tab.Rows[i+1:]...)
						tab.Bump()
					}
					checkEndpointView(t, tab, fmt.Sprintf("step %d, mid-statement", step), rng)
				}
				if fails {
					for i := len(undos) - 1; i >= 0; i-- {
						copy(undos[i].row, undos[i].old)
					}
					tab.Rows = before
					tab.Bump()
				}
				checkEndpointView(t, tab, fmt.Sprintf("step %d (rolled back %v)", step, fails), rng)
			}
		})
	}
}

// checkEndpointView compares every endpoint view of tab with a pass over
// its rows at random contexts and instants.
func checkEndpointView(t *testing.T, tab *Table, where string, rng *rand.Rand) {
	t.Helper()
	ordered := true
	var allPoints []int64
	for bc := tab.BeginCol(); bc < len(tab.Schema.Cols); bc += 2 {
		v := tab.Endpoints(bc, bc+1)
		var points []int64
		var lenSum int64
		for _, row := range tab.Rows {
			b, e := row[bc], row[bc+1]
			ordered = ordered && b.IsInstant() && e.IsInstant()
			points = append(points, b.I, e.I)
			lenSum += e.I - b.I
		}
		allPoints = append(allPoints, points...)
		if v.LenSum != lenSum || len(v.ends) != len(tab.Rows) {
			t.Fatalf("%s, columns %d: length sum %d over %d rows, want %d over %d",
				where, bc, v.LenSum, len(v.ends), lenSum, len(tab.Rows))
		}
		for q := 0; q < 8; q++ {
			b, e := int64(rng.Intn(90)-10), int64(rng.Intn(90)-10)
			if q == 0 {
				b, e = math.MinInt64, math.MaxInt64
			}
			interior := map[int64]bool{}
			for _, p := range points {
				if b < p && p < e {
					interior[p] = true
				}
			}
			inside := v.Inside(b, e)
			if len(inside) != len(interior) {
				t.Fatalf("%s, columns %d: %d points inside (%d, %d), want %d", where, bc, len(inside), b, e, len(interior))
			}
			for _, p := range inside {
				if !interior[p] {
					t.Fatalf("%s, columns %d: %d is not inside (%d, %d)", where, bc, p, b, e)
				}
			}
			var overlap int64
			for _, row := range tab.Rows {
				if row[bc].I < e && b < row[bc+1].I {
					overlap++
				}
			}
			if got := v.Overlapping(b, e); got != overlap {
				t.Fatalf("%s, columns %d: %d rows overlap (%d, %d), want %d", where, bc, got, b, e, overlap)
			}
			ctx := temporal.Period{Begin: b, End: e}
			if got, want := temporal.ConstantPeriods(inside, ctx), temporal.ConstantPeriods(points, ctx); !slices.Equal(got, want) {
				t.Fatalf("%s, columns %d: cp over %v is %v, want %v", where, bc, ctx, got, want)
			}
		}
	}
	for q := 0; q < 8; q++ {
		at := int64(rng.Intn(90) - 10)
		lo, hi := at, at+1
		if ordered {
			lo, hi = math.MinInt64, math.MaxInt64
			for _, p := range allPoints {
				if p <= at {
					lo = max(lo, p)
				} else {
					hi = min(hi, p)
				}
			}
		}
		if gotLo, gotHi := tab.ConstantPeriod(at); gotLo != lo || gotHi != hi {
			t.Fatalf("%s: ConstantPeriod(%d) = [%d, %d), want [%d, %d)", where, at, gotLo, gotHi, lo, hi)
		}
	}
}
