package temporal

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"taupsm/internal/types"
)

func p(b, e int64) Period { return Period{Begin: b, End: e} }

func TestPeriodBasics(t *testing.T) {
	if !p(1, 5).Valid() || p(5, 5).Valid() || p(6, 5).Valid() {
		t.Fatal("validity")
	}
	if !p(1, 5).Contains(1) || p(1, 5).Contains(5) || p(1, 5).Contains(0) {
		t.Fatal("half-open containment")
	}
	if !p(1, 5).Overlaps(p(4, 9)) || p(1, 5).Overlaps(p(5, 9)) {
		t.Fatal("overlap is exclusive of the end point")
	}
	if got := p(1, 5).Intersect(p(3, 9)); got != p(3, 5) {
		t.Fatalf("intersect = %v", got)
	}
	if p(1, 5).Intersect(p(7, 9)).Valid() {
		t.Fatal("disjoint intersection must be invalid")
	}
	if !p(1, 5).Meets(p(5, 9)) || p(1, 5).Meets(p(6, 9)) {
		t.Fatal("meets")
	}
	if p(1, 5).Duration() != 4 || p(5, 1).Duration() != 0 {
		t.Fatal("duration")
	}
	if p(0, 1).String() != "[1970-01-01, 1970-01-02)" {
		t.Fatalf("string: %s", p(0, 1).String())
	}
}

func TestInstanceHelpers(t *testing.T) {
	if FirstInstance(3, 7) != 3 || FirstInstance(7, 3) != 3 {
		t.Fatal("FirstInstance")
	}
	if LastInstance(3, 7) != 7 || LastInstance(7, 3) != 7 {
		t.Fatal("LastInstance")
	}
}

func TestOverlapSymmetricQuick(t *testing.T) {
	f := func(a, b, c, d int16) bool {
		p1, p2 := p(int64(a), int64(b)), p(int64(c), int64(d))
		return p1.Overlaps(p2) == p2.Overlaps(p1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapMatchesIntersectQuick(t *testing.T) {
	f := func(a, b, c, d int16) bool {
		p1, p2 := p(int64(a), int64(b)), p(int64(c), int64(d))
		if !p1.Valid() || !p2.Valid() {
			return true
		}
		return p1.Overlaps(p2) == p1.Intersect(p2).Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConstantPeriods(t *testing.T) {
	ctx := p(0, 100)
	// no interior points: one period covering the context
	got := ConstantPeriods(nil, ctx)
	if len(got) != 1 || got[0] != ctx {
		t.Fatalf("empty points: %v", got)
	}
	// interior points split; points outside are ignored; duplicates collapse
	got = ConstantPeriods([]int64{10, 10, 50, -5, 200, 0, 100}, ctx)
	want := []Period{p(0, 10), p(10, 50), p(50, 100)}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// invalid context
	if ConstantPeriods([]int64{1}, p(5, 5)) != nil {
		t.Fatal("empty context must yield no periods")
	}
}

// Property: constant periods partition the context exactly — adjacent,
// non-overlapping, covering [begin, end).
func TestConstantPeriodsPartitionQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ctx := p(0, 365)
		points := make([]int64, int(n)%40)
		for i := range points {
			points[i] = rng.Int63n(500) - 50
		}
		ps := ConstantPeriods(points, ctx)
		if len(ps) == 0 {
			return false
		}
		if ps[0].Begin != ctx.Begin || ps[len(ps)-1].End != ctx.End {
			return false
		}
		for i := 0; i < len(ps); i++ {
			if !ps[i].Valid() {
				return false
			}
			if i > 0 && ps[i-1].End != ps[i].Begin {
				return false
			}
		}
		// every in-context point must be a boundary
		for _, pt := range points {
			if pt <= ctx.Begin || pt >= ctx.End {
				continue
			}
			found := false
			for _, per := range ps {
				if per.Begin == pt {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesce(t *testing.T) {
	rows := []TimestampedRow{
		{Key: "a", Period: p(0, 10)},
		{Key: "a", Period: p(10, 20)}, // adjacent: merge
		{Key: "a", Period: p(15, 25)}, // overlapping: merge
		{Key: "a", Period: p(30, 40)}, // gap: separate
		{Key: "b", Period: p(0, 50)},
		{Key: "b", Period: p(5, 7)}, // contained: absorbed
		{Key: "c", Period: p(9, 9)}, // invalid: dropped
	}
	got := Coalesce(rows)
	want := []TimestampedRow{
		{Key: "a", Period: p(0, 25)},
		{Key: "a", Period: p(30, 40)},
		{Key: "b", Period: p(0, 50)},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// Property: coalescing preserves timeslices.
func TestCoalescePreservesTimeslicesQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var rows []TimestampedRow
		keys := []string{"x", "y", "z"}
		for i := 0; i < int(n)%30; i++ {
			b := rng.Int63n(100)
			rows = append(rows, TimestampedRow{
				Key:    keys[rng.Intn(len(keys))],
				Period: p(b, b+rng.Int63n(30)+1),
			})
		}
		co := Coalesce(rows)
		for d := int64(0); d < 130; d += 7 {
			if !slices.Equal(keysAt(rows, d), keysAt(co, d)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// keysAt returns the distinct keys of the rows whose period contains t,
// sorted: the timeslice of rows at t.
func keysAt(rows []TimestampedRow, t int64) []string {
	var out []string
	for _, r := range rows {
		if r.Period.Contains(t) {
			out = append(out, r.Key)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func TestCoalesceIsMaximal(t *testing.T) {
	got := Coalesce([]TimestampedRow{
		{Key: "a", Period: p(0, 10)},
		{Key: "a", Period: p(10, 20)},
	})
	if len(got) != 1 || got[0].Period != p(0, 20) {
		t.Fatalf("adjacent periods must merge to a maximal period: %v", got)
	}
	for i := 0; i+1 < len(got); i++ {
		if got[i].Key == got[i+1].Key && got[i].Period.End >= got[i+1].Period.Begin {
			t.Fatal("output not maximal")
		}
	}
}

func TestAllPeriod(t *testing.T) {
	if !All.Contains(0) || !All.Contains(types.Forever-1) {
		t.Fatal("All must span the timeline")
	}
}

// Overlaps reports whether two periods share at least one instant.
func (p Period) Overlaps(q Period) bool { return p.Begin < q.End && q.Begin < p.End }

// Intersect returns the common sub-period of p and q; the result may be
// invalid (empty) when they do not overlap.
func (p Period) Intersect(q Period) Period {
	return Period{Begin: max(p.Begin, q.Begin), End: min(p.End, q.End)}
}

// Meets reports whether p ends exactly where q begins.
func (p Period) Meets(q Period) bool { return p.End == q.Begin }
