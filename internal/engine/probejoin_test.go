package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"taupsm/internal/types"
)

// stabFixture loads a temporal table of n randomized intervals —
// including empty (begin == end), point (one day), fully-overlapping
// and NULL-ended spans — and an outer table of stab dates, the
// worst-case shapes for an interval join.
func stabFixture(t testing.TB, spans, points int, seed int64) *DB {
	db := New()
	exec := func(src string) {
		if _, err := db.ExecScript(src); err != nil {
			t.Fatalf("exec %q: %v", src, err)
		}
	}
	exec(`CREATE TABLE sp (id INTEGER) AS VALIDTIME`)
	exec(`CREATE TABLE pt (d DATE)`)

	rng := rand.New(rand.NewSource(seed))
	base := types.MustDate(2010, 1, 1)
	var vals []string
	add := func(id int, b, e int64) {
		vals = append(vals, fmt.Sprintf("(%d, DATE '%s', DATE '%s')",
			id, types.FormatDate(b), types.FormatDate(e)))
	}
	for id := 0; id < spans; id++ {
		b := base + int64(rng.Intn(1000))
		switch id % 8 {
		case 0: // empty interval: matches no stab point
			add(id, b, b)
		case 1: // point interval: exactly one matching day
			add(id, b, b+1)
		case 2: // fully overlapping: open for the whole timeline
			add(id, base, base+1001)
		case 3: // non-date endpoint: a candidate of every probe, matching none
			vals = append(vals, fmt.Sprintf("(%d, DATE '%s', NULL)", id, types.FormatDate(b)))
		default:
			add(id, b, b+int64(1+rng.Intn(90)))
		}
	}
	exec("INSERT INTO sp VALUES " + strings.Join(vals, ", "))

	vals = vals[:0]
	for i := 0; i < points; i++ {
		p := base - 5 + int64(rng.Intn(1010))
		vals = append(vals, fmt.Sprintf("(DATE '%s')", types.FormatDate(p)))
	}
	exec("INSERT INTO pt VALUES " + strings.Join(vals, ", "))
	// depth_at stab-probes sp from inside whatever scan calls it.
	exec(`CREATE FUNCTION depth_at (d DATE) RETURNS INTEGER LANGUAGE SQL
BEGIN
  RETURN (SELECT COUNT(*) FROM sp WHERE sp.begin_time <= d AND d < sp.end_time);
END`)
	return db
}

// The interval-index paths — the per-row probe of a stab join and the
// stab access path of a scan — must return exactly the rows, in exactly
// the order, of the plain nested loop and full scan, over randomized
// intervals: inner and left joins, a right side its own filter thinned
// out, and a scan whose pushdown conjunct runs a second stab-probing
// scan of the same session while the first one's candidates are live.
func TestIntervalProbeAgreesWithNestedLoop(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		db := stabFixture(t, 64, 60, seed)
		queries := []string{
			`SELECT d, id FROM pt, sp WHERE sp.begin_time <= pt.d AND pt.d < sp.end_time`,
			`SELECT d, id FROM pt LEFT JOIN sp ON sp.begin_time <= pt.d AND pt.d < sp.end_time`,
			`SELECT d, id FROM pt, sp WHERE sp.begin_time <= pt.d AND pt.d < sp.end_time AND sp.id > 20`,
			`SELECT id FROM sp WHERE sp.begin_time <= DATE '2011-03-01' AND DATE '2011-03-01' < sp.end_time
				AND depth_at(sp.begin_time) > 1`,
		}
		for _, q := range queries {
			p0 := db.Stats.IntervalProbes
			probed, err := db.ExecScript(q)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if db.Stats.IntervalProbes == p0 {
				t.Fatalf("seed %d %q: the interval index was not probed; the test compares nothing", seed, q)
			}
			if len(probed.Rows) == 0 {
				t.Fatalf("seed %d %q: empty result; fixture is degenerate", seed, q)
			}

			db.DisableIndexes = true
			nested, err := db.ExecScript(q)
			db.DisableIndexes = false
			if err != nil {
				t.Fatalf("seed %d nested: %v", seed, err)
			}
			want := fmt.Sprint(rowsText(nested))
			if got := fmt.Sprint(rowsText(probed)); got != want {
				t.Errorf("seed %d %q: probe and nested loop disagree\nprobe:  %v\nnested: %v",
					seed, q, got, want)
			}
		}
	}
}

// BenchmarkIntervalJoin compares the two overlap-join paths on one
// randomized stab join: the per-row interval-tree probe and the nested
// loop.
func BenchmarkIntervalJoin(b *testing.B) {
	db := stabFixture(b, 512, 512, 7)
	q := `SELECT d, id FROM pt, sp WHERE sp.begin_time <= pt.d AND pt.d < sp.end_time`
	for _, noIdx := range []bool{false, true} {
		name := "probe"
		if noIdx {
			name = "nested"
		}
		b.Run(name, func(b *testing.B) {
			db.DisableIndexes = noIdx
			defer func() { db.DisableIndexes = false }()
			for i := 0; i < b.N; i++ {
				if _, err := db.ExecScript(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
