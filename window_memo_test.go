package taupsm_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"taupsm"
	"taupsm/internal/enginetest"
	"taupsm/internal/taubench"
	"taupsm/internal/types"
)

// sliceBags is the canonical form of a sequenced result as bags of
// timeslices: per value row, the days within [lo, hi) at which the
// number of copies valid changes, and by how much. Two results render
// alike exactly when their timeslices are equal as bags on every day of
// the context, however differently they fragment the periods.
func sliceBags(res *taupsm.Result, lo, hi string) string {
	deltas := map[string]map[string]int{}
	for _, row := range res.Rows {
		b, e := max(row[0].String(), lo), min(row[1].String(), hi)
		if b >= e {
			continue
		}
		vals := make([]string, len(row)-2)
		for i, v := range row[2:] {
			vals[i] = v.String()
		}
		k := strings.Join(vals, "|")
		if deltas[k] == nil {
			deltas[k] = map[string]int{}
		}
		deltas[k][b]++
		deltas[k][e]--
	}
	var lines []string
	for k, d := range deltas {
		var days []string
		for day, n := range d {
			if n != 0 {
				days = append(days, fmt.Sprintf("%s%+d", day, n))
			}
		}
		sort.Strings(days)
		lines = append(lines, k+" @ "+strings.Join(days, " "))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestWindowMemoIsInvisible is the oracle of the function memo's
// validity windows: whatever the memo answers, a MAX statement returns
// row for row what it returns with the memo off, and on every day of its
// context the bag of rows PERST returns — over the 16 corpus queries, on
// weekly- and daily-changing data, at three context lengths; over every
// enginetest scenario; and across a write between two runs of
// one statement text.
func TestWindowMemoIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the DS1 and DS3 SMALL benchmark datasets")
	}
	var hits int64
	// run evaluates sql under MAX, with the memo or without.
	run := func(t *testing.T, db *taupsm.DB, sql string, memo bool) *taupsm.Result {
		t.Helper()
		db.SetStrategy(taupsm.Max)
		db.Engine().DisableFnMemo = !memo
		defer func() { db.Engine().DisableFnMemo = false }()
		before := db.Engine().Stats.RoutineMemoHits
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("MAX memo=%v: %v\n%s", memo, err, sql)
		}
		hits += db.Engine().Stats.RoutineMemoHits - before
		return res
	}
	// agree checks one statement: memo on ≡ memo off, row for row.
	agree := func(t *testing.T, db *taupsm.DB, sql string) *taupsm.Result {
		t.Helper()
		ref := run(t, db, sql, false)
		if got, want := enginetest.RenderRows(run(t, db, sql, true)), enginetest.RenderRows(ref); got != want {
			t.Errorf("the memo changed the result of\n%s\n--- memo off ---\n%s\n--- memo on ---\n%s", sql, want, got)
		}
		return ref
	}

	for _, ds := range []string{"DS1", "DS3"} {
		spec, err := taubench.SpecByName(ds, taubench.Small)
		if err != nil {
			t.Fatal(err)
		}
		r, err := taubench.NewRunner(spec)
		if err != nil {
			t.Fatal(err)
		}
		db := r.DB
		defer db.Close()
		lo := types.FormatDate(taubench.TimelineStart())
		for _, q := range taubench.Queries() {
			for _, days := range []int{7, 30, 365} {
				t.Run(fmt.Sprintf("%s/%s/%s", ds, q.Name, taubench.ContextLabel(days)), func(t *testing.T) {
					sql := taubench.SequencedSQL(q, days)
					ref := agree(t, db, sql)
					if !q.PerstOK {
						return
					}
					db.SetStrategy(taupsm.PerStatement)
					perst, err := db.Query(sql)
					if err != nil {
						t.Fatalf("PERST: %v", err)
					}
					hi := types.FormatDate(taubench.TimelineStart() + int64(days))
					if m, p := sliceBags(ref, lo, hi), sliceBags(perst, lo, hi); m != p {
						t.Errorf("MAX and PERST timeslices differ\n--- MAX ---\n%s\n--- PERST ---\n%s", m, p)
					}
				})
			}
		}
		if ds != "DS1" {
			continue
		}
		// A write between two runs of one text: q2 reads author through a
		// keyed window, and the author renamed to 'Ben' on a day inside
		// the context must show up from that day on.
		t.Run("mutation", func(t *testing.T) {
			db.SetNow(2010, 6, 15)
			q, _ := taubench.QueryByName("q2")
			sql := taubench.SequencedSQL(q, 365)
			before := enginetest.RenderRows(agree(t, db, sql))
			db.SetStrategy(taupsm.Auto)
			// An author whose version of that day is the last one, so the
			// current update leaves one version per day.
			id, err := db.Query(`NONSEQUENCED VALIDTIME SELECT MIN(author_id) FROM author WHERE first_name <> 'Ben'
				AND begin_time <= DATE '2010-06-15' AND end_time = DATE '9999-12-31'`)
			if err != nil || id.Rows[0][0].IsNull() {
				t.Fatalf("no author to rename: %v", err)
			}
			res, err := db.Exec(fmt.Sprintf(`UPDATE author SET first_name = 'Ben' WHERE author_id = '%s'`, id.Rows[0][0]))
			if err != nil || res.Affected == 0 {
				t.Fatalf("update: %v, %d rows", err, res.Affected)
			}
			if after := enginetest.RenderRows(agree(t, db, sql)); after == before {
				t.Error("renaming an author to 'Ben' did not change q2's result")
			}
		})
	}

	for _, sc := range enginetest.Scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			db := taupsm.Open()
			defer db.Close()
			ax := enginetest.Axis{Strategy: taupsm.Max}
			if sc.Skip != nil && sc.Skip(ax) != "" {
				t.Skip(sc.Skip(ax))
			}
			now := sc.Now
			if now == (enginetest.Clock{}) {
				now = enginetest.Clock{Year: 2011, Month: 1, Day: 1}
			}
			db.SetNow(now.Year, now.Month, now.Day)
			for _, st := range append(append([]enginetest.Step{}, sc.Setup...), sc.Steps...) {
				if st.SetNow != nil {
					db.SetNow(st.SetNow.Year, st.SetNow.Month, st.SetNow.Day)
				}
				if st.Skip != nil && st.Skip(ax) != "" {
					continue
				}
				db.SetStrategy(taupsm.Max)
				switch {
				case st.Exec != "":
					if _, err := db.Exec(st.Exec); (err != nil) != (st.ExpectErr != "") {
						t.Fatalf("%s: %v", st.Exec, err)
					}
				case st.Query != "" && st.ExpectErr == "":
					agree(t, db, st.Query)
				}
			}
		})
	}
	if hits == 0 {
		t.Error("no statement was answered from the memo; the oracle exercised nothing")
	}
}
