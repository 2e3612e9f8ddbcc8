package taubench

import (
	"reflect"
	"testing"

	"taupsm"
	"taupsm/internal/types"
)

// The two slicing strategies must agree on every audit query over
// BT-SMALL, and every query must return rows. The two period-sliced
// queries may fragment their periods differently, so they are compared
// as the bag of rows valid on each day of the year; the others as the
// bag of rows returned.
func TestBitemporalWorkload(t *testing.T) {
	sliced := map[string]bool{"bt_vt_slice": true, "bt_tt_slice": true}
	jan1 := types.CivilToDays(2011, 1, 1)
	db := taupsm.Open()
	defer db.Close()
	if err := LoadBitemporal(db); err != nil {
		t.Fatal(err)
	}
	for _, q := range BTQueries() {
		var res [2]*taupsm.Result
		for i, s := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
			db.SetStrategy(s)
			var err error
			if res[i], err = db.Query(q.Text); err != nil {
				t.Fatalf("%s/%s: %v", q.Name, s, err)
			}
		}
		if len(res[0].Rows) == 0 {
			t.Errorf("%s: returned no rows", q.Name)
		}
		days := []int64{0}
		bag := func(r *taupsm.Result, _ int64) []string { return rowsOf(r) }
		if sliced[q.Name] {
			bag, days = timeslice, nil
			for d := jan1; d < jan1+365; d++ {
				days = append(days, d)
			}
		}
		for _, d := range days {
			if m, p := bag(res[0], d), bag(res[1], d); !reflect.DeepEqual(m, p) {
				t.Errorf("%s: MAX and PERST disagree (day %s):\n MAX   %v\n PERST %v",
					q.Name, types.FormatDate(d), head(m, 5), head(p, 5))
				break
			}
		}
	}
}

// The loader goes through the statement path, so corrections must have
// closed beliefs: the audit scan carries closed transaction-time
// versions.
func TestBitemporalLoadHistory(t *testing.T) {
	db := taupsm.Open()
	defer db.Close()
	if err := LoadBitemporal(db); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`NONSEQUENCED TRANSACTIONTIME SELECT COUNT(*) FROM bt_position WHERE tt_end_time < DATE '9999-12-31'`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].String(); n == "0" {
		t.Fatal("no closed belief versions; the corrections never versioned transaction time")
	}
}

// BTQueries returns the audit-query shapes over BT-SMALL: the
// current view, a valid-time slice, a transaction-time slice (belief
// evolution), the combined point audit ("what did we believe on date X
// about date Y"), and the raw nonsequenced audit scan.
func BTQueries() []BTQuery {
	return []BTQuery{
		{"bt_current", `SELECT COUNT(*) FROM bt_position`},
		{"bt_vt_slice", `VALIDTIME (DATE '2011-02-01', DATE '2011-08-01') SELECT id, title FROM bt_position`},
		{"bt_tt_slice", `TRANSACTIONTIME (DATE '2011-01-01', DATE '2011-10-01') SELECT id, title FROM bt_position`},
		{"bt_audit_point", `VALIDTIME (DATE '2011-06-15') AND TRANSACTIONTIME (DATE '2011-05-01') SELECT id, title FROM bt_position`},
		{"bt_nonseq_audit", `NONSEQUENCED TRANSACTIONTIME SELECT id, title, tt_begin_time, tt_end_time FROM bt_position`},
	}
}
