package taupsm

import (
	"errors"
	"sort"
	"strings"
	"testing"
)

// paperDB builds the paper's running example: the bookstore schema with
// the temporal tables item, author, and item_author, and the
// get_author_name() stored function of Figure 1.
func paperDB(t testing.TB) *DB {
	db := Open()
	db.SetNow(2010, 6, 15)
	db.MustExec(`
CREATE TABLE item (id CHAR(10), title CHAR(100)) AS VALIDTIME;
CREATE TABLE author (author_id CHAR(10), first_name CHAR(50)) AS VALIDTIME;
CREATE TABLE item_author (item_id CHAR(10), author_id CHAR(10)) AS VALIDTIME;

NONSEQUENCED VALIDTIME INSERT INTO item VALUES
  ('i1', 'SQL Basics',    DATE '2010-01-01', DATE '2011-01-01'),
  ('i2', 'Advanced SQL',  DATE '2010-03-01', DATE '2010-09-01'),
  ('i3', 'Temporal Data', DATE '2010-05-01', DATE '2011-01-01');

NONSEQUENCED VALIDTIME INSERT INTO author VALUES
  ('a1', 'Ben', DATE '2010-01-01', DATE '2010-07-01'),
  ('a1', 'Benjamin', DATE '2010-07-01', DATE '2011-01-01'),
  ('a2', 'Amy', DATE '2010-01-01', DATE '2011-01-01');

NONSEQUENCED VALIDTIME INSERT INTO item_author VALUES
  ('i1', 'a1', DATE '2010-01-01', DATE '2011-01-01'),
  ('i2', 'a1', DATE '2010-03-01', DATE '2010-09-01'),
  ('i3', 'a2', DATE '2010-05-01', DATE '2011-01-01');

CREATE FUNCTION get_author_name (aid CHAR(10))
RETURNS CHAR(50)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE fname CHAR(50);
  SET fname = (SELECT first_name FROM author WHERE author_id = aid);
  RETURN fname;
END;
`)
	return db
}

// sortedRows renders and sorts result rows for order-insensitive
// comparison.
func sortedRows(res *Result) []string {
	var out []string
	for _, row := range res.Rows {
		var parts []string
		for _, v := range row {
			parts = append(parts, v.String())
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, got *Result, want ...string) {
	t.Helper()
	g := sortedRows(got)
	sort.Strings(want)
	if len(g) != len(want) {
		t.Fatalf("got %d rows %v, want %d rows %v", len(g), g, len(want), want)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("row %d: got %q want %q\nall: %v", i, g[i], want[i], g)
		}
	}
}

// The query of Figure 2 with current semantics: Ben currently (June 15)
// authors i1 and i2.
func TestCurrentQueryWithFunction(t *testing.T) {
	db := paperDB(t)
	res, err := db.Query(`
		SELECT i.title FROM item i, item_author ia
		WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res, "SQL Basics", "Advanced SQL")
}

// Temporal upward compatibility: after the rename to Benjamin, the
// current query tracks the current state.
func TestCurrentQueryTracksNow(t *testing.T) {
	db := paperDB(t)
	db.SetNow(2010, 8, 1) // Ben renamed to Benjamin on July 1
	res, err := db.Query(`
		SELECT i.title FROM item i, item_author ia
		WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res) // no rows: he is Benjamin now
	res, err = db.Query(`
		SELECT i.title FROM item i, item_author ia
		WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Benjamin'`)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res, "SQL Basics", "Advanced SQL")
}

// The sequenced query of Figure 3 under both strategies. Expected
// history of titles by "Ben" (who holds that name Jan 1 - Jul 1):
//
//	SQL Basics   over [2010-01-01, 2010-07-01)
//	Advanced SQL over [2010-03-01, 2010-07-01)
//
// (fragmentation may split these periods; coalesced they must match).
func seqFig3(t *testing.T, strategy Strategy) *Result {
	t.Helper()
	db := paperDB(t)
	db.SetStrategy(strategy)
	res, err := db.Query(`
		VALIDTIME SELECT i.title FROM item i, item_author ia
		WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`)
	if err != nil {
		t.Fatalf("strategy %v: %v", strategy, err)
	}
	return res
}

// coalesceRows merges adjacent periods of value-equal rows; expects
// columns (begin_time, end_time, vals...).
func coalesceRows(res *Result) []string {
	type pr struct {
		key        string
		begin, end string
	}
	var rows []pr
	for _, r := range res.Rows {
		var vals []string
		for _, v := range r[2:] {
			vals = append(vals, v.String())
		}
		rows = append(rows, pr{key: strings.Join(vals, "|"), begin: r[0].String(), end: r[1].String()})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].key != rows[j].key {
			return rows[i].key < rows[j].key
		}
		return rows[i].begin < rows[j].begin
	})
	var out []pr
	for _, r := range rows {
		if n := len(out); n > 0 && out[n-1].key == r.key && out[n-1].end >= r.begin {
			if r.end > out[n-1].end {
				out[n-1].end = r.end
			}
			continue
		}
		out = append(out, r)
	}
	var ss []string
	for _, r := range out {
		ss = append(ss, r.key+" ["+r.begin+","+r.end+")")
	}
	return ss
}

func TestSequencedQueryMax(t *testing.T) {
	res := seqFig3(t, Max)
	got := coalesceRows(res)
	want := []string{
		"Advanced SQL [2010-03-01,2010-07-01)",
		"SQL Basics [2010-01-01,2010-07-01)",
	}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("MAX sequenced result:\ngot  %v\nwant %v", got, want)
	}
}

func TestSequencedQueryPerStatement(t *testing.T) {
	res := seqFig3(t, PerStatement)
	got := coalesceRows(res)
	want := []string{
		"Advanced SQL [2010-03-01,2010-07-01)",
		"SQL Basics [2010-01-01,2010-07-01)",
	}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("PERST sequenced result:\ngot  %v\nwant %v", got, want)
	}
}

func TestSequencedStrategiesAgree(t *testing.T) {
	maxRes := seqFig3(t, Max)
	psRes := seqFig3(t, PerStatement)
	mg, pg := coalesceRows(maxRes), coalesceRows(psRes)
	if strings.Join(mg, ";") != strings.Join(pg, ";") {
		t.Fatalf("MAX and PERST disagree:\nMAX   %v\nPERST %v", mg, pg)
	}
}

// MAX invokes the routine once per (tuple x constant period); PERST
// invokes it once per satisfying tuple — Figure 7's call-count
// asymmetry observed through engine statistics.
func TestRoutineCallAsymmetry(t *testing.T) {
	dbm := paperDB(t)
	dbm.SetStrategy(Max)
	dbm.Engine().Stats.Reset()
	if _, err := dbm.Query(`VALIDTIME SELECT i.title FROM item i, item_author ia
		WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`); err != nil {
		t.Fatal(err)
	}
	maxCalls := dbm.Engine().Stats.RoutineCalls

	dbp := paperDB(t)
	dbp.SetStrategy(PerStatement)
	dbp.Engine().Stats.Reset()
	if _, err := dbp.Query(`VALIDTIME SELECT i.title FROM item i, item_author ia
		WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`); err != nil {
		t.Fatal(err)
	}
	psCalls := dbp.Engine().Stats.RoutineCalls

	if maxCalls <= psCalls {
		t.Fatalf("expected MAX (%d calls) to invoke the routine more often than PERST (%d calls)", maxCalls, psCalls)
	}
}

// Sequenced query with an explicit temporal context restricts the
// result.
func TestSequencedWithContext(t *testing.T) {
	for _, s := range []Strategy{Max, PerStatement} {
		db := paperDB(t)
		db.SetStrategy(s)
		res, err := db.Query(`
			VALIDTIME (DATE '2010-04-01', DATE '2010-06-01')
			SELECT i.title FROM item i, item_author ia
			WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`)
		if err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
		got := coalesceRows(res)
		want := []string{
			"Advanced SQL [2010-04-01,2010-06-01)",
			"SQL Basics [2010-04-01,2010-06-01)",
		}
		if strings.Join(got, ";") != strings.Join(want, ";") {
			t.Fatalf("strategy %v:\ngot  %v\nwant %v", s, got, want)
		}
	}
}

// Nonsequenced queries see the timestamps as plain columns.
func TestNonsequencedQuery(t *testing.T) {
	db := paperDB(t)
	res, err := db.Query(`
		NONSEQUENCED VALIDTIME
		SELECT first_name FROM author WHERE begin_time = DATE '2010-07-01'`)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res, "Benjamin")
}

// The Figure-8 SQL path and the native constant-period computation must
// agree exactly.
func TestFigure8EqualsNative(t *testing.T) {
	q := `VALIDTIME SELECT i.title FROM item i, item_author ia
		WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`

	dbn := paperDB(t)
	dbn.SetStrategy(Max)
	resN, err := dbn.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	dbf := paperDB(t)
	dbf.SetStrategy(Max)
	dbf.SetFigure8SQL(true)
	resF, err := dbf.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	n, f := sortedRows(resN), sortedRows(resF)
	if strings.Join(n, ";") != strings.Join(f, ";") {
		t.Fatalf("native cp and Figure-8 SQL disagree:\nnative %v\nfig8   %v", n, f)
	}
}

// Commutativity (paper §VII-B): the timeslice of the sequenced result
// at day d equals the nontemporal query evaluated on the timeslice at
// day d.
func TestCommutativityRunningExample(t *testing.T) {
	for _, s := range []Strategy{Max, PerStatement} {
		db := paperDB(t)
		db.SetStrategy(s)
		seq, err := db.Query(`VALIDTIME SELECT i.title FROM item i, item_author ia
			WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`)
		if err != nil {
			t.Fatal(err)
		}
		for _, day := range []string{"2010-01-01", "2010-02-15", "2010-03-01", "2010-06-30", "2010-07-01", "2010-12-31"} {
			// timeslice of the sequenced result
			var slice []string
			for _, row := range seq.Rows {
				if row[0].String() <= day && day < row[1].String() {
					slice = append(slice, row[2].String())
				}
			}
			sort.Strings(slice)
			// nontemporal query on that day's state
			dbd := paperDB(t)
			parts := strings.Split(day, "-")
			y, m, d := atoi(parts[0]), atoi(parts[1]), atoi(parts[2])
			dbd.SetNow(y, m, d)
			cur, err := dbd.Query(`SELECT i.title FROM item i, item_author ia
				WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`)
			if err != nil {
				t.Fatal(err)
			}
			curRows := sortedRows(cur)
			if strings.Join(slice, ";") != strings.Join(curRows, ";") {
				t.Fatalf("strategy %v day %s: timeslice %v != current %v", s, day, slice, curRows)
			}
		}
	}
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}

// A routine containing a temporal modifier may only be invoked from a
// nonsequenced context (paper §IV-A).
func TestInnerModifierSemanticError(t *testing.T) {
	db := paperDB(t)
	db.MustExec(`
CREATE FUNCTION ever_named (aid CHAR(10), nm CHAR(50))
RETURNS INTEGER
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE n INTEGER DEFAULT 0;
  FOR r AS NONSEQUENCED VALIDTIME SELECT first_name FROM author
      WHERE author_id = aid AND first_name = nm DO
    SET n = n + 1;
  END FOR;
  RETURN n;
END`)
	// Invoked from a current (or sequenced) context: semantic error.
	if _, err := db.Query(`SELECT title FROM item i, item_author ia
		WHERE i.id = ia.item_id AND ever_named(ia.author_id, 'Ben') > 0`); err == nil {
		t.Fatal("expected semantic error invoking modifier-carrying routine from a current context")
	}
	db.SetStrategy(Max)
	if _, err := db.Query(`VALIDTIME SELECT title FROM item i, item_author ia
		WHERE i.id = ia.item_id AND ever_named(ia.author_id, 'Ben') > 0`); err == nil {
		t.Fatal("expected semantic error invoking modifier-carrying routine from a sequenced context")
	}
	// From a nonsequenced context it is fine (paper §IV-A).
	res, err := db.Query(`NONSEQUENCED VALIDTIME SELECT DISTINCT title FROM item i, item_author ia
		WHERE i.id = ia.item_id AND ever_named(ia.author_id, 'Ben') > 0`)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res, "SQL Basics", "Advanced SQL")
}

// Translate produces conventional SQL/PSM that no longer contains
// temporal modifiers and matches the paper's shapes.
func TestTranslateShapes(t *testing.T) {
	db := paperDB(t)
	q := `VALIDTIME SELECT i.title FROM item i, item_author ia
		WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`

	maxSQL, err := db.Translate(q, Max)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"max_get_author_name", "taupsm_cp", "cp.begin_time", "begin_time_in"} {
		if !strings.Contains(maxSQL, want) {
			t.Errorf("MAX translation missing %q:\n%s", want, maxSQL)
		}
	}
	if strings.Contains(maxSQL, "VALIDTIME") {
		t.Errorf("MAX translation still contains a temporal modifier:\n%s", maxSQL)
	}

	psSQL, err := db.Translate(q, PerStatement)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ps_get_author_name", "taupsm_result", "period_begin", "period_end", "LAST_INSTANCE", "FIRST_INSTANCE", "TABLE(ps_get_author_name"} {
		if !strings.Contains(psSQL, want) {
			t.Errorf("PERST translation missing %q:\n%s", want, psSQL)
		}
	}
	if strings.Contains(psSQL, "VALIDTIME") {
		t.Errorf("PERST translation still contains a temporal modifier:\n%s", psSQL)
	}
}

// Current modifications maintain periods: delete closes validity.
func TestCurrentDelete(t *testing.T) {
	db := paperDB(t)
	db.SetNow(2010, 6, 15)
	if _, err := db.Exec(`DELETE FROM item WHERE id = 'i1'`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT title FROM item`)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res, "Advanced SQL", "Temporal Data")
	// history is preserved
	res, err = db.Query(`NONSEQUENCED VALIDTIME SELECT title, end_time FROM item WHERE id = 'i1'`)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res, "SQL Basics|2010-06-15")
}

// Current update closes the old version and starts a new one.
func TestCurrentUpdate(t *testing.T) {
	db := paperDB(t)
	db.SetNow(2010, 6, 15)
	if _, err := db.Exec(`UPDATE author SET first_name = 'Benny' WHERE author_id = 'a1'`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT first_name FROM author WHERE author_id = 'a1'`)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res, "Benny")
	// the old version ends today
	res, err = db.Query(`NONSEQUENCED VALIDTIME SELECT first_name, begin_time, end_time
		FROM author WHERE author_id = 'a1' ORDER BY begin_time`)
	if err != nil {
		t.Fatal(err)
	}
	rows := sortedRows(res)
	if len(rows) != 3 {
		t.Fatalf("expected 3 versions, got %v", rows)
	}
}

// Sequenced delete splits straddling rows.
func TestSequencedDelete(t *testing.T) {
	db := paperDB(t)
	if _, err := db.Exec(`VALIDTIME (DATE '2010-04-01', DATE '2010-05-01')
		DELETE FROM item WHERE id = 'i1'`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`NONSEQUENCED VALIDTIME
		SELECT begin_time, end_time FROM item WHERE id = 'i1' ORDER BY begin_time`)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res, "2010-01-01|2010-04-01", "2010-05-01|2011-01-01")
}

// Sequenced update modifies only the period, preserving values outside.
func TestSequencedUpdate(t *testing.T) {
	db := paperDB(t)
	if _, err := db.Exec(`VALIDTIME (DATE '2010-02-01', DATE '2010-03-01')
		UPDATE author SET first_name = 'Benjy' WHERE author_id = 'a1'`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`NONSEQUENCED VALIDTIME
		SELECT first_name, begin_time, end_time FROM author WHERE author_id = 'a1' ORDER BY begin_time`)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res,
		"Ben|2010-01-01|2010-02-01",
		"Benjy|2010-02-01|2010-03-01",
		"Ben|2010-03-01|2010-07-01",
		"Benjamin|2010-07-01|2011-01-01")
}

// The heuristic chooses MAX when PERST does not apply.
func TestAutoFallsBackToMax(t *testing.T) {
	db := paperDB(t)
	// A sequenced aggregate is not per-statement transformable.
	res, err := db.Query(`VALIDTIME SELECT COUNT(*) FROM item`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("expected rows from sequenced aggregate under MAX fallback")
	}
	if _, err := db.Translate(`VALIDTIME SELECT COUNT(*) FROM item`, PerStatement); !errors.Is(err, ErrNotTransformable) {
		t.Fatalf("expected ErrNotTransformable from PERST for sequenced aggregate, got %v", err)
	}
}

// Sequenced aggregation under MAX: count of items valid on each day —
// including the days before the first and after the last item, on which
// the nontemporal COUNT(*) of the (empty) timeslice is one row with 0.
func TestSequencedAggregateMax(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	res, err := db.Query(`VALIDTIME SELECT COUNT(*) FROM item`)
	if err != nil {
		t.Fatal(err)
	}
	got := coalesceRows(res)
	want := []string{
		"0 [0001-01-01,2010-01-01)",
		"1 [2010-01-01,2010-03-01)",
		"2 [2010-03-01,2010-05-01)",
		"3 [2010-05-01,2010-09-01)",
		"2 [2010-09-01,2011-01-01)",
		"0 [2011-01-01,9999-12-31)",
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("sequenced COUNT:\ngot  %v\nwant %v", got, want)
	}
}
