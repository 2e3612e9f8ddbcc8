package taupsm

// Statistics subsystem tests: the ANALYZE statement, the tau_stat_*
// system tables, the one commit fold (live statistics equal recovered
// ones under DML, DDL, ANALYZE and checkpoints, failed statements
// included), persistence through checkpoints and crash recovery,
// EXPLAIN's estimate columns, and the stats-informed strategy hint.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"taupsm/internal/wal"
)

func TestAnalyzeStatement(t *testing.T) {
	db := paperDB(t)
	defer db.Close()

	res := db.MustExec(`ANALYZE item`)
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "item" {
		t.Fatalf("ANALYZE item rows: %v", res.Rows)
	}
	if got := res.Columns; strings.Join(got, ",") !=
		"table_name,rows,distinct_points,constant_periods,max_overlap" {
		t.Fatalf("ANALYZE columns: %v", got)
	}
	if rows := res.Rows[0][1].Int(); rows != 3 {
		t.Fatalf("item analyzed rows = %d, want 3", rows)
	}

	res = db.MustExec(`ANALYZE`)
	if len(res.Rows) != 3 {
		t.Fatalf("bare ANALYZE must cover all 3 tables, got %d rows", len(res.Rows))
	}
	for i, want := range []string{"author", "item", "item_author"} {
		if got := res.Rows[i][0].String(); got != want {
			t.Fatalf("ANALYZE row %d table = %q, want %q", i, got, want)
		}
	}

	if _, err := db.Exec(`ANALYZE nope`); err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("ANALYZE of a missing table: %v", err)
	}
}

func TestSystemTablesSelect(t *testing.T) {
	db := paperDB(t)
	defer db.Close()
	db.MustExec(`ANALYZE item`)

	res := db.MustExec(`SELECT table_name, row_count, inserts, analyzed FROM tau_stat_tables`)
	byName := map[string][]string{}
	for _, r := range res.Rows {
		byName[r[0].String()] = []string{r[1].String(), r[2].String(), r[3].String()}
	}
	if got := byName["item"]; len(got) != 3 || got[0] != "3" || got[1] != "3" || got[2] != "TRUE" {
		t.Fatalf("item stats row: %v (all: %v)", got, byName)
	}
	if got := byName["author"]; len(got) != 3 || got[2] != "FALSE" {
		t.Fatalf("author must not be analyzed yet: %v", got)
	}

	// The workload tables exist and see the statements just executed.
	res = db.MustExec(`SELECT digest, statement FROM tau_stat_statements`)
	found := false
	for _, r := range res.Rows {
		if strings.Contains(r[1].String(), "tau_stat_tables") {
			found = true
			if len(r[0].String()) != 16 {
				t.Fatalf("digest %q is not 16 hex chars", r[0].String())
			}
		}
	}
	if !found {
		t.Fatalf("tau_stat_statements misses the profiled SELECT:\n%s", res)
	}
	if _, err := db.Exec(`SELECT routine_name, calls FROM tau_stat_routines`); err != nil {
		t.Fatalf("tau_stat_routines: %v", err)
	}

	// A real table with the same name shadows the system one.
	db.MustExec(`CREATE TABLE tau_stat_tables (x INTEGER)`)
	db.MustExec(`INSERT INTO tau_stat_tables VALUES (7)`)
	res = db.MustExec(`SELECT x FROM tau_stat_tables`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
		t.Fatalf("user table must shadow the system table, got %s", res)
	}
}

// TestLiveStatisticsEqualRecovered is the differential property of the
// one commit fold: a seeded stream of DML (a quarter of it failing
// part-way), CREATE / DROP / ALTER, ANALYZE and checkpoints runs on a
// persistent database, and after every statement its live statistics
// must equal those of a crash reopen of its log, those of a twin
// database closed and reopened after every statement, and the counters
// of an in-memory database running the same stream.
func TestLiveStatisticsEqualRecovered(t *testing.T) {
	fs := wal.NewMemFS()
	live := openMem(t, fs)
	defer live.Close()
	twinFS := wal.NewMemFS()
	twin := openMem(t, twinFS)
	mem := Open()
	mem.SetNow(2010, 7, 1)

	rng := rand.New(rand.NewSource(27))
	day := func() string { return fmt.Sprintf("DATE '2010-%02d-%02d'", 1+rng.Intn(12), 1+rng.Intn(28)) }
	tables := []string{"h", "k", "m"}
	for step := 0; step < 200; step++ {
		tn := tables[rng.Intn(len(tables))]
		b, e := day(), day()
		var sql string
		switch k := rng.Intn(24); {
		case step < len(tables):
			sql = fmt.Sprintf(`CREATE TABLE %s (id INTEGER, v INTEGER) AS VALIDTIME`, tables[step])
		case k == 0:
			sql = fmt.Sprintf(`CREATE TABLE %s (id INTEGER, v INTEGER) AS VALIDTIME`, tn)
		case k == 1:
			sql = fmt.Sprintf(`CREATE TABLE %s (id INTEGER, v INTEGER)`, tn)
		case k == 2:
			sql = fmt.Sprintf(`CREATE TABLE %s AS (SELECT id, v FROM h) WITH DATA`, tn)
		case k == 3:
			sql = fmt.Sprintf(`DROP TABLE %s`, tn)
		case k == 4:
			sql = fmt.Sprintf(`ALTER TABLE %s ADD VALIDTIME`, tn)
		case k <= 6:
			sql = fmt.Sprintf(`ANALYZE %s`, tn)
			if k == 6 {
				sql = `ANALYZE`
			}
		case k <= 8:
			sql = fmt.Sprintf(`INSERT INTO %s VALUES (%d, %d)`, tn, step, rng.Intn(9))
		case k == 9:
			// The second row divides by zero: the first must not count.
			sql = fmt.Sprintf(`INSERT INTO %s VALUES (%d, 1), (%d, 1/0)`, tn, step, step)
		case k <= 12:
			sql = fmt.Sprintf(`VALIDTIME (%s, %s) UPDATE %s SET v = v + 1 WHERE id < %d`, b, e, tn, rng.Intn(200))
			if k == 12 {
				sql = fmt.Sprintf(`UPDATE %s SET v = v / (v - 1)`, tn)
			}
		case k <= 14:
			sql = fmt.Sprintf(`VALIDTIME (%s, %s) DELETE FROM %s WHERE id = %d`, b, e, tn, rng.Intn(step+1))
		default:
			sql = fmt.Sprintf(`NONSEQUENCED VALIDTIME INSERT INTO %s VALUES (%d, %d, %s, %s)`, tn, step, rng.Intn(9), b, e)
		}
		// Statements that fail (a missing table, a table that exists, a
		// division by zero) fail alike everywhere; only what committed
		// counts.
		_, lerr := live.Exec(sql)
		_, terr := twin.Exec(sql)
		_, merr := mem.Exec(sql)
		if (lerr == nil) != (terr == nil) || (lerr == nil) != (merr == nil) {
			t.Fatalf("step %d (%s): errors diverge: %v / %v / %v", step, sql, lerr, terr, merr)
		}
		if rng.Intn(8) == 0 {
			if err := live.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}

		want := live.Statistics().Tables
		crashed := openMem(t, fs.CrashImage())
		got := crashed.Statistics().Tables
		crashed.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): crash reopen\n got %+v\nwant %+v", step, sql, got, want)
		}
		if err := twin.Close(); err != nil {
			t.Fatal(err)
		}
		twin = openMem(t, twinFS)
		if got := twin.Statistics().Tables; !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): clean reopen\n got %+v\nwant %+v", step, sql, got, want)
		}
		if got := mem.Statistics().Tables; !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): in-memory\n got %+v\nwant %+v", step, sql, got, want)
		}
	}
	twin.Close()
}

// TestAlterAfterCheckpointRecoversLikeLive: ALTER TABLE ... ADD
// VALIDTIME replaces the rows ANALYZE saw, so it clears the ANALYZE
// facts — live and, from the checkpoint plus the replayed ALTER, after
// a crash.
func TestAlterAfterCheckpointRecoversLikeLive(t *testing.T) {
	fs := wal.NewMemFS()
	db := openMem(t, fs)
	defer db.Close()
	db.MustExec(`CREATE TABLE item (id INTEGER, v INTEGER)`)
	db.MustExec(`INSERT INTO item VALUES (1, 10), (2, 20)`)
	db.MustExec(`ANALYZE item`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`ALTER TABLE item ADD VALIDTIME`)
	want := db.Statistics().Tables
	if len(want) != 1 || want[0].Analyzed || want[0].Inserts != 2 {
		t.Fatalf("live statistics after ALTER: %+v", want)
	}
	rec := openMem(t, fs.CrashImage())
	defer rec.Close()
	if got := rec.Statistics().Tables; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered statistics after ALTER\n got %+v\nwant %+v", got, want)
	}
}

// TestAnalyzeIsDurable: ANALYZE commits an effect of its own, so a
// database reopened from its log — no checkpoint since the ANALYZE —
// still has the statistics, and EXPLAIN still estimates.
func TestAnalyzeIsDurable(t *testing.T) {
	fs := wal.NewMemFS()
	db := openMem(t, fs)
	defer db.Close()
	db.MustExec(`CREATE TABLE item (id INTEGER, v INTEGER) AS VALIDTIME`)
	db.MustExec(`NONSEQUENCED VALIDTIME INSERT INTO item VALUES
		(1, 10, DATE '2010-01-01', DATE '2010-06-01'),
		(2, 20, DATE '2010-03-01', DATE '2010-09-01')`)
	db.MustExec(`ANALYZE item`)
	const q = `VALIDTIME (DATE '2010-02-01', DATE '2010-10-01') SELECT id FROM item`
	want, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !want.HasStats {
		t.Fatal("no estimates after ANALYZE")
	}
	// The ANALYZE must not be the last thing in the log for the replay
	// to matter: rows added after it leave its facts as they were.
	db.MustExec(`NONSEQUENCED VALIDTIME INSERT INTO item VALUES (3, 30, DATE '2010-04-01', DATE '2010-05-01')`)
	wantStats := db.Statistics().Tables
	want, _ = db.Explain(q)

	rec := openMem(t, fs.CrashImage())
	defer rec.Close()
	got, err := rec.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasStats || got.EstConstantPeriods != want.EstConstantPeriods || got.EstRows != want.EstRows ||
		got.Strategy != want.Strategy || got.AutoReason != want.AutoReason {
		t.Fatalf("after reopen: HasStats %v est %d/%d %v %s, want HasStats est %d/%d %v %s",
			got.HasStats, got.EstConstantPeriods, got.EstRows, got.Strategy, got.AutoReason,
			want.EstConstantPeriods, want.EstRows, want.Strategy, want.AutoReason)
	}
	if gotStats := rec.Statistics().Tables; !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("recovered statistics\n got %+v\nwant %+v", gotStats, wantStats)
	}
	if s := wantStats[0]; s.AnalyzedRows != 2 || s.RowCount != 3 {
		t.Fatalf("ANALYZE facts must be those of the rows it saw: %+v", s)
	}
}

// TestDMLCountersAdvanceAtCommit: the DML counters count a statement's
// row effects when it commits, not row by row while it runs — a routine
// reading tau_stat_tables mid-statement sees the counts from before the
// statement — and rows that arrive in the statement that creates their
// table are a load, not DML.
func TestDMLCountersAdvanceAtCommit(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE h (id INTEGER)`)
	db.MustExec(`CREATE TABLE seen (n INTEGER)`)
	db.MustExec(`CREATE PROCEDURE p () MODIFIES SQL DATA LANGUAGE SQL BEGIN
		INSERT INTO h VALUES (1), (2);
		INSERT INTO seen SELECT inserts FROM tau_stat_tables WHERE table_name = 'h';
	END`)
	db.MustExec(`CALL p()`)
	if n := db.MustExec(`SELECT n FROM seen`).Rows[0][0].Int(); n != 0 {
		t.Fatalf("mid-statement inserts = %d, want 0", n)
	}
	counts := func(name string) [3]int64 {
		for _, s := range db.Statistics().Tables {
			if s.Name == name {
				return [3]int64{s.Inserts, s.Updates, s.Deletes}
			}
		}
		t.Fatalf("no statistics for %s", name)
		return [3]int64{}
	}
	if c := counts("h"); c != [3]int64{2, 0, 0} {
		t.Fatalf("after commit h counts %v, want 2 inserts", c)
	}
	db.MustExec(`CREATE PROCEDURE mk () MODIFIES SQL DATA LANGUAGE SQL BEGIN
		CREATE TABLE fresh (id INTEGER);
		INSERT INTO fresh VALUES (1);
		UPDATE fresh SET id = 2;
	END`)
	db.MustExec(`CALL mk()`)
	if c := counts("fresh"); c != [3]int64{0, 0, 0} {
		t.Fatalf("rows of the statement that created the table counted %v", c)
	}
}

// TestStatsSurviveCheckpointAndRecovery: the DML counters and the last
// ANALYZE's extras persist through a checkpoint, accumulate across the
// WAL tail, and come back after both a clean reopen and a crash-style
// reopen (no Close).
func TestStatsSurviveCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.SetNow(2010, 7, 1)
	db.MustExec(`CREATE TABLE item (id INTEGER, v INTEGER) AS VALIDTIME`)
	db.MustExec(`NONSEQUENCED VALIDTIME INSERT INTO item VALUES
		(1, 10, DATE '2010-01-01', DATE '2010-06-01'),
		(2, 20, DATE '2010-03-01', DATE '2010-09-01')`)
	db.MustExec(`ANALYZE item`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// WAL tail past the checkpoint: one more insert and a delete.
	db.MustExec(`NONSEQUENCED VALIDTIME INSERT INTO item VALUES (3, 30, DATE '2010-05-01', DATE '2010-07-01')`)
	db.MustExec(`VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') DELETE FROM item WHERE id = 1`)
	want := db.Statistics().Tables
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got := db2.Statistics().Tables
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("table stats: got %d entries, want 1", len(got))
	}
	g, w := got[0], want[0]
	if g.Inserts != w.Inserts || g.Updates != w.Updates || g.Deletes != w.Deletes {
		t.Fatalf("recovered counters %+v, want %+v", g, w)
	}
	if !g.Analyzed || g.MaxOverlap != w.MaxOverlap || g.AnalyzedRows != w.AnalyzedRows {
		t.Fatalf("recovered ANALYZE extras %+v, want %+v", g, w)
	}
	if g.RowCount != w.RowCount || g.DistinctPoints != w.DistinctPoints {
		t.Fatalf("recovered distribution %+v, want %+v", g, w)
	}
	if g.Inserts != 3 || g.Deletes == 0 {
		t.Fatalf("history must span checkpoint + tail: %+v", g)
	}

	// Crash-style recovery: no Close, reopen straight from the synced
	// WAL. Every commit fsyncs, so the stats must come back identically.
	fs := wal.NewMemFS()
	db3, err := OpenFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	db3.SetNow(2010, 7, 1)
	db3.MustExec(`CREATE TABLE item (id INTEGER, v INTEGER) AS VALIDTIME`)
	db3.MustExec(`NONSEQUENCED VALIDTIME INSERT INTO item VALUES (1, 10, DATE '2010-01-01', DATE '2010-06-01')`)
	db3.MustExec(`ANALYZE item`)
	if err := db3.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db3.MustExec(`NONSEQUENCED VALIDTIME INSERT INTO item VALUES (2, 20, DATE '2010-02-01', DATE '2010-05-01')`)
	wantSnap := db3.Statistics().Tables[0]
	// No Close: simulate a crash by abandoning the handle.
	db4, err := OpenFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer db4.Close()
	gotSnap := db4.Statistics().Tables[0]
	if gotSnap.Inserts != wantSnap.Inserts || gotSnap.RowCount != wantSnap.RowCount ||
		!gotSnap.Analyzed || gotSnap.MaxOverlap != wantSnap.MaxOverlap {
		t.Fatalf("crash recovery stats %+v, want %+v", gotSnap, wantSnap)
	}
}

// TestExplainEstimates: before ANALYZE the estimate layer stays dark;
// after ANALYZE of every reachable table EXPLAIN carries est_* numbers
// that agree exactly with the actual slicing counts for a single-table
// statement.
func TestExplainEstimates(t *testing.T) {
	db := paperDB(t)
	defer db.Close()
	db.SetStrategy(Max)
	const q = `VALIDTIME (DATE '2010-02-01', DATE '2010-10-01') SELECT id FROM item`

	e, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if e.HasStats {
		t.Fatal("estimates must require ANALYZE first")
	}
	if got := e.Result().String(); strings.Contains(got, "est_constant_periods") {
		t.Fatalf("un-ANALYZEd EXPLAIN must not render estimates:\n%s", got)
	}

	db.MustExec(`ANALYZE`)
	e, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !e.HasStats {
		t.Fatal("estimates missing after ANALYZE")
	}
	if int(e.EstConstantPeriods) != e.ConstantPeriods {
		t.Fatalf("est_constant_periods %d != actual %d", e.EstConstantPeriods, e.ConstantPeriods)
	}
	if int(e.EstRows) != e.Fragments {
		t.Fatalf("est_rows %d != fragments %d", e.EstRows, e.Fragments)
	}
	out := e.Result().String()
	if !strings.Contains(out, "est_constant_periods") || !strings.Contains(out, "est_rows") {
		t.Fatalf("EXPLAIN output misses estimate rows:\n%s", out)
	}
}

// TestStatsHeuristicHint: once tables are ANALYZEd, the §VII-F Auto
// strategy picks MAX for a context the registry predicts to hold only
// a few constant periods, and reports the stats_few_periods reason.
func TestStatsHeuristicHint(t *testing.T) {
	db := paperDB(t)
	defer db.Close()

	// A one-year context over the paper fixture would default to PERST;
	// the registry knows only a handful of endpoints fall inside it.
	const q = `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT id FROM item`
	e, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if e.Strategy != PerStatement || e.AutoReason != "perst_default" {
		t.Fatalf("pre-ANALYZE: strategy %v reason %q, want PERST/perst_default", e.Strategy, e.AutoReason)
	}

	db.MustExec(`ANALYZE`)
	e, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if e.Strategy != Max || e.AutoReason != "stats_few_periods" {
		t.Fatalf("post-ANALYZE: strategy %v reason %q, want Max/stats_few_periods", e.Strategy, e.AutoReason)
	}
}

// TestDigestStableAcrossRestarts: the statement digest — the join key
// between the slow log, tau_stat_statements, and /statistics — must be
// a pure function of the SQL text, identical in a fresh process or
// after recovery.
func TestDigestStableAcrossRestarts(t *testing.T) {
	const q = `SELECT COUNT(*) FROM item`
	digestOf := func(db *DB) string {
		t.Helper()
		db.MustExec(q)
		for _, s := range db.Statistics().Statements {
			if strings.Contains(s.Text, "COUNT") {
				return s.Digest
			}
		}
		t.Fatal("statement profile missing")
		return ""
	}

	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.SetNow(2010, 7, 1)
	db.MustExec(`CREATE TABLE item (id INTEGER, v INTEGER) AS VALIDTIME`)
	d1 := digestOf(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	d2 := digestOf(db2)
	if d1 != d2 {
		t.Fatalf("digest changed across restart: %s vs %s", d1, d2)
	}

	mem := Open()
	defer mem.Close()
	mem.MustExec(`CREATE TABLE item (id INTEGER, v INTEGER) AS VALIDTIME`)
	if d3 := digestOf(mem); d3 != d1 {
		t.Fatalf("digest differs between processes: %s vs %s", d3, d1)
	}
	if d := digestSQL(q + ";"); d == d1 {
		t.Fatalf("different text must not collide: %s", d)
	}
}

// TestEstimateReadsTheSlicedPeriod: a statement sliced along
// transaction time is estimated from the transaction-time endpoints,
// the ones its constant periods split at, so a single-table estimate
// equals the actual count (from the valid-time endpoints it read 2).
func TestEstimateReadsTheSlicedPeriod(t *testing.T) {
	db := Open()
	defer db.Close()
	db.SetNow(2011, 1, 10)
	db.MustExec(`CREATE TABLE position (id CHAR(4), title CHAR(20)) AS VALIDTIME AS TRANSACTIONTIME`)
	db.MustExec(`VALIDTIME (DATE '2011-01-01', DATE '2011-07-01') INSERT INTO position VALUES ('p1', 'engineer')`)
	db.SetNow(2011, 2, 10)
	db.MustExec(`VALIDTIME (DATE '2011-03-01', DATE '2011-07-01') UPDATE position SET title = 'manager' WHERE id = 'p1'`)
	db.SetNow(2011, 4, 1)
	db.MustExec(`ANALYZE`)
	db.SetStrategy(Max)
	e, err := db.Explain(`TRANSACTIONTIME (DATE '2011-01-01', DATE '2011-05-01') SELECT title FROM position`)
	if err != nil {
		t.Fatal(err)
	}
	if !e.HasStats || int(e.EstConstantPeriods) != e.ConstantPeriods || int(e.EstRows) != e.Fragments {
		t.Fatalf("est %d/%d, actual %d constant periods over %d fragments",
			e.EstConstantPeriods, e.EstRows, e.ConstantPeriods, e.Fragments)
	}
}
