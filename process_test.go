package taupsm_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"taupsm"
	"taupsm/internal/enginetest"
)

// Live query introspection tests: process-list visibility, progress
// monotonicity, registry cleanup, cooperative kill (KILL and context
// cancellation), and the kill-rollback differential — a killed
// statement must leave storage exactly as if it never ran.

// slowDB builds a valid-time table whose rows carry staggered periods
// (many constant periods under sequenced evaluation) plus a spin(x)
// stored function that burns loop PSM statements per call and returns
// x unchanged. Queries calling spin per row run long enough to observe
// and kill.
func slowDB(t testing.TB, rows, loop int) *taupsm.DB {
	t.Helper()
	db := taupsm.Open()
	db.SetNow(2010, 6, 15)
	db.MustExec(`CREATE TABLE work (k INTEGER, v INTEGER) AS VALIDTIME`)
	var b strings.Builder
	b.WriteString("NONSEQUENCED VALIDTIME INSERT INTO work VALUES ")
	base := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		lo := base.AddDate(0, 0, i)
		hi := lo.AddDate(0, 0, 30)
		fmt.Fprintf(&b, "(%d, %d, DATE '%s', DATE '%s')",
			i, i%7, lo.Format("2006-01-02"), hi.Format("2006-01-02"))
	}
	db.MustExec(b.String())
	db.MustExec(fmt.Sprintf(`CREATE FUNCTION spin (x INTEGER) RETURNS INTEGER
BEGIN
  DECLARE i INTEGER;
  SET i = 0;
  WHILE i < %d DO SET i = i + 1; END WHILE;
  RETURN x + i - %d;
END`, loop, loop))
	return db
}

const slowQuery = `VALIDTIME (DATE '2010-01-01', DATE '2010-04-01') SELECT k, spin(k) FROM work`

// waitEmpty polls until no process is in flight (the worker goroutine
// has deregistered its statement).
func waitEmpty(t *testing.T, db *taupsm.DB) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(db.ProcessList()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("registry not empty: %+v", db.ProcessList())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProcessListKill is the tentpole scenario: a long-running
// sequenced MAX statement is visible in the process list with
// monotonically advancing progress counters, KILL stops it with an
// error wrapping ErrQueryKilled, and the registry is empty afterward.
func TestProcessListKill(t *testing.T) {
	db := slowDB(t, 40, 50000)
	defer db.Close()
	db.SetStrategy(taupsm.Max)

	if n := len(db.ProcessList()); n != 0 {
		t.Fatalf("process list not empty before work: %d", n)
	}

	errc := make(chan error, 1)
	go func() {
		_, err := db.Query(slowQuery)
		errc <- err
	}()

	// Poll until the statement is visible with advancing progress,
	// checking monotonicity on the way.
	var prev taupsm.ProcessSnapshot
	var pid int64
	advanced := false
	deadline := time.Now().Add(30 * time.Second)
	for !advanced {
		if time.Now().After(deadline) {
			t.Fatal("statement never showed advancing progress")
		}
		select {
		case err := <-errc:
			t.Fatalf("statement finished before it could be observed: %v", err)
		default:
		}
		ls := db.ProcessList()
		if len(ls) == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		s := ls[0]
		if pid == 0 {
			pid = s.ID
			if s.Kind != "sequenced" || !strings.Contains(s.SQL, "spin(k)") {
				t.Fatalf("unexpected entry: %+v", s)
			}
		}
		if s.ID == prev.ID {
			if s.RoutineCalls < prev.RoutineCalls || s.FragsDone < prev.FragsDone ||
				s.CPDone < prev.CPDone || s.Rows < prev.Rows || s.RowsScanned < prev.RowsScanned {
				t.Fatalf("progress regressed: %+v -> %+v", prev, s)
			}
			if s.RoutineCalls > prev.RoutineCalls && prev.RoutineCalls > 0 {
				advanced = true
			}
		}
		prev = s
		time.Sleep(time.Millisecond)
	}
	if prev.Strategy != "MAX" {
		t.Errorf("strategy = %q, want MAX", prev.Strategy)
	}
	if prev.Stage == "" || prev.StartUnixNS == 0 || prev.ElapsedNS <= 0 {
		t.Errorf("snapshot missing liveness fields: %+v", prev)
	}

	if err := db.Kill(pid); err != nil {
		t.Fatal(err)
	}
	err := <-errc
	if err == nil {
		t.Fatal("killed statement returned nil error")
	}
	if !errors.Is(err, taupsm.ErrQueryKilled) {
		t.Fatalf("error does not wrap ErrQueryKilled: %v", err)
	}
	waitEmpty(t, db)

	// Killing the now-finished pid is an error.
	if err := db.Kill(pid); err == nil {
		t.Fatal("Kill of finished pid succeeded")
	}

	// The database stays fully usable: the same query completes.
	quick := slowDB(t, 8, 10)
	defer quick.Close()
	if _, err := quick.Query(slowQuery); err != nil {
		t.Fatalf("post-kill query: %v", err)
	}
}

// TestRegistryEmptyAfterCompletion: normal completion also deregisters.
func TestRegistryEmptyAfterCompletion(t *testing.T) {
	db := slowDB(t, 8, 10)
	defer db.Close()
	db.SetStrategy(taupsm.Max)
	if _, err := db.Query(slowQuery); err != nil {
		t.Fatal(err)
	}
	if n := len(db.ProcessList()); n != 0 {
		t.Fatalf("registry has %d entries after completion", n)
	}
}

// TestContextCancellation: a cancelled client context kills the
// statement and the error carries the context's cause, not
// ErrQueryKilled.
func TestContextCancellation(t *testing.T) {
	db := slowDB(t, 40, 50000)
	defer db.Close()
	db.SetStrategy(taupsm.Max)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := db.QueryContext(ctx, slowQuery)
		errc <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("statement never appeared in the process list")
		}
		if ls := db.ProcessList(); len(ls) > 0 && ls[0].RoutineCalls > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	err := <-errc
	if err == nil {
		t.Fatal("cancelled statement returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if errors.Is(err, taupsm.ErrQueryKilled) {
		t.Fatalf("context cancellation mislabeled as KILL: %v", err)
	}
	waitEmpty(t, db)
}

// dump renders the table's full nonsequenced history, sorted — the
// storage-equality probe of the differential tests.
func dump(t *testing.T, db *taupsm.DB) string {
	t.Helper()
	res, err := db.Query(`NONSEQUENCED VALIDTIME
		SELECT k, v, begin_time, end_time FROM work ORDER BY begin_time, k, v`)
	if err != nil {
		t.Fatal(err)
	}
	return enginetest.RenderRows(res)
}

// TestKillRollbackDifferential: killing an UPDATE mid-run rolls its
// journal back, leaving storage identical to a control database that
// never ran the statement — and both databases keep agreeing on
// sequenced queries under both strategies afterward. The UPDATE runs
// under current semantics (sequenced DML may not invoke routines, and
// spin is what makes it observable/killable); on a valid-time table
// that is still journaled period surgery, so the rollback property it
// probes is the same.
func TestKillRollbackDifferential(t *testing.T) {
	victim := slowDB(t, 40, 50000)
	defer victim.Close()
	control := slowDB(t, 40, 50000)
	defer control.Close()
	// Move "now" inside the rows' periods so the current UPDATE has
	// rows to modify.
	victim.SetNow(2010, 1, 20)
	control.SetNow(2010, 1, 20)

	before := dump(t, victim)
	if before != dump(t, control) {
		t.Fatal("victim and control diverge before the kill")
	}

	update := `UPDATE work SET v = spin(k)`
	errc := make(chan error, 1)
	go func() {
		_, err := victim.Exec(update)
		errc <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	var pid int64
	for pid == 0 {
		if time.Now().After(deadline) {
			t.Fatal("update never appeared with routine calls in flight")
		}
		select {
		case err := <-errc:
			t.Fatalf("update finished before it could be killed: %v", err)
		default:
		}
		if ls := victim.ProcessList(); len(ls) > 0 && ls[0].RoutineCalls > 0 {
			pid = ls[0].ID
		}
		time.Sleep(time.Millisecond)
	}
	if err := victim.Kill(pid); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, taupsm.ErrQueryKilled) {
		t.Fatalf("killed update error = %v", err)
	}
	waitEmpty(t, victim)

	if after := dump(t, victim); after != before {
		t.Fatalf("kill left residue in storage\n--- before ---\n%s--- after ---\n%s", before, after)
	}

	// Post-kill agreement: both strategies, both databases.
	probe := `VALIDTIME (DATE '2010-01-15', DATE '2010-03-01') SELECT k, v FROM work`
	for _, s := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
		victim.SetStrategy(s)
		control.SetStrategy(s)
		vr, err := victim.Query(probe)
		if err != nil {
			t.Fatalf("victim %v: %v", s, err)
		}
		cr, err := control.Query(probe)
		if err != nil {
			t.Fatalf("control %v: %v", s, err)
		}
		if enginetest.RenderRows(vr) != enginetest.RenderRows(cr) {
			t.Fatalf("strategy %v: victim and control disagree after kill", s)
		}
	}

	// And the victim still accepts writes: an update with a cheap
	// expression commits.
	if _, err := victim.Exec(`UPDATE work SET v = v + 1`); err != nil {
		t.Fatalf("post-kill update: %v", err)
	}
}

// TestBitemporalKillAgreement: killing an UPDATE on a bitemporal table
// mid-run must not record any transaction-time state — the audit trail
// stays identical to a control that never ran it (the cross-axis
// agreement property under kills).
func TestBitemporalKillAgreement(t *testing.T) {
	mk := func() *taupsm.DB {
		db := taupsm.Open()
		db.SetNow(2011, 1, 10)
		db.MustExec(`CREATE TABLE position (id CHAR(4), grade INTEGER) AS VALIDTIME AS TRANSACTIONTIME`)
		var b strings.Builder
		b.WriteString("VALIDTIME (DATE '2011-01-01', DATE '2011-07-01') INSERT INTO position VALUES ")
		for i := 0; i < 30; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "('p%02d', %d)", i, i)
		}
		db.MustExec(b.String())
		db.MustExec(`CREATE FUNCTION spin2 (x INTEGER) RETURNS INTEGER
BEGIN
  DECLARE i INTEGER;
  SET i = 0;
  WHILE i < 50000 DO SET i = i + 1; END WHILE;
  RETURN x + i - 50000;
END`)
		db.SetNow(2011, 2, 10)
		return db
	}
	victim, control := mk(), mk()
	defer victim.Close()
	defer control.Close()

	audit := func(db *taupsm.DB) string {
		res, err := db.Query(`NONSEQUENCED TRANSACTIONTIME
			SELECT id, grade, begin_time, end_time FROM position ORDER BY id, begin_time`)
		if err != nil {
			t.Fatal(err)
		}
		return enginetest.RenderRows(res)
	}
	before := audit(victim)
	if before != audit(control) {
		t.Fatal("victim and control audit trails diverge before the kill")
	}

	errc := make(chan error, 1)
	go func() {
		_, err := victim.Exec(`UPDATE position SET grade = spin2(grade)`)
		errc <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	var pid int64
	for pid == 0 {
		if time.Now().After(deadline) {
			t.Fatal("update never appeared with routine calls in flight")
		}
		select {
		case err := <-errc:
			t.Fatalf("update finished before it could be killed: %v", err)
		default:
		}
		if ls := victim.ProcessList(); len(ls) > 0 && ls[0].RoutineCalls > 0 {
			pid = ls[0].ID
		}
		time.Sleep(time.Millisecond)
	}
	if err := victim.Kill(pid); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, taupsm.ErrQueryKilled) {
		t.Fatalf("killed update error = %v", err)
	}
	waitEmpty(t, victim)

	if after := audit(victim); after != before {
		t.Fatalf("kill recorded transaction-time state\n--- before ---\n%s--- after ---\n%s", before, after)
	}
	// Both axes agree with the control afterward.
	for _, probe := range []string{
		`SELECT id, grade FROM position`,
		`VALIDTIME (DATE '2011-01-01', DATE '2012-01-01') SELECT id, grade FROM position`,
		`VALIDTIME (DATE '2011-05-01') AND TRANSACTIONTIME (DATE '2011-02-01') SELECT id, grade FROM position`,
	} {
		vr, err := victim.Query(probe)
		if err != nil {
			t.Fatalf("victim %q: %v", probe, err)
		}
		cr, err := control.Query(probe)
		if err != nil {
			t.Fatalf("control %q: %v", probe, err)
		}
		if enginetest.RenderRows(vr) != enginetest.RenderRows(cr) {
			t.Fatalf("%q: victim and control disagree after kill", probe)
		}
	}
}

// TestKillPersistentRecovery: on a persistent database, a killed
// statement must leave nothing in the WAL — after closing and
// recovering, storage matches a control that never ran it, and the
// database accepts further committed writes.
func TestKillPersistentRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := taupsm.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.SetNow(2010, 1, 20)
	db.MustExec(`CREATE TABLE work (k INTEGER, v INTEGER) AS VALIDTIME`)
	var b strings.Builder
	b.WriteString("NONSEQUENCED VALIDTIME INSERT INTO work VALUES ")
	for i := 0; i < 30; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, DATE '2010-01-01', DATE '2010-03-01')", i, i)
	}
	db.MustExec(b.String())
	db.MustExec(`CREATE FUNCTION spin (x INTEGER) RETURNS INTEGER
BEGIN
  DECLARE i INTEGER;
  SET i = 0;
  WHILE i < 50000 DO SET i = i + 1; END WHILE;
  RETURN x + i - 50000;
END`)
	before := dump(t, db)

	errc := make(chan error, 1)
	go func() {
		_, err := db.Exec(`UPDATE work SET v = spin(k)`)
		errc <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	var pid int64
	for pid == 0 {
		if time.Now().After(deadline) {
			t.Fatal("update never appeared with routine calls in flight")
		}
		select {
		case err := <-errc:
			t.Fatalf("update finished before it could be killed: %v", err)
		default:
		}
		if ls := db.ProcessList(); len(ls) > 0 && ls[0].RoutineCalls > 0 {
			pid = ls[0].ID
		}
		time.Sleep(time.Millisecond)
	}
	if err := db.Kill(pid); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, taupsm.ErrQueryKilled) {
		t.Fatalf("killed update error = %v", err)
	}
	waitEmpty(t, db)
	// A committed write after the kill, then recover.
	db.MustExec(`UPDATE work SET v = v + 100 WHERE k = 0`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := taupsm.OpenDir(dir)
	if err != nil {
		t.Fatalf("recovery after kill: %v", err)
	}
	defer db2.Close()
	db2.SetNow(2010, 1, 20)
	after := dump(t, db2)
	if after == before {
		t.Fatal("post-kill committed write did not survive recovery")
	}
	if !strings.Contains(after, "100") {
		t.Fatalf("recovered state missing committed write:\n%s", after)
	}
	// The killed update's spin result (k + 0 for every row) must not
	// appear: row k=5 keeps v=5.
	res, err := db2.Query(`SELECT v FROM work WHERE k = 5`)
	if err != nil {
		t.Fatal(err)
	}
	if got := enginetest.RenderRows(res); !strings.Contains(got, "5") {
		t.Fatalf("killed update leaked into the WAL: row k=5 has v=%s", got)
	}
}

// TestShowProcesslistAndKillSQL drives the SQL surface: SHOW
// PROCESSLIST, KILL <pid>, and the tau_stat_activity system table
// (which observes the querying statement itself).
func TestShowProcesslistAndKillSQL(t *testing.T) {
	db := slowDB(t, 40, 50000)
	defer db.Close()

	// An idle database: SHOW PROCESSLIST returns the activity columns
	// and no rows — the SHOW statement is answered by the stratum
	// before registration, so unlike tau_stat_activity it does not
	// observe itself.
	res, err := db.Exec(`SHOW PROCESSLIST`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) == 0 || res.Columns[0] != "pid" {
		t.Fatalf("SHOW PROCESSLIST columns = %v", res.Columns)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("SHOW PROCESSLIST on idle db: %d rows, want 0", len(res.Rows))
	}

	// tau_stat_activity via plain SQL sees exactly the querying
	// statement.
	res, err = db.Query(`SELECT kind, statement FROM tau_stat_activity`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][1].String(), "tau_stat_activity") {
		t.Fatalf("tau_stat_activity self-view = %v", res.Rows)
	}

	// KILL of an unknown pid is an error.
	if _, err := db.Exec(`KILL 999999`); err == nil {
		t.Fatal("KILL of unknown pid succeeded")
	}

	// KILL a live statement through SQL.
	db.SetStrategy(taupsm.Max)
	errc := make(chan error, 1)
	go func() {
		_, err := db.Query(slowQuery)
		errc <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	var pid int64
	for pid == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never appeared")
		}
		for _, s := range db.ProcessList() {
			if s.Kind == "sequenced" && s.RoutineCalls > 0 {
				pid = s.ID
			}
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := db.Exec(fmt.Sprintf("KILL %d", pid)); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, taupsm.ErrQueryKilled) {
		t.Fatalf("killed query error = %v", err)
	}
	waitEmpty(t, db)
}

// wal_pending counts the changes the write-ahead log will receive when
// the statement commits: the redo records. Read from tau_stat_activity
// inside a routine, it is 0 after an INSERT into a collection variable,
// whose change is undo only, and 3 after a 3-row INSERT into a catalog
// table, whose statement-level undo is no change the log sees.
func TestWALPendingCountsRedoRecordsOnly(t *testing.T) {
	db := taupsm.Open()
	defer db.Close()
	for _, src := range []string{
		`CREATE TABLE one (k INTEGER)`,
		`INSERT INTO one VALUES (1)`,
		`CREATE TABLE dst (x INTEGER)`,
		`CREATE TABLE seen (n INTEGER)`,
		`CREATE FUNCTION pend_coll () RETURNS INTEGER BEGIN
			DECLARE c ROW(v INTEGER) ARRAY;
			DECLARE seen ROW(n INTEGER) ARRAY;
			INSERT INTO TABLE c VALUES (1), (2);
			INSERT INTO TABLE seen SELECT wal_pending FROM tau_stat_activity;
			RETURN (SELECT n FROM seen);
		END`,
		`CREATE PROCEDURE pend_cat () BEGIN
			INSERT INTO dst VALUES (1), (2), (3);
			INSERT INTO seen SELECT wal_pending FROM tau_stat_activity;
		END`,
		`CALL pend_cat()`,
	} {
		if _, err := db.Exec(src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	for _, c := range []struct{ what, query, want string }{
		{"an INSERT into a collection", `SELECT pend_coll() FROM one`, "0"},
		{"a 3-row INSERT into a catalog table", `SELECT n FROM seen`, "3"},
	} {
		res, err := db.Query(c.query)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSpace(enginetest.RenderRows(res)); got != c.want {
			t.Errorf("wal_pending after %s = %s, want %s", c.what, got, c.want)
		}
	}
}
