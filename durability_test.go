package taupsm

// Durability tests: the persistence contract is that a database
// reopened from its data directory — after a clean close OR after a
// crash at ANY single I/O operation — holds exactly the state of some
// statement-aligned prefix of what was acknowledged, and specifically
// the full acknowledged prefix (a statement whose Exec returned
// success is never lost, one whose Exec failed never partially
// applies). The fault-injection harness below proves this for every
// injection point of a multi-statement workload.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/wal"
)

// stateDump renders the persistent part of a database's catalog
// deterministically: durable tables with rows in storage order, views,
// and routines. Temporary tables are session scratch and excluded —
// they are exactly what recovery is NOT expected to rebuild.
func stateDump(db *DB) string {
	cat := db.eng.Cat
	var b strings.Builder
	tables := cat.TableNames()
	sort.Strings(tables)
	for _, name := range tables {
		t := cat.Table(name)
		if t.Temporary {
			continue
		}
		fmt.Fprintf(&b, "table %s valid=%v trans=%v cols=%v\n", t.Name, t.ValidTime, t.TransactionTime, t.Schema.Cols)
		for _, row := range t.Rows {
			fmt.Fprintf(&b, "  %v\n", row)
		}
	}
	views := cat.ViewNames()
	sort.Strings(views)
	for _, name := range views {
		v := cat.View(name)
		s := &sqlast.CreateViewStmt{Name: v.Name, Cols: v.Cols, Query: v.Query, Mod: v.Mod}
		fmt.Fprintf(&b, "view %s: %s\n", name, s.SQL())
	}
	routines := cat.RoutineNames()
	sort.Strings(routines)
	for _, name := range routines {
		r := cat.Routine(name)
		if r.Kind == storage.KindFunction {
			fmt.Fprintf(&b, "routine %s: %s\n", name, r.Fn.SQL())
		} else {
			fmt.Fprintf(&b, "routine %s: %s\n", name, r.Proc.SQL())
		}
	}
	return b.String()
}

// durabilityWorkload is a deterministic statement sequence covering
// every effect the WAL can carry: DDL (temporal and plain tables,
// views, routines, ALTER ... ADD VALIDTIME), current and nonsequenced
// inserts, sequenced and current updates and deletes, and a procedure
// whose CALL commits several effects as one statement. Every statement
// changes durable state, so the acknowledged-statement count fully
// determines the expected recovered state.
func durabilityWorkload() []string {
	return []string{
		`CREATE TABLE item (id INTEGER, name CHAR(20), price INTEGER) AS VALIDTIME`,
		`CREATE TABLE plain (k INTEGER, v INTEGER)`,
		`NONSEQUENCED VALIDTIME INSERT INTO item VALUES (1, 'alpha', 10, DATE '2010-01-01', DATE '2012-01-01')`,
		`NONSEQUENCED VALIDTIME INSERT INTO item VALUES (2, 'beta', 20, DATE '2010-03-01', DATE '2010-09-01')`,
		`NONSEQUENCED VALIDTIME INSERT INTO item VALUES (3, 'gamma', 30, DATE '2010-06-01', DATE '2011-06-01')`,
		`INSERT INTO plain VALUES (1, 100), (2, 200), (3, 300)`,
		`INSERT INTO item VALUES (4, 'delta', 40)`,
		`VALIDTIME (DATE '2010-04-01', DATE '2010-08-01') UPDATE item SET price = price + 5 WHERE id = 2`,
		`UPDATE plain SET v = v + 1 WHERE k = 1`,
		`VALIDTIME (DATE '2010-06-01', DATE '2010-07-01') DELETE FROM item WHERE id = 3`,
		`DELETE FROM plain WHERE k = 2`,
		`CREATE VIEW cheap AS SELECT id FROM item WHERE price < 25`,
		`CREATE FUNCTION bump (x INTEGER) RETURNS INTEGER RETURN x + 1`,
		`CREATE PROCEDURE pay (IN d INTEGER) MODIFIES SQL DATA LANGUAGE SQL BEGIN UPDATE plain SET v = v + d; INSERT INTO plain VALUES (9, d); END`,
		`CALL pay(7)`,
		`INSERT INTO plain VALUES (10, 1000)`,
		`VALIDTIME (DATE '2010-01-01', DATE '2010-02-01') UPDATE item SET name = 'alpha2' WHERE id = 1`,
		`NONSEQUENCED VALIDTIME INSERT INTO item VALUES (5, 'eps', 50, DATE '2011-01-01', DATE '2011-12-01')`,
		`UPDATE plain SET v = v * 2 WHERE k = 3`,
		`DELETE FROM plain WHERE k = 9`,
		`DROP VIEW cheap`,
		`CREATE VIEW rich AS SELECT id FROM item WHERE price > 15`,
		`INSERT INTO plain VALUES (11, 1), (12, 2), (13, 3)`,
		`VALIDTIME (DATE '2010-09-01', DATE '2011-03-01') DELETE FROM item WHERE id = 1`,
		`UPDATE plain SET v = v - 1`,
		`ALTER TABLE plain ADD VALIDTIME`,
		`INSERT INTO plain VALUES (14, 999)`,
		`DELETE FROM plain WHERE k = 11`,
		`DROP FUNCTION bump`,
		`NONSEQUENCED VALIDTIME INSERT INTO item VALUES (6, 'zeta', 60, DATE '2010-02-01', DATE '2010-04-01')`,
	}
}

// openMem opens a persistent database over fs with the workload's
// fixed clock.
func openMem(t *testing.T, fs wal.FS) *DB {
	t.Helper()
	db, err := OpenFS(fs)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	db.SetNow(2010, 7, 1)
	return db
}

// TestPersistRoundtrip is the basic contract over a real directory:
// exec, close, reopen, same state and same query results.
func TestPersistRoundtrip(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	db.SetNow(2010, 7, 1)
	for _, stmt := range durabilityWorkload() {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("exec %q: %v", stmt, err)
		}
	}
	const q = `VALIDTIME (DATE '2010-01-01', DATE '2012-01-01') SELECT id, name, price FROM item`
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := stateDump(db)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	db2.SetNow(2010, 7, 1)
	if got := stateDump(db2); got != want {
		t.Fatalf("recovered state differs:\n--- want\n%s--- got\n%s", want, got)
	}
	res2, err := db2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != res2.String() {
		t.Fatalf("query results differ after reopen:\n--- before\n%s--- after\n%s", res, res2)
	}
	if !db2.Persistent() || db2.RecoveryInfo() == nil {
		t.Fatal("reopened database does not report persistence")
	}
}

// TestModificationWhoseRoutineWritesTheTargetRecovers: an UPDATE whose
// SET calls a routine that deletes a row of the target before the one the
// UPDATE changes, and a DELETE whose WHERE calls a routine that inserts
// into its target, log the rows where they are when the statement writes
// them, so a reopen recovers the state they left: the row updated, and
// the row inserted kept.
func TestModificationWhoseRoutineWritesTheTargetRecovers(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	for _, stmt := range []string{
		`CREATE TABLE t (k INTEGER, v INTEGER)`,
		`INSERT INTO t VALUES (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)`,
		`CREATE FUNCTION drop1 (x INTEGER) RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL BEGIN DELETE FROM t WHERE k = 1; RETURN x; END`,
		`CREATE FUNCTION ins (x INTEGER) RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL BEGIN INSERT INTO t VALUES (x + 10, 9); RETURN 1; END`,
		`UPDATE t SET v = drop1(k) WHERE k = 4`,
		`DELETE FROM t WHERE k = 2 AND ins(k) = 1`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("exec %q: %v", stmt, err)
		}
	}
	res, err := db.Query(`SELECT k, v FROM t ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.String(), "k   v\n--  -\n3   0\n4   4\n5   0\n12  9\n"; got != want {
		t.Errorf("live rows:\n%s\nwant:\n%s", got, want)
	}
	want := stateDump(db)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if got := stateDump(db2); got != want {
		t.Fatalf("recovered state differs:\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestCheckpointCompacts proves checkpoint preserves state and resets
// the log: after Checkpoint the WAL holds only its header, and a
// reopen recovers everything from the snapshot alone.
func TestCheckpointCompacts(t *testing.T) {
	fs := wal.NewMemFS()
	db := openMem(t, fs)
	for _, stmt := range durabilityWorkload() {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("exec %q: %v", stmt, err)
		}
	}
	want := stateDump(db)
	before := db.Metrics().Value("wal.bytes")
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if after := db.Metrics().Value("wal.bytes"); after >= before {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d bytes", before, after)
	}
	db.Close()

	db2 := openMem(t, fs.CrashImage())
	defer db2.Close()
	if got := stateDump(db2); got != want {
		t.Fatalf("post-checkpoint recovery differs:\n--- want\n%s--- got\n%s", want, got)
	}
	info := db2.RecoveryInfo()
	if info.Commits != 0 {
		t.Fatalf("recovery replayed %d commits from a checkpointed log, want 0", info.Commits)
	}
}

// TestInMemoryHasNoCheckpoint pins the in-memory API: Checkpoint
// errors, Close is a no-op, the database is not persistent.
func TestInMemoryHasNoCheckpoint(t *testing.T) {
	db := Open()
	if db.Persistent() || db.RecoveryInfo() != nil {
		t.Fatal("in-memory database claims persistence")
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("in-memory Checkpoint succeeded")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("in-memory Close: %v", err)
	}
}

// TestRecoveryMetricsVisible asserts the durability counters surface
// through the same registry the REPL's \metrics prints.
func TestRecoveryMetricsVisible(t *testing.T) {
	fs := wal.NewMemFS()
	db := openMem(t, fs)
	if _, err := db.Exec(`CREATE TABLE m (x INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO m VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := openMem(t, fs.CrashImage())
	defer db2.Close()
	m := db2.Metrics()
	if got := m.Value("wal.recovery_commits"); got != 2 {
		t.Fatalf("wal.recovery_commits = %d, want 2", got)
	}
	if m.Value("wal.epoch") < 2 {
		t.Fatalf("wal.epoch = %d, want >= 2 after reopen", m.Value("wal.epoch"))
	}
	text := m.String()
	for _, name := range []string{"wal.epoch", "wal.bytes", "wal.fsyncs_total", "wal.recovery_ns", "wal.recovery_commits"} {
		if !strings.Contains(text, name) {
			t.Fatalf("metrics dump is missing %s:\n%s", name, text)
		}
	}
	e, err := db2.Explain(`SELECT x FROM m`)
	if err != nil {
		t.Fatal(err)
	}
	if e.Durability == "" || !strings.Contains(e.String(), "durability") {
		t.Fatalf("EXPLAIN has no durability line: %+v", e)
	}
}

// TestStatementAtomicityOnDisk is the regression for the
// statement-atomicity fix, on the durable path: an UPDATE that fails
// mid-scan (division by zero after earlier rows were rewritten) leaves
// the table untouched in memory AND writes nothing to the log, so the
// reopened database agrees.
func TestStatementAtomicityOnDisk(t *testing.T) {
	fs := wal.NewMemFS()
	db := openMem(t, fs)
	for _, stmt := range []string{
		`CREATE TABLE acct (id INTEGER, bal INTEGER)`,
		`INSERT INTO acct VALUES (1, 10), (2, 20), (3, 0), (4, 40)`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	want := stateDump(db)
	logBytes := db.Metrics().Value("wal.bytes")

	if _, err := db.Exec(`UPDATE acct SET bal = 100 / bal`); err == nil {
		t.Fatal("UPDATE over a zero divisor succeeded")
	}
	if got := stateDump(db); got != want {
		t.Fatalf("failed UPDATE changed memory:\n--- want\n%s--- got\n%s", want, got)
	}
	if got := db.Metrics().Value("wal.bytes"); got != logBytes {
		t.Fatalf("failed UPDATE wrote %d log bytes", got-logBytes)
	}
	db.Close()

	db2 := openMem(t, fs.CrashImage())
	defer db2.Close()
	if got := stateDump(db2); got != want {
		t.Fatalf("failed UPDATE leaked to disk:\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestFaultInjection is the headline harness: for EVERY I/O operation
// position n of the reference run — including the operations of the
// initial Open and its checkpoint — crash the filesystem at n (both
// fail-stop and torn-write models), reopen from the crash image, and
// require the recovered state to be byte-identical to the reference
// state after exactly the acknowledged statements. No acknowledged
// statement may be lost, no unacknowledged statement may surface, no
// crash point may make recovery itself fail.
func TestFaultInjection(t *testing.T) {
	stmts := durabilityWorkload()

	// Reference run: dumps[i] is the state after i acknowledged
	// statements; totalOps the I/O budget a clean run consumes.
	ref := wal.NewMemFS()
	rdb := openMem(t, ref)
	dumps := []string{stateDump(rdb)}
	for _, stmt := range stmts {
		if _, err := rdb.Exec(stmt); err != nil {
			t.Fatalf("reference exec %q: %v", stmt, err)
		}
		dumps = append(dumps, stateDump(rdb))
	}
	totalOps := ref.Ops()
	rdb.Close()

	if totalOps < 50 {
		t.Fatalf("workload exercises only %d I/O operations, need >= 50 crash points", totalOps)
	}

	crashes := 0
	for n := 1; n <= totalOps; n++ {
		for _, mode := range []wal.FaultMode{wal.FaultFail, wal.FaultTorn} {
			fs := wal.NewMemFS()
			fs.SetFault(n, mode)
			acked := 0
			db, err := OpenFS(fs)
			if err == nil {
				db.SetNow(2010, 7, 1)
				for _, stmt := range stmts {
					if _, err := db.Exec(stmt); err != nil {
						break
					}
					acked++
				}
				db.Close()
			}
			if fs.Crashed() {
				crashes++
			}

			img := fs.CrashImage()
			db2, err := OpenFS(img)
			if err != nil {
				t.Fatalf("op %d mode %d: recovery failed: %v", n, mode, err)
			}
			if got := stateDump(db2); got != dumps[acked] {
				t.Errorf("op %d mode %d: recovered state is not the %d-statement prefix:\n--- want\n%s--- got\n%s",
					n, mode, acked, dumps[acked], got)
			}
			db2.Close()
			if t.Failed() {
				return
			}
		}
	}
	t.Logf("fault injection: %d I/O positions, %d crashes, all recoveries prefix-exact", totalOps, crashes)
	if crashes < 50 {
		t.Fatalf("only %d crash points fired, need >= 50", crashes)
	}
}

// TestShortReadAbortsRecovery: a transient read failure during
// recovery must abort Open — never be misread as a truncated log (that
// would silently discard durable statements). A clean retry then
// recovers everything.
func TestShortReadAbortsRecovery(t *testing.T) {
	fs := wal.NewMemFS()
	db := openMem(t, fs)
	for _, stmt := range durabilityWorkload() {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	want := stateDump(db)
	db.Close()
	img := fs.CrashImage()

	// Count the read path's operations with a clean probe, then inject
	// a short read at each position.
	probe := img.CrashImage()
	pdb := openMem(t, probe)
	pdb.Close()
	openOps := probe.Ops()

	aborted := 0
	for n := 1; n <= openOps; n++ {
		fsn := img.CrashImage()
		fsn.SetFault(n, wal.FaultShortRead)
		db2, err := OpenFS(fsn)
		if err != nil {
			aborted++
		} else {
			// The fault landed on a non-read op and so never fired; the
			// open must have recovered everything.
			if got := stateDump(db2); got != want {
				t.Fatalf("op %d: clean-looking open lost state", n)
			}
			db2.Close()
		}
		// Either way a clean retry sees the full acknowledged state.
		retry := openMem(t, img.CrashImage())
		if got := stateDump(retry); got != want {
			t.Fatalf("op %d: retry after short read lost state:\n--- want\n%s--- got\n%s", n, want, got)
		}
		retry.Close()
	}
	if aborted == 0 {
		t.Fatal("no short read ever aborted recovery; the fault never hit the read path")
	}
}
