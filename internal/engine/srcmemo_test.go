package engine

import (
	"fmt"
	"sync"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// The tests of the source memo (srcMemo, plan.go): what a closed
// stored-table source of a SELECT plan remembers between loads. They
// parse once and execute the same AST repeatedly — the reuse pattern the
// stratum's statement plan produces — and compare with a session that
// loads every source afresh (LoadAfresh). Several keep the TestPrepared
// names they had when the memo was a separate Prepared object.

// parseStmt parses one statement, failing the test on error.
func parseStmt(t *testing.T, src string) sqlast.Stmt {
	t.Helper()
	stmt, err := sqlparser.ParseStatement(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return stmt
}

func run(t *testing.T, db *DB, stmt sqlast.Stmt, tables map[string]*storage.Table) *Result {
	t.Helper()
	res, err := db.ExecStmtWithTables(stmt, tables)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	return res
}

// runAfresh executes stmt on a session that neither reads nor fills a
// memo, and requires that it recorded no hit.
func runAfresh(t *testing.T, db *DB, stmt sqlast.Stmt, tables map[string]*storage.Table) *Result {
	t.Helper()
	ses := db.NewSession()
	ses.LoadAfresh()
	res := run(t, ses, stmt, tables)
	if ses.Stats.PlanReuseHits != 0 {
		t.Fatalf("a LoadAfresh session recorded %d hits", ses.Stats.PlanReuseHits)
	}
	return res
}

// memoOf returns what source i of stmt's (already built) plan remembers.
func memoOf(t *testing.T, db *DB, stmt sqlast.Stmt, i int) *srcMemo {
	t.Helper()
	p, _ := db.plans.get(stmt).(*selPlan)
	if p == nil {
		t.Fatal("the statement has no cached plan")
	}
	return p.from[i].memo.Load()
}

// hitsOf runs stmt and returns the rows and the hits that execution
// recorded.
func hitsOf(t *testing.T, db *DB, stmt sqlast.Stmt) (string, int64) {
	t.Helper()
	h := db.Stats.PlanReuseHits
	res := run(t, db, stmt, nil)
	return fmt.Sprint(rowsText(res)), db.Stats.PlanReuseHits - h
}

// The first load under a stamp keeps only the stamp, the second keeps the
// relation, the third is served it; a session loading afresh returns the
// same rows.
func TestPreparedServesSourceRelations(t *testing.T) {
	db := newTestDB(t)
	stmt := parseStmt(t, `SELECT title FROM item WHERE price > 15.0`)

	first, h := hitsOf(t, db, stmt)
	if m := memoOf(t, db, stmt, 0); h != 0 || m == nil || m.rel != nil {
		t.Fatalf("first load: %d hits, memo %+v; want the stamp and no relation", h, m)
	}
	second, h := hitsOf(t, db, stmt)
	m := memoOf(t, db, stmt, 0)
	if h != 0 || m.rel == nil || m.rel.n != 2 {
		t.Fatalf("second load: %d hits, memo %+v; want the relation kept and not yet served", h, m)
	}
	third, h := hitsOf(t, db, stmt)
	if h != 1 || memoOf(t, db, stmt, 0) != m {
		t.Fatalf("third load: %d hits (want 1), memo replaced: %v", h, memoOf(t, db, stmt, 0) != m)
	}
	afresh := fmt.Sprint(rowsText(runAfresh(t, db, stmt, nil)))
	if second != first || third != first || afresh != first {
		t.Fatalf("executions diverge: %s, %s, %s, afresh %s", first, second, third, afresh)
	}
	if memoOf(t, db, stmt, 0) != m {
		t.Fatal("a LoadAfresh session replaced the memo")
	}
}

// The hash table a join builds over a kept relation is kept with it: the
// second execution builds both, the third is served both — per joined
// source one relation and one hash table.
func TestPreparedCachesJoinHashTables(t *testing.T) {
	db := newTestDB(t)
	stmt := parseStmt(t, `SELECT title, first_name FROM item, item_author, author
		WHERE item.id = item_author.item_id AND item_author.author_id = author.author_id`)

	first, h := hitsOf(t, db, stmt)
	if m := memoOf(t, db, stmt, 1); h != 0 || m.rel != nil || m.hash != nil {
		t.Fatalf("first execution: %d hits, memo %+v; want only the stamp", h, m)
	}
	second, h := hitsOf(t, db, stmt)
	for i := 1; i <= 2; i++ {
		if m := memoOf(t, db, stmt, i); h != 0 || m.rel == nil || m.hash == nil {
			t.Fatalf("second execution, source %d: %d hits, memo %+v; want relation and hash table kept", i, h, m)
		}
	}
	third, h := hitsOf(t, db, stmt)
	if h != 5 { // three relations, two hash tables
		t.Fatalf("third execution recorded %d hits, want 5", h)
	}
	afresh := fmt.Sprint(rowsText(runAfresh(t, db, stmt, nil)))
	if second != first || third != first || afresh != first {
		t.Fatalf("executions diverge: %s, %s, %s, afresh %s", first, second, third, afresh)
	}
}

// A join key that is not a plain column may read anything: its hash table
// is rebuilt by every execution, the relation under it still served.
func TestSrcMemoKeepsNoHashTableOverExpressions(t *testing.T) {
	db := newTestDB(t)
	stmt := parseStmt(t, `SELECT title FROM item, item_author WHERE item.id = item_author.item_id + 0`)
	for i := 0; i < 3; i++ {
		run(t, db, stmt, nil)
	}
	if m := memoOf(t, db, stmt, 1); m.rel == nil || m.hash != nil {
		t.Fatalf("memo %+v; want the relation and no hash table", m)
	}
}

// DML between executions bumps the table version, so the kept relation
// is rebuilt instead of served stale — and kept again two loads later.
func TestPreparedInvalidatedByDML(t *testing.T) {
	db := newTestDB(t)
	stmt := parseStmt(t, `SELECT title FROM item WHERE price > 15.0`)

	first := run(t, db, stmt, nil)
	run(t, db, stmt, nil)
	if _, h := hitsOf(t, db, stmt); h != 1 {
		t.Fatalf("warm execution recorded %d hits, want 1", h)
	}
	mustExec(t, db, `INSERT INTO item VALUES (4, 'New Book', 40.0)`)
	after, h := hitsOf(t, db, stmt)
	if h != 0 {
		t.Fatalf("the execution after DML recorded %d hits", h)
	}
	if m := memoOf(t, db, stmt, 0); m.rel != nil {
		t.Fatal("the first load under the new version kept a relation")
	}
	want := append(rowsText(first), "New Book")
	if after != fmt.Sprint(want) {
		t.Fatalf("post-DML execution returned %s, want %v (stale kept relation?)", after, want)
	}
	if afresh := fmt.Sprint(rowsText(runAfresh(t, db, stmt, nil))); afresh != after {
		t.Fatalf("post-DML execution diverges from one loading afresh: %s vs %s", after, afresh)
	}
	hitsOf(t, db, stmt)
	if again, h := hitsOf(t, db, stmt); h != 1 || again != after {
		t.Fatalf("third load under the new version: %d hits, rows %s", h, again)
	}
}

// A table-valued variable shadowing a catalog name is per-execution
// state: the memo neither serves nor keeps it — also when the catalog
// table's relation is already kept.
func TestPreparedSkipsVarShadowedTables(t *testing.T) {
	db := newTestDB(t)
	stmt := parseStmt(t, `SELECT n FROM shadow`)
	mustExec(t, db, `CREATE TABLE shadow (n INTEGER); INSERT INTO shadow VALUES (99)`)

	varTab := func(vals ...int64) *storage.Table {
		tab := storage.NewTable("shadow", storage.NewSchema([]storage.Column{
			{Name: "n", Type: sqlast.TypeName{Base: "INTEGER"}},
		}))
		tab.Temporary = true
		for _, v := range vals {
			tab.Rows = append(tab.Rows, []types.Value{types.NewInt(v)})
		}
		return tab
	}

	for i := 0; i < 3; i++ {
		run(t, db, stmt, nil)
	}
	if m := memoOf(t, db, stmt, 0); m == nil || m.rel == nil {
		t.Fatal("the catalog table's relation was not kept")
	}
	h0 := db.Stats.PlanReuseHits
	for i := 0; i < 2; i++ {
		r1 := run(t, db, stmt, map[string]*storage.Table{"shadow": varTab(1, 2)})
		r2 := run(t, db, stmt, map[string]*storage.Table{"shadow": varTab(7)})
		if len(r1.Rows) != 2 || len(r2.Rows) != 1 {
			t.Fatalf("var-shadowed scans returned %d and %d rows, want 2 and 1 (kept across executions?)",
				len(r1.Rows), len(r2.Rows))
		}
	}
	if db.Stats.PlanReuseHits != h0 {
		t.Fatalf("a var-shadowed table was served from a memo (%d hits)", db.Stats.PlanReuseHits-h0)
	}
	// The name now resolves differently, so the plan was rebuilt; the one
	// that scans the variable remembers nothing.
	if m := memoOf(t, db, stmt, 0); m != nil {
		t.Fatalf("a var-shadowed load left a memo: %+v", m)
	}
}

// A closed pushdown may contain CURRENT_DATE, so the stamp carries the
// clock and the relation is rebuilt when db.Now moves.
func TestPreparedInvalidatedByClock(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
		CREATE TABLE evt (name VARCHAR(10), d DATE);
		INSERT INTO evt VALUES ('old', DATE '2010-01-01'), ('new', DATE '2012-01-01');
	`)
	stmt := parseStmt(t, `SELECT name FROM evt WHERE d <= CURRENT_DATE`)

	db.Now = types.MustDate(2011, 1, 1)
	r1 := run(t, db, stmt, nil)
	run(t, db, stmt, nil)
	if _, h := hitsOf(t, db, stmt); h != 1 {
		t.Fatalf("warm execution recorded %d hits, want 1", h)
	}
	db.Now = types.MustDate(2013, 1, 1)
	r2 := run(t, db, stmt, nil)
	if len(r1.Rows) != 1 || len(r2.Rows) != 2 {
		t.Fatalf("clock move served a stale filtered relation: %d then %d rows, want 1 then 2",
			len(r1.Rows), len(r2.Rows))
	}
}

// A temporary table dropped and re-created with the same name, columns
// and number of writes — what PERST's scratch tables do around every
// statement — is a new object at the same version: the stamp's table
// identity is what tells them apart.
func TestSrcMemoInvalidatedByRecreatedTable(t *testing.T) {
	db := newTestDB(t)
	create := func(v int) {
		mustExec(t, db, fmt.Sprintf(`CREATE TEMPORARY TABLE scratch (x INTEGER); INSERT INTO scratch VALUES (%d)`, v))
	}
	create(1)
	stmt := parseStmt(t, `SELECT x FROM scratch`)
	for i := 0; i < 3; i++ {
		expectRows(t, run(t, db, stmt, nil), "1")
	}
	old := memoOf(t, db, stmt, 0)
	if old.rel == nil {
		t.Fatal("the relation was not kept")
	}
	mustExec(t, db, `DROP TABLE scratch`)
	create(2)
	if now := db.Cat.Table("scratch"); now == old.tab || now.Version() != old.version {
		t.Fatalf("the case needs a new object at the old version: same object %v, versions %d and %d",
			now == old.tab, now.Version(), old.version)
	}
	_, h := hitsOf(t, db, stmt)
	expectRows(t, run(t, db, stmt, nil), "2")
	if h != 0 {
		t.Fatal("the re-created table was served the dropped one's relation")
	}
	if m := memoOf(t, db, stmt, 0); m.tab != db.Cat.Table("scratch") {
		t.Fatal("the memo still holds the dropped table")
	}
}

// Sessions share a plan and with it its memos: four sessions executing
// whole statements and two executing it over chunks of the period table,
// as parallel MAX workers do, all load the same sources at once. Every
// result equals the one loaded afresh, and hits are recorded.
func TestSrcMemoSharedByConcurrentSessions(t *testing.T) {
	db := newTestDB(t)
	stmt := parseStmt(t, `SELECT cp.d, title, first_name FROM taupsm_cp cp, item, item_author, author
		WHERE item.id = item_author.item_id AND item_author.author_id = author.author_id AND item.price > cp.d`)
	cpTab := func(lo, hi int64) map[string]*storage.Table {
		tab := storage.NewTable("taupsm_cp", storage.NewSchema([]storage.Column{
			{Name: "d", Type: sqlast.TypeName{Base: "INTEGER"}},
		}))
		tab.Temporary = true
		for d := lo; d < hi; d++ {
			tab.Rows = append(tab.Rows, []types.Value{types.NewInt(d * 5)})
		}
		return map[string]*storage.Table{"taupsm_cp": tab}
	}
	// One user per session: whole statements, or a worker's chunks.
	users := [][]map[string]*storage.Table{
		{cpTab(0, 6)}, {cpTab(0, 6)}, {cpTab(0, 6)}, {cpTab(0, 6)},
		{cpTab(0, 1), cpTab(1, 2), cpTab(2, 3)}, {cpTab(3, 4), cpTab(4, 5), cpTab(5, 6)},
	}
	want := make([][]string, len(users))
	for u, chunks := range users {
		for _, c := range chunks {
			want[u] = append(want[u], fmt.Sprint(rowsText(runAfresh(t, db, stmt, c))))
		}
	}

	const rounds = 40
	type outcome struct {
		err  error
		hits int64
	}
	done := make(chan outcome, len(users))
	for u, chunks := range users {
		ses := db.NewSession()
		go func() {
			for r := 0; r < rounds; r++ {
				for c, tables := range chunks {
					res, err := ses.ExecStmtWithTables(stmt, tables)
					if err == nil && fmt.Sprint(rowsText(res)) != want[u][c] {
						err = fmt.Errorf("session %d chunk %d: rows %v, want %s", u, c, rowsText(res), want[u][c])
					}
					if err != nil {
						done <- outcome{err: err}
						return
					}
				}
			}
			done <- outcome{hits: ses.Stats.PlanReuseHits}
		}()
	}
	var hits int64
	for range users {
		o := <-done
		if o.err != nil {
			t.Error(o.err)
		}
		hits += o.hits
	}
	if hits == 0 {
		t.Fatal("no session was served from a memo; the test shared nothing")
	}
}

// The memo belongs to the plan node, so every execution path fills and
// reads it — here a plain SELECT calling a stored function once per row:
// the body's source is loaded three times by the first statement already.
func TestSrcMemoServesRoutineBodies(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE FUNCTION pricier (p FLOAT) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
		BEGIN RETURN (SELECT COUNT(*) FROM item i, item_author ia WHERE i.id = ia.item_id AND i.price > p); END;`)
	stmt := parseStmt(t, `SELECT title, pricier(price) FROM item ORDER BY title`)
	want := fmt.Sprint(rowsText(runAfresh(t, db, stmt, nil)))
	for i := 0; i < 2; i++ {
		got, h := hitsOf(t, db, stmt)
		if got != want {
			t.Fatalf("execution %d returned %s, want %s", i, got, want)
		}
		if h == 0 {
			t.Fatalf("execution %d called the function three times and recorded no hit", i)
		}
	}
}

// Opening a session reads none of the database's counters: the stratum
// merges a finished statement's work into them under its own lock while
// other statements open theirs (under -race this fails if NewSession
// copies the whole DB again).
func TestNewSessionWhileStatementsFinish(t *testing.T) {
	db := newTestDB(t)
	stmt := parseStmt(t, `SELECT title FROM item WHERE price > 15.0`)
	var mu sync.Mutex // the stratum's
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ses := db.NewSession()
				if _, err := ses.ExecStmt(stmt); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				db.Stats.Merge(ses.Stats)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if s := db.Stats; s.RowsReturned != 4*200*2 || s.PlanReuseHits+s.RowsScanned/3 != 4*200 {
		t.Fatalf("merged work %+v: want 1600 rows returned, every load a scan of three rows or a hit", s)
	}
}

// A closed first source whose join's build holds other keys on every
// execution: the first load, which keeps only the stamp, may read the
// source through the build's keys; the relation the second keeps, and
// the third is served, must hold every row the source's filters pass,
// for the keys of the executions after it.
func TestSrcMemoKeepsEveryRowUnderKeyDrivenScans(t *testing.T) {
	db := keyedDB(t)
	mustExec(t, db, `CREATE TABLE wanted (iid INTEGER)`)
	stmt := parseStmt(t, `SELECT p.name FROM publisher p,
		(SELECT ip.pid FROM item_publisher ip, wanted w WHERE ip.iid = w.iid) AS b
		WHERE p.name <> 'none' AND p.pid = b.pid ORDER BY 1`)
	for load, items := range []string{"(13)", "(14), (25)", "(7)"} {
		mustExec(t, db, `DELETE FROM wanted; INSERT INTO wanted VALUES `+items)
		want := fmt.Sprint(rowsText(runAfresh(t, db, stmt, nil)))
		keyed := db.keyedScans
		if got := fmt.Sprint(rowsText(run(t, db, stmt, nil))); got != want {
			t.Fatalf("load %d (items %s) returned %s, want %s", load+1, items, got, want)
		}
		if load == 0 && db.keyedScans == keyed {
			t.Error("the first load did not read publisher through the build's keys")
		}
		if m := memoOf(t, db, stmt, 0); load > 0 && (m.rel == nil || m.rel.n != 20) {
			t.Errorf("after load %d the memo keeps %v, want all 20 rows of publisher", load+1, m.rel)
		}
	}
}
