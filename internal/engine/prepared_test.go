package engine

import (
	"fmt"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// parseStmt parses one statement, failing the test on error. The
// prepared tests parse once and execute the same AST repeatedly — the
// same reuse pattern the stratum's translation cache produces.
func parseStmt(t *testing.T, src string) sqlast.Stmt {
	t.Helper()
	stmt, err := sqlparser.ParseStatement(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return stmt
}

func runPrepared(t *testing.T, db *DB, prep *Prepared, stmt sqlast.Stmt, tables map[string]*storage.Table) *Result {
	t.Helper()
	res, err := db.ExecPreparedWithTables(prep, stmt, tables)
	if err != nil {
		t.Fatalf("exec prepared: %v", err)
	}
	return res
}

// The second execution of a statement under one Prepared serves its
// source relation from the plan instead of rescanning; executing with
// no Prepared records no hit and returns the same rows.
func TestPreparedServesSourceRelations(t *testing.T) {
	db := newTestDB(t)
	prep := NewPrepared()
	stmt := parseStmt(t, `SELECT title FROM item WHERE price > 15.0`)

	first := runPrepared(t, db, prep, stmt, nil)
	h0 := db.Stats.PlanReuseHits
	second := runPrepared(t, db, prep, stmt, nil)
	if db.Stats.PlanReuseHits <= h0 {
		t.Fatalf("second execution recorded no plan-reuse hit (hits %d -> %d)", h0, db.Stats.PlanReuseHits)
	}
	if got, want := rowsText(second), rowsText(first); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cached execution diverges: %v vs %v", got, want)
	}

	h1 := db.Stats.PlanReuseHits
	third, err := db.ExecStmtWithTables(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if db.Stats.PlanReuseHits != h1 {
		t.Fatalf("an execution without a Prepared recorded hits")
	}
	if got, want := rowsText(third), rowsText(first); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("unprepared execution diverges: %v vs %v", got, want)
	}
}

// DML between executions bumps the table version, so the plan's cached
// relation is rebuilt instead of served stale.
func TestPreparedInvalidatedByDML(t *testing.T) {
	db := newTestDB(t)
	prep := NewPrepared()
	stmt := parseStmt(t, `SELECT title FROM item WHERE price > 15.0`)

	first := runPrepared(t, db, prep, stmt, nil)
	runPrepared(t, db, prep, stmt, nil) // warm: entry now published and hit once
	mustExec(t, db, `INSERT INTO item VALUES (4, 'New Book', 40.0)`)
	after := runPrepared(t, db, prep, stmt, nil)
	if len(after.Rows) != len(first.Rows)+1 {
		t.Fatalf("post-DML execution saw %d rows, want %d (stale cached relation?)",
			len(after.Rows), len(first.Rows)+1)
	}
	fresh, err := db.ExecStmtWithTables(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(rowsText(after)), fmt.Sprint(rowsText(fresh)); got != want {
		t.Fatalf("post-DML prepared execution diverges from an unprepared one: %v vs %v", got, want)
	}
}

// A table-valued variable shadowing a catalog name is per-execution
// state: the prepared plan must neither serve nor cache it.
func TestPreparedSkipsVarShadowedTables(t *testing.T) {
	db := newTestDB(t)
	prep := NewPrepared()
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

	h0 := db.Stats.PlanReuseHits
	r1 := runPrepared(t, db, prep, stmt, map[string]*storage.Table{"shadow": varTab(1, 2)})
	r2 := runPrepared(t, db, prep, stmt, map[string]*storage.Table{"shadow": varTab(7)})
	if len(r1.Rows) != 2 || len(r2.Rows) != 1 {
		t.Fatalf("var-shadowed scans returned %d and %d rows, want 2 and 1 (cached across executions?)",
			len(r1.Rows), len(r2.Rows))
	}
	if db.Stats.PlanReuseHits != h0 {
		t.Fatalf("var-shadowed table took the prepared path (%d hits)", db.Stats.PlanReuseHits-h0)
	}
}

// A closed pushdown may contain CURRENT_DATE, so a cached relation is
// stamped with the clock and rebuilt when db.Now moves.
func TestPreparedInvalidatedByClock(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
		CREATE TABLE evt (name VARCHAR(10), d DATE);
		INSERT INTO evt VALUES ('old', DATE '2010-01-01'), ('new', DATE '2012-01-01');
	`)
	prep := NewPrepared()
	stmt := parseStmt(t, `SELECT name FROM evt WHERE d <= CURRENT_DATE`)

	db.Now = types.MustDate(2011, 1, 1)
	r1 := runPrepared(t, db, prep, stmt, nil)
	runPrepared(t, db, prep, stmt, nil)
	db.Now = types.MustDate(2013, 1, 1)
	r2 := runPrepared(t, db, prep, stmt, nil)
	if len(r1.Rows) != 1 || len(r2.Rows) != 2 {
		t.Fatalf("clock move served stale filtered relation: %d then %d rows, want 1 then 2",
			len(r1.Rows), len(r2.Rows))
	}
}

// Join hash tables are cached per prepared relation and key signature;
// repeated executions of a hash join hit instead of rebuilding.
func TestPreparedCachesJoinHashTables(t *testing.T) {
	db := newTestDB(t)
	prep := NewPrepared()
	stmt := parseStmt(t, `SELECT title, first_name FROM item, item_author, author
		WHERE item.id = item_author.item_id AND item_author.author_id = author.author_id`)

	first := runPrepared(t, db, prep, stmt, nil)
	h0 := db.Stats.PlanReuseHits
	second := runPrepared(t, db, prep, stmt, nil)
	// Two joined sources plus their hash tables: at least 3 hits.
	if db.Stats.PlanReuseHits < h0+3 {
		t.Fatalf("repeat join execution recorded %d hits, want >= 3", db.Stats.PlanReuseHits-h0)
	}
	if got, want := fmt.Sprint(rowsText(second)), fmt.Sprint(rowsText(first)); got != want {
		t.Fatalf("cached join diverges: %v vs %v", got, want)
	}
}
