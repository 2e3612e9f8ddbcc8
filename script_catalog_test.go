package taupsm_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"taupsm"
	"taupsm/internal/check"
	"taupsm/internal/sqlparser"
)

// describe renders what an analyzer catalog says about one name.
func describe(c check.Catalog, name string) string {
	return fmt.Sprintf("table=%v view=%v temporal=%v transaction=%v bitemporal=%v function=%v procedure=%v columns=%v",
		c.IsTable(name), c.ViewQuery(name) != nil, c.IsTemporalTable(name), c.IsTransactionTable(name),
		c.IsBitemporalTable(name), c.Function(name) != nil, c.Procedure(name) != nil, c.TableColumns(name))
}

// catalogSetup and catalogScript are the schema and the DDL script
// TestScriptCatalogEqualsExec runs both ways.
const catalogSetup = `
CREATE TABLE vt (k INTEGER, v CHAR(5)) AS VALIDTIME;
CREATE TABLE tt (k INTEGER) AS TRANSACTIONTIME;
CREATE TABLE bt (k INTEGER) AS VALIDTIME AS TRANSACTIONTIME;
CREATE TABLE plain (k INTEGER, v CHAR(5));
CREATE TABLE gone (k INTEGER);
CREATE VIEW old_v AS SELECT k FROM plain;
CREATE FUNCTION old_f (x INTEGER) RETURNS INTEGER BEGIN RETURN x; END;
CREATE PROCEDURE old_p () BEGIN DELETE FROM gone; END;
`

var catalogScript = []struct {
	sql     string
	refused bool
}{
	{sql: `ALTER TABLE vt ADD TRANSACTIONTIME`},
	{sql: `ALTER TABLE tt ADD VALIDTIME`, refused: true},
	{sql: `ALTER TABLE bt ADD TRANSACTIONTIME`, refused: true},
	{sql: `ALTER TABLE plain ADD TRANSACTIONTIME`},
	{sql: `CREATE TABLE c1 (a INTEGER, b DATE) AS VALIDTIME`},
	{sql: `ALTER TABLE c1 ADD TRANSACTIONTIME`},
	{sql: `CREATE TABLE c2 AS (SELECT k, v AS w FROM plain) WITH DATA`},
	{sql: `ALTER TABLE c2 ADD VALIDTIME`},
	{sql: `CREATE TABLE c3 AS (SELECT * FROM plain) WITH DATA`},
	{sql: `ALTER TABLE c3 ADD VALIDTIME`},
	{sql: `DROP TABLE gone`},
	{sql: `DROP VIEW old_v`},
	{sql: `CREATE VIEW v1 AS SELECT k, v FROM vt`},
	{sql: `CREATE VIEW v2 (a) AS SELECT k FROM tt`},
	{sql: `CREATE FUNCTION f1 (x INTEGER) RETURNS INTEGER READS SQL DATA BEGIN RETURN (SELECT MAX(k) FROM vt WHERE k > x); END`},
	{sql: `DROP FUNCTION old_f`},
	{sql: `CREATE OR REPLACE FUNCTION old_p (x INTEGER) RETURNS INTEGER BEGIN RETURN x + 1; END`},
	{sql: `CREATE PROCEDURE p1 () BEGIN DELETE FROM plain; END`},
}

// The script catalog is the engine's DDL without the execution: one
// script run through Exec on a database, and applied to a copy of the
// catalog that database had before it, leaves the same tables, views,
// routines, temporal flags and column names — for live tables the
// script alters as for tables it creates, and for the ALTER the engine
// refuses.
func TestScriptCatalogEqualsExec(t *testing.T) {
	db := taupsm.Open()
	db.MustExec(catalogSetup)
	sc := check.NewScriptCatalog(db.Engine().Cat)
	for _, st := range catalogScript {
		stmt, err := sqlparser.ParseStatement(st.sql)
		if err != nil {
			t.Fatalf("%s: %v", st.sql, err)
		}
		sc.Apply(stmt)
		if _, err := db.Exec(st.sql); (err != nil) != st.refused {
			t.Fatalf("%s: refused %v, want %v (%v)", st.sql, err != nil, st.refused, err)
		}
	}

	cat := db.Engine().Cat
	names := append(append(cat.TableNames(), cat.ViewNames()...), cat.RoutineNames()...)
	names = append(names, "gone", "old_v", "old_f")
	sort.Strings(names)
	for _, name := range names {
		if got, want := describe(sc, name), describe(cat, name); got != want {
			t.Errorf("%s:\nscript %s\nexec   %s", name, got, want)
		}
	}
	if kinds := sc.TableColumnKinds("c2"); len(kinds) != 4 {
		t.Errorf("c2: want a kind per column, got %v", kinds)
	}
}

// ALTER TABLE … ADD TRANSACTIONTIME turns a live valid-time table
// bitemporal in a prepared script as it does when executed, so the
// statement after it may read the tt_begin_time column the ALTER adds.
func TestPrepareSeesAlterOfLiveTable(t *testing.T) {
	db := taupsm.Open()
	db.MustExec(`CREATE TABLE p (k INTEGER) AS VALIDTIME; INSERT INTO p VALUES (1);`)
	p, err := db.Prepare(`ALTER TABLE p ADD TRANSACTIONTIME; NONSEQUENCED TRANSACTIONTIME SELECT k, tt_begin_time FROM p`)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	res, err := p.Exec()
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("want one row, got %v", res.Rows)
	}
}

// Lint copies the live catalog and changes the copy; queries meanwhile
// register routine clones in the live one. Run under -race: a lint that
// wrote a shared table, view or routine, or a registration that wrote a
// routine a lint is reading, is reported.
func TestLintBesideRoutineRegistration(t *testing.T) {
	db := taupsm.Open()
	db.SetStrategy(taupsm.Max)
	db.MustExec(`CREATE TABLE rate (id CHAR(10), r FLOAT) AS VALIDTIME;
CREATE TABLE account (id CHAR(10), balance FLOAT) AS TRANSACTIONTIME;
VALIDTIME (DATE '2024-01-01', DATE '2024-03-01') INSERT INTO rate VALUES ('a1', 0.05);
INSERT INTO account VALUES ('a1', 100.0);`)
	const fns = 8
	for i := 0; i < fns; i++ {
		db.MustExec(fmt.Sprintf(`CREATE FUNCTION g%d (i CHAR(10)) RETURNS FLOAT READS SQL DATA
BEGIN RETURN (SELECT r + %d FROM rate WHERE id = i); END;`, i, i))
	}
	var script strings.Builder
	script.WriteString("ALTER TABLE rate ADD TRANSACTIONTIME; ALTER TABLE account ADD VALIDTIME;\n")
	for i := 0; i < fns; i++ {
		fmt.Fprintf(&script, "CREATE OR REPLACE FUNCTION g%d (i CHAR(10)) RETURNS FLOAT READS SQL DATA BEGIN RETURN 1.0; END;\n", i)
		fmt.Fprintf(&script, "CREATE OR REPLACE FUNCTION max_g%d (i CHAR(10), at DATE) RETURNS FLOAT BEGIN RETURN 2.0; END;\n", i)
		fmt.Fprintf(&script, "VALIDTIME SELECT g%d(id) FROM rate;\n", i)
	}
	script.WriteString("DROP TABLE account; DROP FUNCTION g0;\n")

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := db.Lint(script.String()); err != nil {
				t.Errorf("lint: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4*fns; i++ {
			q := fmt.Sprintf(`VALIDTIME (DATE '2024-01-%02d', DATE '2024-02-15') SELECT g%d(r.id) FROM rate r`, 1+i/fns, i%fns)
			if _, err := db.Query(q); err != nil {
				t.Errorf("%s: %v", q, err)
				return
			}
		}
	}()
	wg.Wait()
	if cat := db.Engine().Cat; cat.Table("account") == nil || cat.Table("rate").TransactionTime {
		t.Fatal("lint changed the live catalog")
	}
}
