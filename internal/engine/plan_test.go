package engine

import (
	"fmt"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// Temp-table churn between executions — the signature of generated
// MAX/PERST plans, which create and drop scratch tables around every
// statement — must not invalidate cached plans for unrelated queries,
// nor what their sources remember.
func TestPlanSurvivesTempTableChurn(t *testing.T) {
	db := newTestDB(t)
	stmt := parseStmt(t, `SELECT title FROM item WHERE price > 15.0`)

	first := run(t, db, stmt, nil)
	run(t, db, stmt, nil) // the second load keeps the relation
	mustExec(t, db, `
		CREATE TEMP TABLE scratch (x INTEGER);
		INSERT INTO scratch VALUES (1);
		DROP TABLE scratch;
	`)
	third, h := hitsOf(t, db, stmt)
	if h != 1 {
		t.Fatalf("temp-table churn invalidated an unrelated plan (%d hits, want 1)", h)
	}
	if want := fmt.Sprint(rowsText(first)); third != want {
		t.Fatalf("results diverged across churn: %v vs %v", third, want)
	}
}

// A plan reading a temp table is still correct when the table is
// recreated: same shape keeps the plan usable, a different shape (or a
// missing table) forces a rebuild rather than serving stale metadata.
func TestPlanValidatesTempTableShape(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TEMP TABLE tt (a INTEGER, b VARCHAR(10));
		INSERT INTO tt VALUES (1, 'x');`)
	stmt := parseStmt(t, `SELECT a, b FROM tt`)
	if _, err := db.ExecStmt(stmt); err != nil {
		t.Fatal(err)
	}

	// Recreate with the columns swapped: the cached plan's metadata no
	// longer matches, so evaluation must re-resolve, not misbind.
	mustExec(t, db, `DROP TABLE tt;
		CREATE TEMP TABLE tt (b VARCHAR(10), a INTEGER);
		INSERT INTO tt VALUES ('y', 2);`)
	res, err := db.ExecStmt(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rowsText(res)); got != "[2,y]" {
		t.Fatalf("stale plan metadata after temp recreate: %s", got)
	}

	// Dropping the table entirely must surface the resolution error.
	mustExec(t, db, `DROP TABLE tt`)
	if _, err := db.ExecStmt(stmt); err == nil {
		t.Fatal("query over dropped temp table must fail")
	}
}

// A temp table newly shadowing a name that previously resolved to a
// view must invalidate plans built against the view.
func TestPlanInvalidatedByTempShadowingView(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE VIEW pricey (title) AS SELECT title FROM item WHERE price > 15.0`)
	stmt := parseStmt(t, `SELECT title FROM pricey`)
	res, err := db.ExecStmt(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("view query: %d rows, want 2", len(res.Rows))
	}

	mustExec(t, db, `CREATE TEMP TABLE pricey (title VARCHAR(100));
		INSERT INTO pricey VALUES ('only me');`)
	res, err = db.ExecStmt(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rowsText(res)); got != "[only me]" {
		t.Fatalf("temp table failed to shadow view for cached plan: %s", got)
	}
}

// The bound state of a plan — column slots, index ordinals, join keys —
// derives from the column lists its validation re-checks. Each case
// warms the plan of a routine-body SELECT (the same AST node runs
// before and after), changes what the statement's names mean, and
// requires the rows a cold database gives for the same history: the
// plan must re-bind, not read stale slots.
func TestPlanRebindsAfterShapeChange(t *testing.T) {
	cases := []struct {
		name, setup, query, change string
	}{
		{
			name: "drop and create with the columns reordered",
			setup: `CREATE TABLE emp (id INTEGER, name VARCHAR(20), dept INTEGER);
				INSERT INTO emp VALUES (1, 'ann', 10), (2, 'bob', 20);
				CREATE FUNCTION emp_name (k INTEGER) RETURNS VARCHAR(20) READS SQL DATA LANGUAGE SQL
				BEGIN RETURN (SELECT name FROM emp WHERE id = k AND dept > 5); END;`,
			query: `SELECT emp_name(2) FROM item WHERE id = 1`,
			change: `DROP TABLE emp;
				CREATE TABLE emp (dept INTEGER, name VARCHAR(20), id INTEGER);
				INSERT INTO emp VALUES (20, 'bea', 2), (10, 'al', 1);`,
		},
		{
			name: "ALTER TABLE ADD VALIDTIME",
			setup: `CREATE TABLE emp (id INTEGER, name VARCHAR(20));
				INSERT INTO emp VALUES (1, 'ann'), (2, 'bob');
				CREATE FUNCTION emp_row (k INTEGER) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
				BEGIN DECLARE n INTEGER; SET n = 0;
				  FOR r AS SELECT * FROM emp e WHERE e.id = k DO SET n = n + 1; END FOR;
				  RETURN n; END;`,
			query:  `SELECT emp_row(2), e.* FROM emp e WHERE e.id = 2`,
			change: `ALTER TABLE emp ADD VALIDTIME`,
		},
		{
			name: "ALTER TABLE ADD TRANSACTIONTIME",
			setup: `CREATE TABLE emp (id INTEGER, name VARCHAR(20));
				INSERT INTO emp VALUES (1, 'ann'), (2, 'bob');`,
			query:  `SELECT * FROM emp a, emp b WHERE a.id = b.id AND b.name = 'bob'`,
			change: `ALTER TABLE emp ADD TRANSACTIONTIME`,
		},
		{
			name: "SELECT * over a redefined view",
			setup: `CREATE VIEW cheap AS SELECT id, title FROM item WHERE price < 25.0;
				CREATE FUNCTION n_cheap () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
				BEGIN RETURN (SELECT COUNT(*) FROM cheap); END;`,
			query: `SELECT c.*, n_cheap() FROM cheap c ORDER BY 1`,
			change: `DROP VIEW cheap;
				CREATE VIEW cheap AS SELECT price, title, id FROM item WHERE price < 15.0;`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := newTestDB(t)
			db.Now = 14610 // 2010-01-01: ALTER stamps rows with the clock
			mustExec(t, db, tc.setup)
			stmt := parseStmt(t, tc.query)
			if _, err := db.ExecStmt(stmt); err != nil {
				t.Fatalf("warm-up: %v", err)
			}
			mustExec(t, db, tc.change)
			warm, err := db.ExecStmt(stmt)
			if err != nil {
				t.Fatalf("after change: %v", err)
			}

			cold := newTestDB(t)
			cold.Now = db.Now
			mustExec(t, cold, tc.setup)
			mustExec(t, cold, tc.change)
			want := mustExec(t, cold, tc.query)
			if got, want := fmt.Sprint(warm.Cols, rowsText(warm)), fmt.Sprint(want.Cols, rowsText(want)); got != want {
				t.Fatalf("warm plan diverged from a cold database:\nwarm: %s\ncold: %s", got, want)
			}
		})
	}
}

// A table-valued variable with a different column list shadowing the
// name a plan resolved through the catalog must re-bind too.
func TestPlanRebindsWhenTableVariableShadows(t *testing.T) {
	db := newTestDB(t)
	stmt := parseStmt(t, `SELECT title, id FROM item WHERE id >= 2 ORDER BY id`)
	res, err := db.ExecStmt(stmt)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, res, "Go in Action,2", "Temporal Data,3")

	shadow := storage.NewTable("item", storage.NewSchema([]storage.Column{
		{Name: "title", Type: sqlast.TypeName{Base: "VARCHAR"}},
		{Name: "extra", Type: sqlast.TypeName{Base: "INTEGER"}},
		{Name: "id", Type: sqlast.TypeName{Base: "INTEGER"}},
	}))
	shadow.Rows = [][]types.Value{
		{types.NewString("shadow"), types.NewInt(0), types.NewInt(7)},
		{types.NewString("hidden"), types.NewInt(0), types.NewInt(1)},
	}
	res, err = db.ExecStmtWithTables(stmt, map[string]*storage.Table{"item": shadow})
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, res, "shadow,7")

	// And back: without the variable the catalog table is read again.
	res, err = db.ExecStmt(stmt)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, res, "Go in Action,2", "Temporal Data,3")
}

// DDL replaces a table's schema, it never edits one: the premise of
// Schema.Names handing out one cached slice and of sameCols deciding
// the common case by address.
func TestDDLReplacesSchemas(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE emp (id INTEGER, name VARCHAR(20))`)
	before := db.Cat.Table("emp").Schema
	names := before.Names()
	if &names[0] != &before.Names()[0] {
		t.Fatal("Schema.Names must return the same slice on every call")
	}
	mustExec(t, db, `ALTER TABLE emp ADD VALIDTIME`)
	after := db.Cat.Table("emp").Schema
	if after == before {
		t.Fatal("ALTER TABLE edited the schema in place")
	}
	if got := fmt.Sprint(before.Names()); got != "[id name]" {
		t.Fatalf("the replaced schema changed: %s", got)
	}
	if got := fmt.Sprint(after.Names()); got != "[id name begin_time end_time]" {
		t.Fatalf("new schema: %s", got)
	}
	if !sameCols(names, before.Names()) || sameCols(names, after.Names()) ||
		!sameCols([]string{"id", "name"}, names) || sameCols([]string{"id", "nam"}, names) {
		t.Fatal("sameCols disagrees with element-wise comparison")
	}
}

// A plan is read-only once built — but for the resolutions its call
// sites cache atomically: several sessions executing the same warm
// statement concurrently (each with its own row scope and key scratch)
// must agree with a serial run, while every call site of the shared plan
// (a stored function, a builtin, one inside the routine's body) is bound
// and rebound by whichever session gets there. Run under -race.
func TestWarmPlanSharedByConcurrentSessions(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE FUNCTION author_name (aid INTEGER) RETURNS VARCHAR(50) READS SQL DATA LANGUAGE SQL
		BEGIN RETURN (SELECT UPPER(first_name) FROM author WHERE author_id = aid); END;`)
	stmt := parseStmt(t, `SELECT LOWER(i.title), author_name(ia.author_id), COUNT(*)
		FROM item i, item_author ia
		WHERE i.id = ia.item_id AND i.price > 5.0
		GROUP BY LOWER(i.title), author_name(ia.author_id) ORDER BY 1, 2`)
	serial, err := db.ExecStmt(stmt)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(rowsText(serial))
	// Unrelated routine DDL moves the schema version: every site of the
	// warm plan is stale and the sessions race to rebind it.
	mustExec(t, db, `CREATE FUNCTION unrelated () RETURNS INTEGER LANGUAGE SQL BEGIN RETURN 0; END`)

	const sessions, rounds = 4, 50
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		ses := db.NewSession()
		go func() {
			for r := 0; r < rounds; r++ {
				res, err := ses.ExecStmt(stmt)
				if err == nil && fmt.Sprint(rowsText(res)) != want {
					err = fmt.Errorf("session result %v, want %s", rowsText(res), want)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for s := 0; s < sessions; s++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// Cheap predicates run before stored-routine invocations whatever order
// the statement wrote them in: both spellings plan the routine-calling
// conjunct last, return the same rows, and invoke the routine only for
// the outer row the cheap predicate admits.
func TestPlanOrdersRoutineCallsLast(t *testing.T) {
	run := func(where string) (rows string, calls int64) {
		db := newTestDB(t)
		mustExec(t, db, `CREATE FUNCTION is_cheap (p FLOAT) RETURNS INTEGER LANGUAGE SQL
BEGIN
  IF p < 100.0 THEN RETURN 1; END IF;
  RETURN 0;
END`)
		stmt := parseStmt(t, `SELECT o.title FROM item o
			WHERE EXISTS (SELECT 1 FROM author WHERE `+where+`)`)
		res, err := db.ExecStmt(stmt)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		var inner *sqlast.SelectStmt
		sqlast.Walk(stmt, func(n sqlast.Node) bool {
			if ex, ok := n.(*sqlast.ExistsExpr); ok {
				inner = ex.Sub.(*sqlast.SelectStmt)
			}
			return true
		})
		p, _ := db.plans.get(inner).(*selPlan)
		if p == nil || len(p.residual) != 2 {
			t.Fatalf("%s: expected both conjuncts in the subquery's residual, got %+v", where, p)
		}
		if p.residual[0].expensive || !p.residual[1].expensive {
			t.Fatalf("%s: routine-calling conjunct is not last in the residual", where)
		}
		return fmt.Sprint(rowsText(res)), db.Stats.RoutineCalls
	}
	rows1, calls1 := run(`is_cheap(o.price) = 1 AND o.id = 3`)
	rows2, calls2 := run(`o.id = 3 AND is_cheap(o.price) = 1`)
	if rows1 != rows2 || rows1 != "[Temporal Data]" {
		t.Fatalf("conjunct order changed the rows: %s vs %s", rows1, rows2)
	}
	// One logical call: under the one admitted item the first author row
	// decides the EXISTS and the scan stops there; seven if the routine
	// ran before the cheap predicate (every author row under the two
	// other items, and one under the admitted).
	if calls1 != calls2 || calls1 != 1 {
		t.Fatalf("routine calls: %d and %d, want 1 and 1", calls1, calls2)
	}
}

// A call site binds what its name means when it first runs and rebinds
// when the schema has moved — never into the plan: the same cached
// statement (one AST, one warm plan) follows CREATE OR REPLACE, DROP, a
// stored function taking a builtin's name, and a function that comes
// into being while the statement runs. Each case fails on an
// implementation that pins the routine into the plan.
func TestCallSitesFollowTheCatalog(t *testing.T) {
	run := func(t *testing.T, db *DB, stmt sqlast.Stmt) string {
		t.Helper()
		res, err := db.ExecStmt(stmt)
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprint(rowsText(res))
	}
	const f1 = `CREATE OR REPLACE FUNCTION f (x INTEGER) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN x + 1; END`
	const f2 = `CREATE OR REPLACE FUNCTION f (x INTEGER) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN x * 100; END`

	t.Run("CREATE OR REPLACE and DROP", func(t *testing.T) {
		db := newTestDB(t)
		mustExec(t, db, f1)
		stmt := parseStmt(t, `SELECT f(id) FROM item WHERE f(id) > 2 ORDER BY 1`)
		for _, step := range []struct{ ddl, want string }{
			{"", "[3 4]"},
			{f2, "[100 200 300]"},
			{f1, "[3 4]"},
			{`DROP FUNCTION f`, "error: unknown function f"},
			{f2, "[100 200 300]"},
		} {
			if step.ddl != "" {
				mustExec(t, db, step.ddl)
			}
			if got := run(t, db, stmt); got != step.want {
				t.Fatalf("after %q: %s, want %s", step.ddl, got, step.want)
			}
		}
	})

	t.Run("a stored function shadows a builtin and gives it back", func(t *testing.T) {
		db := newTestDB(t)
		stmt := parseStmt(t, `SELECT UPPER(first_name) FROM author WHERE author_id = 10`)
		if got := run(t, db, stmt); got != "[BEN]" {
			t.Fatalf("builtin: %s", got)
		}
		mustExec(t, db, `CREATE FUNCTION upper (s VARCHAR(50)) RETURNS VARCHAR(50) LANGUAGE SQL BEGIN RETURN s || '!'; END`)
		if got := run(t, db, stmt); got != "[Ben!]" {
			t.Fatalf("a stored function of the builtin's name must shadow it in a warm plan: %s", got)
		}
		mustExec(t, db, `DROP FUNCTION upper`)
		if got := run(t, db, stmt); got != "[BEN]" {
			t.Fatalf("dropped: the site must fall back to the builtin: %s", got)
		}
	})

	t.Run("a function created while the statement runs", func(t *testing.T) {
		db := newTestDB(t)
		// One site, LOWER('AbC'), runs three times inside one CALL: as the
		// builtin, then — the procedure having created a function of that
		// name in between — as the stored function, at once.
		mustExec(t, db, `CREATE TABLE seen (s VARCHAR(20));
			CREATE PROCEDURE p () LANGUAGE SQL
			BEGIN
			  DECLARE i INTEGER DEFAULT 0;
			  WHILE i < 3 DO
			    INSERT INTO seen VALUES (LOWER('AbC'));
			    IF i = 0 THEN
			      CREATE FUNCTION lower (s VARCHAR(20)) RETURNS VARCHAR(20) LANGUAGE SQL BEGIN RETURN 'mine'; END;
			    END IF;
			    SET i = i + 1;
			  END WHILE;
			END`)
		call := parseStmt(t, `CALL p()`)
		if _, err := db.ExecStmt(call); err != nil {
			t.Fatal(err)
		}
		if got := run(t, db, parseStmt(t, `SELECT s FROM seen`)); got != "[abc mine mine]" {
			t.Fatalf("the function created mid-statement must shadow the builtin from its creation on: %s", got)
		}
		// And the same cached CALL, after the function is gone again.
		mustExec(t, db, `DROP FUNCTION lower; DELETE FROM seen`)
		if _, err := db.ExecStmt(call); err != nil {
			t.Fatal(err)
		}
		if got := run(t, db, parseStmt(t, `SELECT s FROM seen`)); got != "[abc mine mine]" {
			t.Fatalf("second execution of the cached CALL: %s", got)
		}
	})
}

// planBuildAllocCeiling bounds the heap allocations of building the plan
// of one SELECT whose AST already exists (a parse-cache hit): the shape
// of a MAX clone's body — a three-way join on keys, the translator's
// point-overlap pairs, a parameter comparison, a builtin and a routine
// call. Compiling an expression allocates a closure where binding it
// allocated a node (a comparison over slots, literals or names is one
// closure for three nodes), which is what keeps the workloads that build
// a plan per statement — cold-auto-1d, oltp-persist — inside their
// allocation bound. Measured 103 when expressions became closures (the
// tree-binding parent built the same plan with 104), 99 before the plan
// also laid its FROM clause out as pipeline steps, 100 with them.
const planBuildAllocCeiling = 105

func TestPlanBuildAllocations(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `ALTER TABLE item ADD VALIDTIME; ALTER TABLE item_author ADD VALIDTIME; ALTER TABLE author ADD VALIDTIME;
		CREATE FUNCTION is_cheap (p FLOAT) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN 1; END`)
	sel := parseStmt(t, `SELECT i.title, UPPER(a.first_name), a.last_name || '!' FROM item i, item_author ia, author a
		WHERE i.id = ia.item_id AND ia.author_id = a.author_id AND a.author_id = aid
		AND i.begin_time <= at AND at < i.end_time AND ia.begin_time <= at AND at < ia.end_time
		AND a.begin_time <= at AND at < a.end_time AND is_cheap(i.price) = 1
		ORDER BY a.last_name`).(*sqlast.SelectStmt)
	ctx := &execCtx{db: db}
	got := testing.AllocsPerRun(20, func() {
		if _, err := db.buildSelPlan(ctx, sel); err != nil {
			t.Fatal(err)
		}
	})
	if got > planBuildAllocCeiling {
		t.Fatalf("building the plan allocates %.0f objects, ceiling %d", got, planBuildAllocCeiling)
	}
	t.Logf("plan build: %.0f allocations", got)
}

// The plan cache forgets by generation, not wholesale: while more than
// planCacheCap one-shot statements flow through one session, a routine
// statement another session runs now and then keeps its plan and what its
// source remembers — every call does the work the first warm call did,
// the same memo hits and the same rows scanned. Run under -race.
func TestPlanCacheKeepsWarmPlans(t *testing.T) {
	db := New()
	mustExec(t, db, `
		CREATE TABLE s (k INTEGER, v VARCHAR(10));
		INSERT INTO s VALUES (1, 'one'), (2, 'two'), (3, 'three');
		CREATE FUNCTION pick (x INTEGER) RETURNS VARCHAR(10) READS SQL DATA LANGUAGE SQL
		BEGIN RETURN (SELECT MAX(s.v) FROM s, s AS w WHERE s.k = w.k AND w.k = x); END;`)
	warm := db.NewSession()
	call := func() Stats {
		before := warm.Stats
		if res := mustExec(t, warm, `SELECT pick(2)`); fmt.Sprint(rowsText(res)) != "[two]" {
			t.Fatalf("pick(2) = %v", rowsText(res))
		}
		d := warm.Stats
		d.PlanReuseHits -= before.PlanReuseHits
		d.RowsScanned -= before.RowsScanned
		return Stats{PlanReuseHits: d.PlanReuseHits, RowsScanned: d.RowsScanned}
	}
	call() // stamps the source's memo
	call() // fills it
	want := call()
	if want.PlanReuseHits == 0 {
		t.Fatal("the warm call was not served by the source's memo")
	}
	done := make(chan error)
	go func() {
		oneShot := db.NewSession()
		for i := 0; i < planCacheCap+100; i++ {
			if _, err := oneShot.ExecScript(fmt.Sprintf(`SELECT v FROM s WHERE k = %d`, i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for calls := 1; ; calls++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if got := call(); got != want {
				t.Errorf("the last call did %+v, the first warm one %+v", got, want)
			}
			if db.plans.gens.Load()[1].n.Load() == 0 {
				t.Error("the one-shot statements never turned a generation old")
			}
			return
		default:
			if got := call(); got != want {
				t.Fatalf("call %d among the one-shot statements did %+v, the first warm one %+v", calls, got, want)
			}
		}
	}
}
