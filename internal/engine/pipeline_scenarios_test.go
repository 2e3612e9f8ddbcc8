package engine_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"taupsm"
	"taupsm/internal/engine"
	"taupsm/internal/enginetest"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/storage"
	"taupsm/internal/taubench"
)

// The scenario and corpus halves of the pipeline's oracle. They live in
// the external test package because they need the stratum: a statement
// is translated (MAX, PERST, or as the current statement it is), the
// translation's routines and setup run on the database's engine, and the
// main statement — with the SELECTs of every routine the translation
// reaches — goes through the pipeline and the reference evaluator
// (engine.CheckStatement, engine.CheckRoutineBodies).

// checker compares two ways of evaluating stmt over the table variables
// and reports whether stmt was a query (engine.CheckStatement,
// engine.CheckConsumers).
type checker func(t testing.TB, db *engine.DB, label string, stmt sqlast.Stmt, tables map[string]*storage.Table) bool

// checkTranslated compares the evaluators on the main statement of src's
// translation under each strategy that accepts it, and returns how many
// it compared.
func checkTranslated(t *testing.T, db *taupsm.DB, label, src string, check checker) int {
	t.Helper()
	stmt, err := sqlparser.ParseStatement(src)
	if err != nil {
		return 0 // a step that expects a syntax error
	}
	n := 0
	for _, strategy := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
		tr, err := db.TranslateStmt(stmt, strategy)
		if err != nil || tr.Main == nil {
			continue // refused under this strategy
		}
		eng := db.Engine()
		ok := true
		setup, teardown := tr.Script()
		for _, s := range append(append([]sqlast.Stmt{}, tr.Routines...), setup...) {
			if _, err := eng.ExecStmt(s); err != nil {
				ok = false // a step that expects an execution error
				break
			}
		}
		if ok && check(t, eng, fmt.Sprintf("%s [%s]", label, strategy), tr.Main, nil) {
			n++
		}
		for _, s := range teardown {
			eng.ExecStmt(s)
		}
		if _, sequenced := stmt.(*sqlast.TemporalStmt); !sequenced {
			break // a current statement translates one way
		}
	}
	return n
}

// dump renders every table of the catalog, rows in storage order.
func dump(cat *storage.Catalog) string {
	var b strings.Builder
	names := cat.TableNames()
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintln(&b, name)
		for _, row := range cat.Table(name).Rows {
			fmt.Fprintln(&b, " ", row)
		}
	}
	return b.String()
}

// forEachQueryStep opens a database per scenario, applies the setup, and
// hands every query step (with the clock it runs under set) to f; the
// steps executed for effect run in between.
func forEachQueryStep(t *testing.T, f func(t *testing.T, db *taupsm.DB, label, src string)) {
	for _, sc := range enginetest.Scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			db := taupsm.Open()
			defer db.Close()
			now := sc.Now
			if now == (enginetest.Clock{}) {
				now = enginetest.Clock{Year: 2011, Month: 1, Day: 1}
			}
			db.SetNow(now.Year, now.Month, now.Day)
			for i, st := range append(append([]enginetest.Step{}, sc.Setup...), sc.Steps...) {
				if st.SetNow != nil {
					db.SetNow(st.SetNow.Year, st.SetNow.Month, st.SetNow.Day)
				}
				switch {
				case st.Query != "" && st.ExpectErr == "":
					f(t, db, fmt.Sprintf("%s step %d", sc.Name, i), st.Query)
				case st.Exec != "":
					db.Exec(st.Exec) // some expect an error
				}
			}
		})
	}
}

// Every query of the enginetest scenarios, and the 16-query corpus at a
// one-month context, under MAX, PERST and current semantics.
func TestPipelineEqualsMaterialisedOnScenarios(t *testing.T) {
	compared := 0
	forEachQueryStep(t, func(t *testing.T, db *taupsm.DB, label, src string) {
		compared += checkTranslated(t, db, label, src, engine.CheckStatement)
	})
	if compared < 100 {
		t.Errorf("only %d scenario statements compared", compared)
	}

	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}
	db := taupsm.Open()
	defer db.Close()
	enginetest.LoadCorpus(t, db, spec)
	corpus := 0
	for _, q := range taubench.Queries() {
		corpus += checkTranslated(t, db, q.Name+" sequenced", taubench.SequencedSQL(q, 30), engine.CheckStatement)
		corpus += checkTranslated(t, db, q.Name+" current", q.Text, engine.CheckStatement)
	}
	if corpus < 16*3-1 { // q17b is not transformable under PERST
		t.Errorf("only %d corpus statements compared", corpus)
	}
	// The translations above registered the max_, ps_ and curr_ clones:
	// their bodies' SELECTs, and the originals', as statements of their own.
	if n := engine.CheckRoutineBodies(t, db.Engine(), 1); n < 1000 {
		t.Errorf("only %d routine-body evaluations compared", n)
	}
	t.Logf("%d scenario and %d corpus statements compared", compared, corpus)
}

// A Result's row slices are owned by whoever receives it: they alias no
// table, no source's memo, no plan and none of the session stacks the
// rows were evaluated on, which is what lets the statement boundary adopt
// the engine's rows instead of copying them (wrapResult). Every query of
// every scenario runs five times — so its sources' memos are filled on
// the second run and served from the third on — with every cell of
// every row the last four returned overwritten in between: the tables
// and the later results must not notice, and the first run's Result,
// kept untouched while the later statements reuse the stacks the
// sessions hand back, must read as it did.
func TestResultRowsAreOwned(t *testing.T) {
	checked := 0
	forEachQueryStep(t, func(t *testing.T, db *taupsm.DB, label, src string) {
		for _, strategy := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
			db.SetStrategy(strategy)
			before := dump(db.Engine().Cat)
			var first string
			var kept *taupsm.Result
			for round := 0; round < 5; round++ {
				res, err := db.Query(src)
				if err != nil {
					break // refused under this strategy
				}
				if got := enginetest.RenderRows(res); round == 0 {
					first, kept = got, res
					continue
				} else if got != first {
					t.Errorf("%s [%s], run %d after the caller overwrote the rows of run %d:\n%s\nfirst run:\n%s", label, strategy, round+1, round, got, first)
				}
				for _, row := range res.Rows {
					for i := range row {
						row[i] = taupsm.Value{}
					}
					checked++
				}
			}
			if kept != nil {
				if got := enginetest.RenderRows(kept); got != first {
					t.Errorf("%s [%s]: the first run's result changed under the later runs:\n%s\nwas:\n%s", label, strategy, got, first)
				}
			}
			if after := dump(db.Engine().Cat); after != before {
				t.Errorf("%s [%s]: overwriting the result rows changed the tables\n%s\nbefore:\n%s", label, strategy, after, before)
			}
		}
	})
	if checked < 1000 {
		t.Errorf("only %d rows overwritten", checked)
	}
	t.Run("inserted rows and an open cursor's", testInsertedAndCursorRowsAreOwned)
}

// Rows an INSERT wrote, to a stored table and to a collection variable,
// and the rows of a cursor opened in an inner block and fetched after
// other queries ran over the stacks, read as they were written, also
// after later statements reuse the stacks the sessions hand back.
func testInsertedAndCursorRowsAreOwned(t *testing.T) {
	db := taupsm.Open()
	defer db.Close()
	for _, sql := range []string{
		`CREATE TABLE src (k INTEGER, v VARCHAR(10))`,
		`INSERT INTO src VALUES (1, 'one'), (2, 'two'), (3, 'three'), (4, 'four')`,
		`CREATE TABLE dst (k INTEGER, v VARCHAR(10))`,
		`INSERT INTO dst SELECT k * 10, v FROM src WHERE k > 1 ORDER BY k DESC`,
		`CREATE FUNCTION kept () RETURNS VARCHAR(200) BEGIN
			DECLARE r ROW(k INTEGER, v VARCHAR(10)) ARRAY;
			DECLARE s VARCHAR(200) DEFAULT '';
			DECLARE k INTEGER DEFAULT 0;
			DECLARE v VARCHAR(10) DEFAULT '';
			DECLARE n INTEGER DEFAULT 0;
			DECLARE done INTEGER DEFAULT 0;
			DECLARE c CURSOR FOR SELECT k, v FROM src ORDER BY k;
			DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
			INSERT INTO TABLE r SELECT k + 100, v FROM src;
			BEGIN
				OPEN c;
			END;
			SET n = (SELECT COUNT(*) FROM src a, src b WHERE a.v <> b.v);
			FOR x AS SELECT a.k, b.v FROM src a, src b WHERE a.k = b.k DO
				SET n = n + x.k;
			END FOR;
			FETCH c INTO k, v;
			WHILE done = 0 DO
				SET s = s || CAST(k AS VARCHAR(10)) || v || ' ';
				SET n = n + (SELECT MAX(k) FROM r WHERE v <> 'x');
				FETCH c INTO k, v;
			END WHILE;
			CLOSE c;
			RETURN s || (SELECT MIN(v) FROM r) || CAST((SELECT SUM(k) FROM r) AS VARCHAR(10));
		END`,
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	const want = "1one 2two 3three 4four four410"
	wantDst := dump(db.Engine().Cat)
	for round := 0; round < 3; round++ {
		res, err := db.Query(`SELECT kept()`)
		if err != nil {
			t.Fatal(err)
		}
		if got := enginetest.RenderRows(res); !strings.Contains(got, want) {
			t.Fatalf("run %d: kept() = %s, want %s", round+1, got, want)
		}
		if _, err := db.Query(`SELECT a.k, b.v, a.v FROM src a, dst b WHERE a.k < b.k ORDER BY b.v, a.k`); err != nil {
			t.Fatal(err)
		}
		if got := dump(db.Engine().Cat); got != wantDst {
			t.Fatalf("run %d: the tables changed under later statements:\n%s\nwere:\n%s", round+1, got, wantDst)
		}
	}
	var got strings.Builder
	for _, row := range db.Engine().Cat.Table("dst").Rows {
		got.WriteString("[")
		for i, v := range row {
			if i > 0 {
				got.WriteString(", ")
			}
			got.WriteString(v.Kind.String() + " " + v.Text())
		}
		got.WriteString("]")
	}
	if g := got.String(); g != "[INTEGER 40, VARCHAR four][INTEGER 30, VARCHAR three][INTEGER 20, VARCHAR two]" {
		t.Fatalf("dst holds %s", g)
	}
}
