package engine

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// The oracle of verdict sharing (pipe.test): a tuple-major execution that
// shares a conjunct's verdict over a run of periods returns the rows, in
// order, the error text and every engine counter — but the calls a
// shared verdict answered — of the same execution testing every conjunct
// on every period.

// sameAsUnshared describes how the outcome of a run that shared verdicts
// departs from one that did not, "" when it does not.
func sameAsUnshared(off, on outcome) string {
	text := func(o outcome) string {
		if o.err != nil {
			return "error: " + o.err.Error()
		}
		return strings.Join(rowsText(o.res), "\n")
	}
	g, w := on.stats, off.stats
	g.ReusedCalls = 0
	switch {
	case w.ReusedCalls != 0:
		return fmt.Sprintf("sharing off, yet %d calls were answered by a shared verdict", w.ReusedCalls)
	case text(on) != text(off):
		return fmt.Sprintf("--- shared ---\n%s\n--- unshared ---\n%s", text(on), text(off))
	case g != w:
		return fmt.Sprintf("counters %+v\nunshared %+v", on.stats, off.stats)
	}
	return ""
}

// markInstant marks the last parameter of each named routine as its
// slicing instant, as the translator marks a MAX clone's.
func markInstant(db *DB, names ...string) {
	for _, name := range names {
		ps := db.Cat.Routine(name).Params()
		ps[len(ps)-1].Instant = true
	}
}

// The generated half: TestTupleMajorEqualsPeriodMajor's SELECTs, each with
// one more conjunct calling max_at, a clone of h sliced at the period: on
// h's own row (the range step's), on t's (the probe step's) under inv,
// which raises on some periods and not others, or beside a cheap
// conjunct on the period.
func TestVerdictReuseOnGeneratedSelects(t *testing.T) {
	db, qs := oracleDB(t)
	mustExec(t, db, `CREATE FUNCTION max_at (x INTEGER, at_in DATE) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
		BEGIN RETURN (SELECT COUNT(*) FROM h WHERE k = x AND begin_time <= at_in AND at_in < end_time); END;`)
	markInstant(db, "max_at")
	tiled := tiledCopy(periodsOf(db.Cat.Table("h")))
	g := &selGen{exprGen: newExprGen(t, db.NewSession(), 41, qs), shapes: map[string]int{}}
	at := col("cp", "begin_time")
	call := func(x sqlast.Expr) sqlast.Expr { return &sqlast.FuncCall{Name: "max_at", Args: []sqlast.Expr{x, at}} }
	compared, raised, shared := 0, 0, 0
	for i := 0; compared < 300; i++ {
		sel, ctxOf, binds := slicedSelect(g)
		var c sqlast.Expr
		switch g.r.Intn(3) {
		case 0:
			c = bin(">=", call(col("hh", "k")), lit(int64(g.r.Intn(2))))
		case 1:
			c = bin(">", &sqlast.FuncCall{Name: "inv", Args: []sqlast.Expr{bin("-", call(col("t", "a")), lit(1))}}, lit(0))
		default:
			c = bin("OR", bin("=", call(col("hh", "k")), lit(1)), bin("<", at, &sqlast.Literal{Val: types.NewDate(14611)}))
		}
		sel.Where = and(sel.Where, c)
		eval := func(share bool) outcome {
			ses := db.NewSession()
			ses.LoadAfresh()
			ses.SetVerdictReuse(share)
			ctx := ctxOf(ses, tiled)
			ctx.memo, ctx.journal = ses.newFnMemo(), NewJournal()
			var o outcome
			o.res, o.err = ses.evalQueryLimited(ctx, sel, 0)
			ctx.journal.RollbackAll()
			o.stats = ses.Stats
			return o
		}
		off, on := eval(false), eval(true)
		if d := sameAsUnshared(off, on); d != "" {
			t.Fatalf("#%d %s\n%s\n%s", i, sel.SQL(), binds, d)
		}
		compared++
		if off.err != nil {
			raised++
		}
		if on.stats.ReusedCalls > 0 {
			shared++
		}
	}
	if raised > compared*3/4 || shared < compared/4 {
		t.Errorf("%d compared, %d raised, %d shared a verdict: sharing was hardly exercised", compared, raised, shared)
	}
	t.Logf("%d compared (%d raised, %d shared a verdict) over %d periods", compared, raised, shared, len(tiled.Rows))
}

// shareRun executes setup, marks the instant of the routines marked, and
// runs each step over a tiling taupsm_cp of days 0–39 — the tuple-major
// layout — on two databases, one sharing verdicts and one not, with the
// memo on or off. Each step must return the same rows in the same order,
// or the same error, and the two must count alike but for the calls a
// shared verdict answered. It returns the counters of the one that shared.
func shareRun(t *testing.T, setup string, marked []string, memo bool, steps ...string) Stats {
	t.Helper()
	parsed := map[string]sqlast.Stmt{} // one node per text: a repeated step runs its cached plan
	for _, src := range steps {
		if parsed[src] == nil {
			parsed[src] = parseStmt(t, src)
		}
	}
	date := sqlast.TypeName{Base: "DATE"}
	var outs [2][]outcome
	for i, share := range []bool{false, true} {
		db := New()
		db.Now = day0 + 35
		db.DisableFnMemo = !memo
		db.SetVerdictReuse(share)
		mustExec(t, db, windowData+setup)
		markInstant(db, marked...)
		cp := storage.NewTable("taupsm_cp", storage.NewSchema([]storage.Column{{Name: "begin_time", Type: date}, {Name: "end_time", Type: date}}))
		cp.Tiling = true
		for d := day0; d < day0+40; d++ {
			cp.Rows = append(cp.Rows, []types.Value{types.NewDate(d), types.NewDate(d + 1)})
		}
		for _, src := range steps {
			var o outcome
			o.res, o.err = db.ExecStmtWithTables(parsed[src], map[string]*storage.Table{"taupsm_cp": cp})
			o.stats = db.Stats
			outs[i] = append(outs[i], o)
		}
	}
	for k, src := range steps {
		if d := sameAsUnshared(outs[0][k], outs[1][k]); d != "" {
			t.Errorf("step %d: %s\n%s", k+1, src, d)
		}
	}
	return outs[1][len(steps)-1].stats
}

// overlap is the point-overlap pair slicing ver o at the period.
const overlap = ` o.begin_time <= cp.begin_time AND cp.begin_time < o.end_time `

// Hand-written cases, each pinning one condition a shared verdict holds
// under: dropping the condition's check from pipe.test, pipe.decide or
// DB.share makes its case fail.
func TestVerdictReusePins(t *testing.T) {
	maxF := fnHeader("max_f") + `BEGIN RETURN (SELECT v FROM ver WHERE k = kk AND ` + at("") + `); END;`
	shared := `SELECT cp.begin_time, o.k FROM taupsm_cp cp, ver o WHERE` + overlap + `AND max_f(o.k, cp.begin_time) > 1`
	for _, tc := range []struct {
		name   string
		setup  string
		memo   bool
		steps  []string
		reused func(n int64) bool
	}{
		{name: "a version's run of periods shares its verdict", setup: maxF, memo: true,
			steps: []string{shared}, reused: func(n int64) bool { return n > 0 }},
		{name: "a writing function in the select list ends the run", memo: true,
			setup: maxF + `CREATE FUNCTION bump () RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL
				BEGIN INSERT INTO audit VALUES (1); RETURN 0; END;`,
			steps: []string{`SELECT cp.begin_time, o.k, bump() FROM taupsm_cp cp, ver o WHERE` + overlap + `AND max_f(o.k, cp.begin_time) > 0`},
			// Every period's row writes: the next period decides afresh.
			reused: func(n int64) bool { return n == 0 }},
		{name: "a memo wiped at its cap ends the run", memo: true,
			// max_rows holds 5,000 rows per day: the memo overflows every
			// 14th day, inside a's and b's runs of periods.
			setup: maxF + `CREATE TABLE ten (n INTEGER);
				INSERT INTO ten VALUES (0), (1), (2), (3), (4), (5), (6), (7), (8), (9);
				CREATE TABLE nums (n INTEGER);
				INSERT INTO nums SELECT a.n * 1000 + b.n * 100 + c.n * 10 + d.n FROM ten a, ten b, ten c, ten d WHERE a.n < 5;
				CREATE TABLE daily (n INTEGER) AS VALIDTIME;
				INSERT INTO daily SELECT n, ` + day(0) + ` + n, ` + day(1) + ` + n FROM nums WHERE n < 40;
				CREATE FUNCTION max_rows (kk CHAR(4), begin_time_in DATE) RETURNS ROW(n INTEGER) ARRAY READS SQL DATA LANGUAGE SQL
				BEGIN
				  DECLARE acc ROW(n INTEGER) ARRAY;
				  INSERT INTO TABLE acc SELECT n FROM nums WHERE n >= (SELECT MIN(n) FROM daily WHERE ` + at("") + `);
				  RETURN acc;
				END;`,
			steps: []string{`SELECT cp.begin_time, o.k, COUNT(*) FROM taupsm_cp cp, ver o, TABLE(max_rows(o.k, cp.begin_time)) AS r
				WHERE` + overlap + `AND max_f(o.k, cp.begin_time) > 1 GROUP BY cp.begin_time, o.k`},
			reused: func(n int64) bool { return n > 0 }},
		{name: "cp.end_time read beside the call", setup: maxF, memo: true,
			steps:  []string{`SELECT cp.begin_time, o.k FROM taupsm_cp cp, ver o WHERE` + overlap + `AND max_f(o.k, cp.begin_time) < DAY(cp.end_time)`},
			reused: func(n int64) bool { return n == 0 }},
		{name: "cp.begin_time passed as an argument that is no instant", memo: true,
			// max_g is marked too: its call is sliced at the period.
			setup:  maxF + `CREATE FUNCTION max_g (d DATE, begin_time_in DATE) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN DAY(d); END;`,
			steps:  []string{`SELECT cp.begin_time, o.k FROM taupsm_cp cp, ver o WHERE` + overlap + `AND max_g(cp.begin_time, cp.begin_time) > o.v + 12`},
			reused: func(n int64) bool { return n == 0 }},
		{name: "an answer the memo does not keep", memo: true,
			// A collection is held only at a FROM site: max_set runs on
			// every period.
			setup: maxF + `CREATE FUNCTION max_set (kk CHAR(4), begin_time_in DATE) RETURNS ROW(v INTEGER) ARRAY READS SQL DATA LANGUAGE SQL
				BEGIN
				  DECLARE acc ROW(v INTEGER) ARRAY;
				  INSERT INTO TABLE acc SELECT v FROM ver WHERE k = kk AND ` + at("") + `;
				  RETURN acc;
				END;`,
			steps:  []string{`SELECT cp.begin_time, o.k FROM taupsm_cp cp, ver o WHERE` + overlap + `AND max_set(o.k, cp.begin_time) IS NOT NULL`},
			reused: func(n int64) bool { return n == 0 }},
		{name: "a LEFT JOIN probe whose candidates change with the period", memo: true,
			// Day 6 proposes b, whose version of days 5–15 makes it TRUE;
			// day 7, at the same place, a, FALSE on version 1; day 8 a mark
			// of no key, whose NULL-extended row calls max_f(NULL, ..). No
			// candidate comes twice: nothing is shared.
			setup: maxF + `CREATE TABLE marks (k CHAR(4), d DATE);
				INSERT INTO marks VALUES ('b', ` + day(6) + `), ('a', ` + day(7) + `), ('zz', ` + day(8) + `), ('b', ` + day(9) + `);`,
			steps: []string{`SELECT cp.begin_time, o.k, m.k FROM taupsm_cp cp, ver o, marks m LEFT JOIN keys q ON m.k = q.k
				WHERE` + overlap + `AND m.d = cp.begin_time AND max_f(q.k, cp.begin_time) > 1`},
			reused: func(n int64) bool { return n == 0 }},
		{name: "the memo off shares nothing", setup: maxF, memo: false,
			steps: []string{shared}, reused: func(n int64) bool { return n == 0 }},
		{name: "a clone redefined between two runs of its cached plan", memo: true,
			// The new max_f has no instant: cp.begin_time is an argument.
			setup: maxF,
			steps: []string{shared, `CREATE OR REPLACE FUNCTION max_f (kk CHAR(4), begin_time_in DATE) RETURNS INTEGER LANGUAGE SQL
				BEGIN RETURN DAY(begin_time_in) - 5; END;`, shared},
			reused: func(n int64) bool { return n > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var marked []string // the clones the setup defines
			for _, m := range regexp.MustCompile(`FUNCTION (max_\w+)`).FindAllStringSubmatch(tc.setup, -1) {
				marked = append(marked, m[1])
			}
			st := shareRun(t, tc.setup, marked, tc.memo, tc.steps...)
			if !tc.reused(st.ReusedCalls) {
				t.Errorf("%d calls answered by a shared verdict", st.ReusedCalls)
			}
		})
	}
}

// A shared verdict allocates nothing: over ten times the periods — all
// of them in the runs of a's third version and of the days b has none —
// a warm statement allocates what it allocates over the first 40.
func TestVerdictReuseAllocations(t *testing.T) {
	db := New()
	mustExec(t, db, windowData+fnHeader("max_f")+`BEGIN RETURN (SELECT v FROM ver WHERE k = kk AND `+at("")+`); END;`)
	markInstant(db, "max_f")
	q := parseStmt(t, `SELECT cp.begin_time FROM taupsm_cp cp, ver o WHERE`+overlap+`AND max_f(o.k, cp.begin_time) < 0`)
	date := sqlast.TypeName{Base: "DATE"}
	allocs := func(days int64) (float64, int64) {
		cp := storage.NewTable("taupsm_cp", storage.NewSchema([]storage.Column{{Name: "begin_time", Type: date}, {Name: "end_time", Type: date}}))
		cp.Tiling = true
		for d := day0; d < day0+days; d++ {
			cp.Rows = append(cp.Rows, []types.Value{types.NewDate(d), types.NewDate(d + 1)})
		}
		tables := map[string]*storage.Table{"taupsm_cp": cp}
		run := func() {
			if _, err := db.ExecStmtWithTables(q, tables); err != nil {
				t.Fatal(err)
			}
		}
		run()
		before := db.Stats.ReusedCalls
		n := testing.AllocsPerRun(20, run)
		return n, (db.Stats.ReusedCalls - before) / 21
	}
	few, fewReused := allocs(40)
	many, manyReused := allocs(400)
	if manyReused-fewReused != 360 {
		t.Fatalf("%d and %d calls a run answered by a shared verdict: the 360 more periods were not all shared", fewReused, manyReused)
	}
	if many != few {
		t.Errorf("a warm run allocates %.1f objects over 40 periods and %.1f over 400: a shared verdict allocates", few, many)
	}
}
