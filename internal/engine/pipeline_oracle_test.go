package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// The oracle of the SELECT pipeline (pipeline.go): a query is evaluated
// by the program and by the materialising evaluator the pipeline
// replaced (select_reference_test.go), each on a session that loads every
// source afresh, and the two must return the same rows in the same
// order, raise the same error text, and count the same work.

// outcome is what one evaluation of a query leaves behind.
type outcome struct {
	res   *Result
	err   error
	stats Stats
	keyed int64 // scans a join's keys drove
}

// evalBoth evaluates q under limitHint through the pipeline and through
// the reference evaluator. ctxOf builds the context of an evaluation on
// the session it is handed (variables, an outer scope); what either
// evaluation journals is rolled back.
func evalBoth(db *DB, q sqlast.QueryExpr, limitHint int, ctxOf func(*DB) *execCtx) (got, want outcome) {
	eval := func(reference bool) outcome {
		ses := db.NewSession()
		ses.LoadAfresh()
		ctx := ctxOf(ses)
		ctx.memo, ctx.journal = ses.newFnMemo(), NewJournal()
		var o outcome
		if reference {
			o.res, o.err = ses.refEvalQuery(ctx, q, limitHint)
		} else {
			o.res, o.err = ses.evalQueryLimited(ctx, q, limitHint)
		}
		ctx.journal.RollbackAll()
		o.stats, o.keyed = ses.Stats, ses.keyedScans
		return o
	}
	return eval(false), eval(true)
}

// sameCell compares two result values; collections by their rows.
func sameCell(a, b types.Value) bool {
	if a.Kind == types.KindTable && b.Kind == types.KindTable {
		at, _ := a.Aux.(*storage.Table)
		bt, _ := b.Aux.(*storage.Table)
		return at != nil && bt != nil && fmt.Sprint(at.Rows) == fmt.Sprint(bt.Rows)
	}
	return sameValue(a, b)
}

// diffOutcomes describes how the pipeline's outcome departs from the
// reference's, "" when it does not. Without a row limit nothing may
// differ, but for the work of a scan the keys of its join drove
// (pipe.byKeys), which reads fewer rows than the reference's scan and
// may probe no more. Under a limit (an EXISTS or scalar subquery's) the
// pipeline stops at the deciding row where the reference evaluates them
// all: what only the rows after it would have done — a routine call, the
// scans in its body, a stab join's probe, an error — does not happen, and
// when that spares an error the result is exactly the rows that decide:
// the effective limit, limitHint or q's literal FETCH FIRST n if smaller.
func diffOutcomes(got, want outcome, q sqlast.QueryExpr, limitHint int) string {
	if want.err != nil {
		if got.err == nil && limitHint > 0 && len(got.res.Rows) == effectiveLimit(q, limitHint) {
			return ""
		}
		if errText(got.err) != errText(want.err) {
			return fmt.Sprintf("pipeline: %v\nreference: %v", got.err, want.err)
		}
		return "" // the work done before a failure is not compared
	}
	if got.err != nil {
		return fmt.Sprintf("pipeline raised %v, the reference returned %d rows", got.err, len(want.res.Rows))
	}
	if fmt.Sprint(got.res.Cols) != fmt.Sprint(want.res.Cols) {
		return fmt.Sprintf("columns %v, reference %v", got.res.Cols, want.res.Cols)
	}
	same := len(got.res.Rows) == len(want.res.Rows)
	for i := 0; same && i < len(want.res.Rows); i++ {
		g, w := got.res.Rows[i], want.res.Rows[i]
		same = len(g) == len(w)
		for j := 0; same && j < len(w); j++ {
			same = sameCell(g[j], w[j])
		}
	}
	if !same {
		return fmt.Sprintf("rows %v\nreference %v", rowsText(got.res), rowsText(want.res))
	}
	g, w := got.stats, want.stats
	same = g.RoutineCalls == w.RoutineCalls && g.RowsScanned == w.RowsScanned && g.IntervalProbes == w.IntervalProbes
	switch {
	case limitHint > 0:
		same = g.RoutineCalls <= w.RoutineCalls && g.RowsScanned <= w.RowsScanned && g.IntervalProbes <= w.IntervalProbes
	case got.keyed > 0:
		same = g.RoutineCalls == w.RoutineCalls && g.RowsScanned <= w.RowsScanned && g.IntervalProbes <= w.IntervalProbes
	}
	if !same || g.PlanReuseHits != w.PlanReuseHits {
		return fmt.Sprintf("work: scanned %d, probes %d, calls %d, reuse %d\nreference: scanned %d, probes %d, calls %d, reuse %d",
			g.RowsScanned, g.IntervalProbes, g.RoutineCalls, g.PlanReuseHits,
			w.RowsScanned, w.IntervalProbes, w.RoutineCalls, w.PlanReuseHits)
	}
	return ""
}

// effectiveLimit is min(limitHint, n) for q's FETCH FIRST n when n is a
// literal; else limitHint.
func effectiveLimit(q sqlast.QueryExpr, limitHint int) int {
	if sel, ok := q.(*sqlast.SelectStmt); ok {
		if l, ok := sel.Limit.(*sqlast.Literal); ok && l.Val.Kind == types.KindInt && l.Val.I < int64(limitHint) {
			return int(l.Val.I)
		}
	}
	return limitHint
}

// CheckStatement runs stmt, when it is a query, through both evaluators
// over the given table variables and reports a divergence. It returns
// whether stmt was a query. The scenario and corpus halves of the oracle
// (package engine_test, which may import the stratum) call it with the
// statements a translation executes.
func CheckStatement(t testing.TB, db *DB, label string, stmt sqlast.Stmt, tables map[string]*storage.Table) bool {
	t.Helper()
	if ts, ok := stmt.(*sqlast.TemporalStmt); ok && ts.Mod == sqlast.ModCurrent {
		stmt = ts.Body
	}
	q, ok := stmt.(sqlast.QueryExpr)
	if !ok {
		return false
	}
	got, want := evalBoth(db, q, 0, func(ses *DB) *execCtx {
		frame := &varFrame{}
		for name, tab := range tables {
			frame.bind(tableBinding(strings.ToLower(name), tab))
		}
		return &execCtx{db: ses, vars: frame}
	})
	if d := diffOutcomes(got, want, q, 0); d != "" {
		t.Errorf("%s\n%s\n%s", label, stmt.SQL(), d)
	}
	return true
}

// CheckRoutineBodies runs every query of every stored routine — the
// SELECTs MAX and PERST evaluate thousands of times per statement —
// through both evaluators as a statement of its own: in a frame that
// declares the routine's parameters and variables, a few times over
// values drawn from the database. (A query that reads a table the routine
// would have created first fails alike on both sides.) It returns the
// number of evaluations compared.
func CheckRoutineBodies(t testing.TB, db *DB, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// The values a parameter may take: what the tables hold, by kind.
	pool := map[types.Kind][]types.Value{}
	for _, name := range db.Cat.TableNames() {
		for _, row := range db.Cat.Table(name).Rows {
			for _, v := range row {
				if vs := pool[v.Kind]; !v.IsNull() && len(vs) < 4096 {
					pool[v.Kind] = append(vs, v)
				}
			}
		}
	}
	draw := func(ty sqlast.TypeName) types.Value {
		if vs := pool[ty.Kind()]; len(vs) > 0 {
			return vs[rng.Intn(len(vs))]
		}
		return types.Null
	}
	n := 0
	for _, name := range db.Cat.RoutineNames() {
		r := db.Cat.Routine(name)
		var params []sqlast.ParamDef
		var body sqlast.Stmt
		if r.Kind == storage.KindFunction {
			params, body = r.Fn.Params, r.Fn.Body
		} else {
			params, body = r.Proc.Params, r.Proc.Body
		}
		var decls []*sqlast.VarDecl
		var queries []sqlast.QueryExpr
		sqlast.Walk(body, func(nd sqlast.Node) bool {
			switch x := nd.(type) {
			case *sqlast.CompoundStmt:
				decls = append(decls, x.VarDecls...)
			case sqlast.QueryExpr:
				if _, values := x.(*sqlast.ValuesExpr); !values {
					queries = append(queries, x)
				}
				return false // a nested query runs inside this one
			}
			return true
		})
		for _, q := range queries {
			for try := 0; try < 8; try++ {
				frame := &varFrame{}
				for _, p := range params {
					frame.bind(scalarBinding(strings.ToLower(p.Name), draw(p.Type)))
				}
				for _, d := range decls {
					for _, v := range d.Names {
						frame.bind(scalarBinding(strings.ToLower(v), draw(d.Type)))
					}
				}
				got, want := evalBoth(db, q, 0, func(ses *DB) *execCtx { return &execCtx{db: ses, vars: frame, depth: 1} })
				if d := diffOutcomes(got, want, q, 0); d != "" {
					t.Errorf("routine %s: %s\nvariables %v\n%s", name, q.SQL(), frame.binds, d)
				}
				n++
			}
		}
	}
	return n
}

// oracleDB is the database the generated SELECTs run over, and the
// subqueries their expressions may carry.
func oracleDB(t *testing.T) (*DB, subqueries) {
	db := New()
	db.Now = 14610
	mustExec(t, db, `
		CREATE TABLE s (k INTEGER, v VARCHAR(10));
		INSERT INTO s VALUES (1, 'one'), (2, 'two'), (2, 'deux'), (NULL, 'none');
		CREATE TABLE t0 (a INTEGER, b INTEGER, c VARCHAR(12), d DATE, e FLOAT);
		INSERT INTO t0 VALUES (1, 2, 'abc', DATE '2010-01-01', 2.5), (2, 0, 'one', DATE '2010-01-02', 0.0),
			(2, -3, NULL, DATE '2010-01-05', -0.5), (NULL, 1, 'a%_', NULL, 1.0), (0, 14610, '2010-01-01', DATE '2010-01-03', NULL);
		CREATE TABLE u0 (a INTEGER, f INTEGER);
		INSERT INTO u0 VALUES (1, 1), (2, 0), (2, 2), (NULL, -3);
		CREATE TABLE h (k INTEGER) AS VALIDTIME;
		CREATE VIEW tview AS SELECT a, b, c, d, e FROM t0 WHERE b IS NOT NULL;
		CREATE VIEW uview (a, f) AS SELECT a, f + 0 FROM u0;
		CREATE FUNCTION inc (x INTEGER) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN x + 1; END;
		CREATE FUNCTION inv (x INTEGER) RETURNS INTEGER LANGUAGE SQL
		BEGIN IF x IS NULL THEN RETURN -1; END IF; RETURN 10 / x; END;
		CREATE FUNCTION pick (x INTEGER) RETURNS VARCHAR(10) READS SQL DATA LANGUAGE SQL
		BEGIN RETURN (SELECT v FROM s WHERE k = x); END;
		CREATE FUNCTION lower (x VARCHAR(10)) RETURNS VARCHAR(10) LANGUAGE SQL BEGIN RETURN 'shadowed'; END;
		CREATE FUNCTION pairs (x INTEGER) RETURNS ROW(a INTEGER, f INTEGER) ARRAY READS SQL DATA LANGUAGE SQL
		BEGIN
			DECLARE r ROW(a INTEGER, f INTEGER) ARRAY;
			INSERT INTO TABLE r SELECT a, f FROM u0 WHERE a = x OR x IS NULL;
			RETURN r;
		END;
	`)
	h := db.Cat.Table("h")
	for _, r := range [][3]int64{{1, 14600, 14612}, {2, 14610, 14611}, {2, 14611, 14620}, {0, 14500, 14700}} {
		if err := h.Insert([]types.Value{types.NewInt(r[0]), types.NewDate(r[1]), types.NewDate(r[2])}); err != nil {
			t.Fatal(err)
		}
	}
	query := func(sql string) sqlast.QueryExpr { return parseStmt(t, sql).(sqlast.QueryExpr) }
	qs := subqueries{
		scalar: []sqlast.QueryExpr{
			query(`SELECT v FROM s WHERE k = t.a`),
			query(`SELECT COUNT(*) FROM s WHERE k > vi`),
			query(`SELECT MAX(k) + y FROM s WHERE v <> c`),
			query(`SELECT k, v FROM s`),
			query(`SELECT inc(k) FROM s WHERE v = 'one'`),
			query(`SELECT inv(f) FROM u0 WHERE a = t.a`), // the second row decides: inv(0) in the third never runs
		},
		exists: []sqlast.QueryExpr{query(`SELECT 1 FROM s WHERE k = u.f`), query(`SELECT 1 FROM s WHERE k = p`),
			query(`SELECT 1 FROM u0, s WHERE u0.a = s.k AND inv(u0.f - 1) > t.a`)},
		in: []sqlast.QueryExpr{query(`SELECT k FROM s`), query(`SELECT k FROM s WHERE k IS NOT NULL`), query(`SELECT k, v FROM s`)},
	}
	return db, qs
}

// TestPipelineEqualsMaterialised is the generated half of the oracle:
// SELECTs over one to four sources — comma joins, JOIN … ON and LEFT
// JOIN trees (also as a build side), lateral and non-lateral table
// functions, derived tables, views, a valid-time table reached by hash,
// by stab and by scan — with GROUP BY / HAVING, DISTINCT, ORDER BY, FETCH
// FIRST and set operators, under the row limits of EXISTS and scalar
// subqueries too. One position of each (a WHERE conjunct, an ON clause,
// a select item, a grouping key, HAVING, a sort key) holds an expression
// of the expression oracle's generator (compile_oracle_test.go), which raises on a good
// share of rows and carries correlated and uncorrelated subqueries; the
// rest of the statement cannot raise, so both evaluators meet the first
// error at the same row and the texts must agree. One worker per seed
// runs on a session of one database, sharing plans and source memos
// under -race.
func TestPipelineEqualsMaterialised(t *testing.T) {
	db, qs := oracleDB(t)
	const perWorker = 4000
	for _, seed := range []int64{1, 2, 9, 17, 27} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			g := &selGen{exprGen: newExprGen(t, db.NewSession(), seed, qs), shapes: map[string]int{}}
			for i := 0; i < perWorker && !t.Failed(); i++ {
				g.check(i)
			}
			for _, shape := range []string{"1 source", "2 sources", "3 sources", "4 sources", "comma", "join", "left join", "join tree as build side",
				"lateral", "table function in join", "derived", "view", "stab", "group", "having", "distinct", "order", "fetch first", "set operator", "limit 1", "limit 2"} {
				if g.shapes[shape] < perWorker/100 {
					t.Errorf("only %d statements of shape %q", g.shapes[shape], shape)
				}
			}
			if g.raised < g.evals/10 || g.raised > g.evals*3/4 {
				t.Errorf("%d of %d statements raised: the generator should exercise rows and errors alike", g.raised, g.evals)
			}
			t.Logf("%d statements (%d raised, %d stopped early): %v", g.evals, g.raised, g.stopped, g.shapes)
		})
	}
}

// selGen generates SELECTs around exprGen's expressions. The level's
// entries are always t (a, b, c, d, e) and u (a, f) — what the generated
// expressions name — however the FROM clause produces them, followed by
// up to two more.
type selGen struct {
	*exprGen
	shapes  map[string]int
	stopped int // evaluations under a row limit the pipeline ended early
}

func col(tbl, c string) sqlast.Expr { return &sqlast.ColumnRef{Table: tbl, Column: c} }
func lit(i int64) sqlast.Expr       { return &sqlast.Literal{Val: types.NewInt(i)} }
func bin(op string, l, r sqlast.Expr) sqlast.Expr {
	return &sqlast.BinaryExpr{Op: op, L: l, R: r}
}
func and(es ...sqlast.Expr) sqlast.Expr {
	var out sqlast.Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = bin("AND", out, e)
		}
	}
	return out
}

// wild returns a generated expression that is one conjunct (its parts
// would be placed at different stages, and raise in different orders).
func (g *selGen) wild() sqlast.Expr {
	for {
		e := g.gen(1 + g.r.Intn(3))
		if b, ok := e.(*sqlast.BinaryExpr); !ok || b.Op != "AND" {
			return e
		}
	}
}

// tame returns a predicate over the named entries that cannot raise:
// an equality (a hash key between entries, an index lookup within one),
// an inequality, or nothing.
func (g *selGen) tame(l, lc, r, rc string) sqlast.Expr {
	switch g.r.Intn(4) {
	case 0:
		return bin("=", col(l, lc), col(r, rc))
	case 1:
		return bin(g.pick("<", "<=", "<>"), col(l, lc), col(r, rc))
	case 2:
		return and(bin("=", col(l, lc), col(r, rc)), bin("=", col(l, lc), lit(int64(g.r.Intn(3)))))
	}
	return nil
}

// source returns a FROM item producing entry alias with t0's or u0's
// columns: the table, a view or derived table over it.
func (g *selGen) source(alias string) sqlast.TableRef {
	base, view := "t0", "tview"
	if alias == "u" {
		base, view = "u0", "uview"
	}
	switch g.r.Intn(6) {
	case 0:
		g.shapes["view"]++
		return &sqlast.BaseTable{Name: view, Alias: alias}
	case 1:
		g.shapes["derived"]++
		sub := &sqlast.SelectStmt{Items: []sqlast.SelectItem{{Star: true}}, From: []sqlast.TableRef{&sqlast.BaseTable{Name: base}}}
		if g.r.Intn(2) == 0 {
			sub.Where = bin(">=", col("", "a"), lit(1))
		}
		return &sqlast.DerivedTable{Query: sub, Alias: alias}
	}
	return &sqlast.BaseTable{Name: base, Alias: alias}
}

// extra returns a third or fourth FROM item, its alias, and a tame
// predicate tying it to t or u.
func (g *selGen) extra(alias string) (sqlast.TableRef, sqlast.Expr) {
	switch g.r.Intn(4) {
	case 0: // the valid-time table, reached by the point-overlap pair MAX injects: a stab join, or a stab scan at a variable
		g.shapes["stab"]++
		x := col("t", "d")
		if g.r.Intn(3) == 0 {
			x = col("", "pd")
		}
		on := and(bin("<=", col(alias, "begin_time"), x), bin("<", x, col(alias, "end_time")))
		if g.r.Intn(3) == 0 {
			on = and(on, bin("=", col(alias, "k"), col("u", "a")))
		}
		return &sqlast.BaseTable{Name: "h", Alias: alias}, on
	case 1:
		g.shapes["lateral"]++
		return &sqlast.TableFunc{Call: &sqlast.FuncCall{Name: "pairs", Args: []sqlast.Expr{col("u", "a")}}, Alias: alias}, g.tame(alias, "f", "t", "b")
	case 2:
		g.shapes["derived"]++
		sub := &sqlast.SelectStmt{Items: []sqlast.SelectItem{{Expr: col("", "k")}, {Expr: col("", "v")}},
			From: []sqlast.TableRef{&sqlast.BaseTable{Name: "s"}}, Where: &sqlast.IsNullExpr{X: col("", "k"), Not: true}}
		return &sqlast.DerivedTable{Query: sub, Alias: alias}, g.tame(alias, "k", "u", "f")
	}
	return &sqlast.BaseTable{Name: "s", Alias: alias}, g.tame(alias, "k", "t", "a")
}

// selectStmt generates one SELECT of width select items (0: *), one
// position of which holds a generated expression.
func (g *selGen) selectStmt(width int) *sqlast.SelectStmt {
	sel := &sqlast.SelectStmt{}
	site := g.r.Intn(6) // 0 WHERE, 1 ON, 2 select item, 3 grouping key, 4 HAVING, 5 sort key
	var where sqlast.Expr

	// t and u.
	n := 1
	switch k := g.r.Intn(10); {
	case k == 0:
		sel.From = []sqlast.TableRef{g.source("t")}
	case k < 4:
		g.shapes["comma"]++
		sel.From, where, n = []sqlast.TableRef{g.source("t"), g.source("u")}, g.tame("t", "a", "u", "a"), 2
	case k < 8:
		j := &sqlast.JoinExpr{L: g.source("t"), R: g.source("u"), Type: "INNER", On: g.tame("t", "a", "u", "a")}
		g.shapes["join"]++
		if g.r.Intn(2) == 0 {
			j.Type = "LEFT"
			g.shapes["left join"]++
		}
		if g.r.Intn(4) == 0 {
			g.shapes["table function in join"]++
			j.R = &sqlast.TableFunc{Call: &sqlast.FuncCall{Name: "pairs", Args: []sqlast.Expr{col("", "vi")}}, Alias: "u"}
		}
		if site == 1 {
			j.On, site = and(j.On, g.wild()), -1
		}
		if j.On == nil {
			j.On = bin("=", lit(1), lit(1))
		}
		sel.From, n = []sqlast.TableRef{j}, 2
	default:
		g.shapes["lateral"]++
		sel.From, n = []sqlast.TableRef{g.source("t"),
			&sqlast.TableFunc{Call: &sqlast.FuncCall{Name: "pairs", Args: []sqlast.Expr{col("t", "a")}}, Alias: "u"}}, 2
	}
	// Up to two more: in the comma list, or joined into a tree that is
	// then the build side of the comma join before it (its ON clause sees
	// only the tree's own entries).
	lastAlias, lastKey := "u", "a"
	for _, alias := range []string{"w", "g"}[:g.r.Intn(3)] {
		if n == 1 {
			break
		}
		ref, tie := g.extra(alias)
		key := "k"
		if _, lateral := ref.(*sqlast.TableFunc); lateral {
			key = "f"
		} else if last := len(sel.From) - 1; last > 0 && g.r.Intn(3) == 0 {
			if _, fn := sel.From[last].(*sqlast.TableFunc); !fn {
				g.shapes["join tree as build side"]++
				on := g.tame(alias, key, lastAlias, lastKey)
				if on == nil {
					on = bin("=", lit(1), lit(1))
				}
				sel.From[last] = &sqlast.JoinExpr{L: sel.From[last], R: ref, Type: g.pick("INNER", "LEFT"), On: on}
				where, n = and(where, tie), n+1
				continue
			}
		}
		sel.From, where, n = append(sel.From, ref), and(where, tie), n+1
		lastAlias, lastKey = alias, key
	}
	g.shapes[fmt.Sprint(n, " source", map[bool]string{true: "s"}[n > 1])]++

	if site == 0 || site == 1 {
		where = and(where, g.wild())
	}
	sel.Where = where

	// The select list: width plain columns, one of them the generated
	// expression; or a grouping.
	cols := []sqlast.Expr{col("t", "a"), col("t", "b"), col("t", "c"), col("t", "e")}
	if n > 1 {
		cols = append(cols, col("u", "a"), col("u", "f"))
	}
	grouped := site == 3 || site == 4 || g.r.Intn(5) == 0
	switch {
	case grouped:
		g.shapes["group"]++
		width = max(width, 1)
		key := col("t", "a")
		if site == 3 {
			key = g.wild()
		}
		if g.r.Intn(4) > 0 {
			sel.GroupBy = []sqlast.Expr{key}
		}
		aggs := []sqlast.Expr{&sqlast.FuncCall{Name: "COUNT", Star: true}, &sqlast.FuncCall{Name: "MAX", Args: []sqlast.Expr{col("t", "b")}},
			&sqlast.FuncCall{Name: "SUM", Args: []sqlast.Expr{col("t", "e")}}, &sqlast.FuncCall{Name: "COUNT", Args: []sqlast.Expr{col("t", "c")}, Distinct: true}}
		for i := 0; i < width; i++ {
			sel.Items = append(sel.Items, sqlast.SelectItem{Expr: aggs[g.r.Intn(len(aggs))]})
		}
		if len(sel.GroupBy) > 0 && site != 3 {
			sel.Items[0].Expr = key
		}
		if site == 4 {
			g.shapes["having"]++
			sel.Having = g.wild()
		} else if g.r.Intn(3) == 0 {
			g.shapes["having"]++
			sel.Having = bin(">", &sqlast.FuncCall{Name: "COUNT", Star: true}, lit(1))
		}
	case width == 0:
		sel.Items = []sqlast.SelectItem{{Star: true}}
	default:
		for i := 0; i < width; i++ {
			sel.Items = append(sel.Items, sqlast.SelectItem{Expr: cols[g.r.Intn(len(cols))]})
		}
		if site == 2 {
			sel.Items[g.r.Intn(width)].Expr = g.wild()
		}
	}
	if !grouped && g.r.Intn(5) == 0 {
		g.shapes["distinct"]++
		sel.Distinct = true
	}
	if site == 5 || g.r.Intn(4) == 0 {
		g.shapes["order"]++
		key := sqlast.Expr(lit(1))
		switch {
		case site == 5 && !grouped:
			key = g.wild()
		case width == 0 || g.r.Intn(2) == 0:
		default:
			key = lit(int64(1 + g.r.Intn(width)))
		}
		sel.OrderBy = []sqlast.OrderItem{{Expr: key, Desc: g.r.Intn(2) == 0}}
	}
	if g.r.Intn(6) == 0 {
		g.shapes["fetch first"]++
		sel.Limit = lit(int64(g.r.Intn(4)))
	}
	return sel
}

// check generates one query — a SELECT, or two under a set operator —
// and compares the evaluators on it, under no row limit or under an
// EXISTS's or a scalar subquery's.
func (g *selGen) check(i int) {
	width := g.r.Intn(4)
	var q sqlast.QueryExpr = g.selectStmt(width)
	limitHint := 0
	switch k := g.r.Intn(10); {
	case k == 0 && width > 0:
		g.shapes["set operator"]++
		so := &sqlast.SetOpExpr{Op: g.pick("UNION", "EXCEPT", "INTERSECT"), All: g.r.Intn(2) == 0, L: q, R: g.selectStmt(width)}
		if g.r.Intn(2) == 0 {
			so.OrderBy = []sqlast.OrderItem{{Expr: lit(1)}}
		}
		q = so
	case k < 4:
		limitHint = 1 + g.r.Intn(2)
		g.shapes[fmt.Sprint("limit ", limitHint)]++
	}
	outerRow := g.row(2)
	vars := [4]types.Value{g.value(), g.value(), g.value(), types.NewDate(14605 + int64(g.r.Intn(12)))}
	got, want := evalBoth(g.db, q, limitHint, func(ses *DB) *execCtx {
		frame := &varFrame{}
		frame.bind(tableBinding("tv", storage.NewTable("tv", storage.NewSchema([]storage.Column{{Name: "z", Type: sqlast.TypeName{Base: "INTEGER"}}}))))
		for k, name := range []string{"vi", "vs", "p", "pd"} {
			frame.bind(scalarBinding(name, vars[k]))
		}
		outer := &rowScope{metas: g.outer.metas, rows: [][]types.Value{outerRow}}
		return &execCtx{db: ses, vars: frame, scope: outer}
	})
	if g.evals++; want.err != nil {
		g.raised++
	}
	if (got.err == nil) != (want.err == nil) || (got.err == nil && got.stats != want.stats) {
		g.stopped++
	}
	if d := diffOutcomes(got, want, q, limitHint); d != "" {
		g.t.Fatalf("#%d (limit %d) %s\nouter %v, vi vs p pd = %v\n%s", i, limitHint, q.SQL(), outerRow, vars, d)
	}
}

// The one way the pipeline departs from the materialising evaluator, by
// design: an EXISTS stops at the row that decides it and a scalar
// subquery at its second row — when the subquery neither orders,
// deduplicates nor groups, the condition under which the row limit was
// honoured before — so what only a later row would have done (a routine
// call, an error) does not happen. The scan still reports every candidate
// its access path proposed.
func TestSubqueryStopsAtTheDecidingRow(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE FUNCTION safe_below (x INTEGER, bad INTEGER) RETURNS INTEGER LANGUAGE SQL
		BEGIN RETURN 1 / (bad - x) - 1 / (bad - x) + 1; END`) // 1, raising when x reaches bad
	for _, tc := range []struct {
		sql, want, reference string
		calls                int64
	}{
		// author 10 decides; 11 would raise.
		{`SELECT id FROM item WHERE id = 1 AND EXISTS (SELECT 1 FROM author WHERE safe_below(author_id, 11) = 1)`,
			"[1]", "error: in function safe_below: division by zero", 1},
		{`SELECT id FROM item WHERE id = 1 AND NOT EXISTS (SELECT 1 FROM author WHERE safe_below(author_id, 11) = 1)`,
			"[]", "error: in function safe_below: division by zero", 1},
		// Rows 10 and 11 decide that there is more than one; 12 would raise.
		{`SELECT (SELECT first_name FROM author WHERE safe_below(author_id, 12) = 1) FROM item WHERE id = 1`,
			"error: scalar subquery returned more than one row", "error: in function safe_below: division by zero", 2},
		// The rows before the deciding one are evaluated as ever.
		{`SELECT id FROM item WHERE id = 1 AND EXISTS (SELECT 1 FROM author WHERE safe_below(author_id, 10) = 1)`,
			"error: in function safe_below: division by zero", "error: in function safe_below: division by zero", 1},
		// Every row takes part in ordering, deduplication and grouping.
		{`SELECT id FROM item WHERE id = 1 AND EXISTS (SELECT DISTINCT 1 FROM author WHERE safe_below(author_id, 12) = 1)`,
			"error: in function safe_below: division by zero", "error: in function safe_below: division by zero", 3},
		{`SELECT id FROM item WHERE id = 1 AND EXISTS (SELECT 1 FROM author WHERE safe_below(author_id, 12) = 1 ORDER BY author_id)`,
			"error: in function safe_below: division by zero", "error: in function safe_below: division by zero", 3},
		{`SELECT id FROM item WHERE id = 1 AND EXISTS (SELECT COUNT(*) FROM author WHERE safe_below(author_id, 12) = 1)`,
			"error: in function safe_below: division by zero", "error: in function safe_below: division by zero", 3},
		// An IN subquery has no deciding row: a later element that raises still does.
		{`SELECT id FROM item WHERE id = 1 AND 10 IN (SELECT author_id FROM author WHERE safe_below(author_id, 12) = 1)`,
			"error: in function safe_below: division by zero", "error: in function safe_below: division by zero", 3},
	} {
		render := func(o outcome) string {
			if o.err != nil {
				return "error: " + o.err.Error()
			}
			return fmt.Sprint(rowsText(o.res))
		}
		got, _ := evalBoth(db, parseStmt(t, tc.sql).(sqlast.QueryExpr), 0, func(ses *DB) *execCtx { return &execCtx{db: ses} })
		if render(got) != tc.want || got.stats.RoutineCalls != tc.calls {
			t.Errorf("%s\n got %s after %d routine calls\nwant %s after %d", tc.sql, render(got), got.stats.RoutineCalls, tc.want, tc.calls)
		}
		if got.stats.RowsScanned != 4 { // the item the index proposes, and the three authors its subquery scans
			t.Errorf("%s: %d rows scanned, want 4 however early the subquery stops", tc.sql, got.stats.RowsScanned)
		}
		// The reference evaluates the outer SELECT; the subquery in its
		// WHERE clause is the program's either way. Evaluating the
		// subquery itself by reference, under its limit, shows what the
		// materialising evaluator did.
		var sub sqlast.QueryExpr
		sqlast.Walk(parseStmt(t, tc.sql), func(n sqlast.Node) bool {
			switch x := n.(type) {
			case *sqlast.ExistsExpr:
				sub = x.Sub
			case *sqlast.SubqueryExpr:
				sub = x.Query
			case *sqlast.InExpr:
				sub = x.Sub
			}
			return sub == nil
		})
		_, ref := evalBoth(db, sub, 0, func(ses *DB) *execCtx { return &execCtx{db: ses} })
		if !strings.HasPrefix(tc.reference, "error: ") || ref.err == nil || "error: "+ref.err.Error() != tc.reference {
			t.Errorf("%s: the reference evaluator, run to the end, gives %v; want %s", tc.sql, ref.err, tc.reference)
		}
	}
}
