package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// TestCompiledEqualsTreeWalk is the oracle of the expression compiler:
// a seeded generator builds expressions over every node kind, with
// operands of every position class (a slot of the level, an ambiguous or
// missing column, an outer-query column, a PSM variable, a parameter, a
// literal), and each is evaluated on several rows by its compiled form —
// as a value and as a condition — and by the tree walker that the
// compiler replaced (eval_reference_test.go). Both must give the same
// Value and the same error text. Two workers run at once on sessions of
// one database, so under -race the test also covers what compiled
// expressions share: call-site resolutions, the plans of subqueries and
// routine bodies, the root-expression cache.
func TestCompiledEqualsTreeWalk(t *testing.T) {
	db := New()
	db.Now = 14610
	mustExec(t, db, `
		CREATE TABLE s (k INTEGER, v VARCHAR(10));
		INSERT INTO s VALUES (1, 'one'), (2, 'two'), (2, 'deux'), (NULL, 'none');
		CREATE FUNCTION inc (x INTEGER) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN x + 1; END;
		CREATE FUNCTION inv (x INTEGER) RETURNS INTEGER LANGUAGE SQL
		BEGIN IF x IS NULL THEN RETURN -1; END IF; RETURN 10 / x; END;
		CREATE FUNCTION pick (x INTEGER) RETURNS VARCHAR(10) READS SQL DATA LANGUAGE SQL
		BEGIN RETURN (SELECT v FROM s WHERE k = x); END;
		CREATE FUNCTION lower (x VARCHAR(10)) RETURNS VARCHAR(10) LANGUAGE SQL BEGIN RETURN 'shadowed'; END;
	`)
	// The subqueries are parsed once: the workers share their plans.
	query := func(sql string) sqlast.QueryExpr { return parseStmt(t, sql).(sqlast.QueryExpr) }
	qs := subqueries{
		scalar: []sqlast.QueryExpr{
			query(`SELECT v FROM s WHERE k = t.a`),         // correlated; two rows for 2
			query(`SELECT COUNT(*) FROM s WHERE k > vi`),   // reads a variable
			query(`SELECT MAX(k) + y FROM s WHERE v <> c`), // reads the outer query and the level
			query(`SELECT k, v FROM s`),                    // two columns
			query(`SELECT inc(k) FROM s WHERE v = 'one'`),
		},
		exists: []sqlast.QueryExpr{query(`SELECT 1 FROM s WHERE k = u.f`), query(`SELECT 1 FROM s WHERE k = p`)},
		in:     []sqlast.QueryExpr{query(`SELECT k FROM s`), query(`SELECT k FROM s WHERE k IS NOT NULL`), query(`SELECT k, v FROM s`)},
	}
	const workers, perWorker = 2, 10000
	for w := 0; w < workers; w++ {
		seed := int64(w + 1)
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			g := newExprGen(t, db.NewSession(), seed, qs)
			for i := 0; i < perWorker && !t.Failed(); i++ {
				g.check(i)
			}
			// The fast paths are hit by construction: count the comparisons
			// whose operands the compiler reads in place.
			for shape, n := range g.inPlace {
				if n < perWorker/50 {
					t.Errorf("only %d comparisons of shape %s", n, shape)
				}
			}
			if len(g.inPlace) != 3 {
				t.Errorf("in-place shapes seen: %v", g.inPlace)
			}
			if g.raised < g.evals/10 || g.raised > g.evals/2 {
				t.Errorf("%d of %d evaluations raised: the generator should exercise values and errors alike", g.raised, g.evals)
			}
			t.Logf("%d expressions, %d evaluations (%d raised), compared in place: %v", perWorker, g.evals, g.raised, g.inPlace)
		})
	}
}

// subqueries are the bodies of the generated scalar, EXISTS and IN
// subqueries.
type subqueries struct{ scalar, exists, in []sqlast.QueryExpr }

// exprGen generates expressions and the rows they are evaluated on.
type exprGen struct {
	t       *testing.T
	db      *DB
	r       *rand.Rand
	metas   []storage.Binding
	outer   *rowScope
	frame   *varFrame
	qs      subqueries
	pool    []types.Value
	inPlace map[string]int
	evals   int // evaluations compared
	raised  int // of which raised an error (the same on both sides)
}

func newExprGen(t *testing.T, db *DB, seed int64, qs subqueries) *exprGen {
	g := &exprGen{t: t, db: db, r: rand.New(rand.NewSource(seed)), qs: qs, inPlace: map[string]int{}}
	g.metas = []storage.Binding{
		{Alias: "t", Cols: []string{"a", "b", "c", "d", "e"}},
		{Alias: "u", Cols: []string{"a", "f"}}, // a is ambiguous when unqualified
	}
	g.outer = &rowScope{metas: []storage.Binding{{Alias: "o", Cols: []string{"x", "y"}}}, rows: make([][]types.Value, 1)}
	g.frame = &varFrame{}
	g.frame.bind(tableBinding("tv", storage.NewTable("tv", storage.NewSchema([]storage.Column{{Name: "z", Type: sqlast.TypeName{Base: "INTEGER"}}}))))
	g.pool = []types.Value{
		types.Null, types.Null,
		types.NewInt(0), types.NewInt(1), types.NewInt(2), types.NewInt(-3), types.NewInt(14610),
		types.NewFloat(0), types.NewFloat(1), types.NewFloat(2.5), types.NewFloat(-0.5),
		types.NewString("abc"), types.NewString("abc   "), types.NewString(""), types.NewString("one"),
		types.NewString("2010-01-01"), types.NewString(" 2010-01-02 "), types.NewString("1"), types.NewString("a%_"),
		types.NewBool(true), types.NewBool(false),
		types.NewDate(14610), types.NewDate(14611), types.NewDate(0),
	}
	return g
}

func (g *exprGen) value() types.Value { return g.pool[g.r.Intn(len(g.pool))] }

func (g *exprGen) row(n int) []types.Value {
	row := make([]types.Value, n)
	for i := range row {
		row[i] = g.value()
	}
	return row
}

func (g *exprGen) pick(ss ...string) string { return ss[g.r.Intn(len(ss))] }

// leaf draws an operand from every position class.
func (g *exprGen) leaf() sqlast.Expr {
	col := func(tbl, c string) sqlast.Expr { return &sqlast.ColumnRef{Table: tbl, Column: c} }
	switch g.r.Intn(24) {
	case 0, 1, 2, 3: // a slot, qualified
		if g.r.Intn(2) == 0 {
			return col(g.pick("t", "T"), g.pick("a", "b", "c", "d", "e", "E"))
		}
		return col("u", g.pick("a", "f"))
	case 4, 5: // a slot, bare
		return col("", g.pick("b", "c", "d", "e", "f", "F"))
	case 6: // ambiguous, missing, or of no entry
		return []sqlast.Expr{col("", "a"), col("t", "zz"), col("q", "a"), col("", "nope")}[g.r.Intn(4)]
	case 7, 8: // outer-query column
		return []sqlast.Expr{col("o", "x"), col("", "y"), col("O", "Y")}[g.r.Intn(3)]
	case 9, 10, 11: // PSM variables, a parameter, a collection variable
		return col("", g.pick("vi", "VI", "vs", "p", "p", "tv"))
	}
	return &sqlast.Literal{Val: g.value()}
}

var cmpOps = []string{"=", "<>", "<", "<=", ">", ">="}

// gen builds an expression of every node kind, depth levels deep at most.
func (g *exprGen) gen(depth int) sqlast.Expr {
	if depth <= 0 {
		return g.leaf()
	}
	sub := func() sqlast.Expr { return g.gen(depth - 1 - g.r.Intn(2)) }
	list := func(n int) []sqlast.Expr {
		out := make([]sqlast.Expr, n)
		for i := range out {
			out[i] = sub()
		}
		return out
	}
	switch k := g.r.Intn(30); {
	case k < 5: // the shapes compared in place: slot with slot, literal, variable
		l := &sqlast.ColumnRef{Table: g.pick("t", "", ""), Column: g.pick("b", "c", "d", "e")}
		var r sqlast.Expr
		switch g.r.Intn(3) {
		case 0:
			r = &sqlast.ColumnRef{Table: "u", Column: g.pick("a", "f")}
		case 1:
			r = &sqlast.Literal{Val: g.value()}
		default:
			r = &sqlast.ColumnRef{Column: g.pick("vi", "vs", "p")}
		}
		if g.r.Intn(2) == 0 {
			return &sqlast.BinaryExpr{Op: g.pick(cmpOps...), L: r, R: l}
		}
		return &sqlast.BinaryExpr{Op: g.pick(cmpOps...), L: l, R: r}
	case k < 8:
		return &sqlast.BinaryExpr{Op: g.pick(cmpOps...), L: sub(), R: sub()}
	case k < 11:
		return &sqlast.BinaryExpr{Op: g.pick("AND", "OR"), L: sub(), R: sub()}
	case k < 14:
		return &sqlast.BinaryExpr{Op: g.pick("+", "-", "*", "/", "||", "%", "!="), L: sub(), R: sub()}
	case k < 16:
		return &sqlast.UnaryExpr{Op: g.pick("NOT", "NOT", "-", "-", "~"), X: sub()}
	case k == 16:
		return &sqlast.IsNullExpr{X: sub(), Not: g.r.Intn(2) == 0}
	case k == 17:
		return &sqlast.BetweenExpr{X: sub(), Lo: sub(), Hi: sub(), Not: g.r.Intn(2) == 0}
	case k == 18:
		if g.r.Intn(4) == 0 {
			return &sqlast.InExpr{X: sub(), Sub: g.qs.in[g.r.Intn(len(g.qs.in))], Not: g.r.Intn(2) == 0}
		}
		return &sqlast.InExpr{X: sub(), List: list(1 + g.r.Intn(3)), Not: g.r.Intn(2) == 0}
	case k == 19:
		return &sqlast.LikeExpr{X: sub(), Pattern: sub(), Not: g.r.Intn(2) == 0}
	case k == 20 || k == 21:
		c := &sqlast.CaseExpr{}
		if g.r.Intn(2) == 0 {
			c.Operand = sub()
		}
		for i := 1 + g.r.Intn(2); i > 0; i-- {
			c.Whens = append(c.Whens, sqlast.WhenClause{When: sub(), Then: sub()})
		}
		if g.r.Intn(2) == 0 {
			c.Else = sub()
		}
		return c
	case k == 22:
		ty := []sqlast.TypeName{{Base: "INTEGER"}, {Base: "FLOAT"}, {Base: "CHAR", Length: 2}, {Base: "VARCHAR", Length: 20},
			{Base: "DATE"}, {Base: "BOOLEAN"}, {Base: "ROW"}}[g.r.Intn(7)]
		return &sqlast.CastExpr{X: sub(), Type: ty}
	case k < 26: // builtins, right and wrong arities, an unknown name
		name := g.pick("CURRENT_DATE", "first_instance", "LAST_INSTANCE", "UPPER", "lower", "LENGTH", "TRIM", "ABS",
			"MOD", "COALESCE", "NULLIF", "YEAR", "MONTH", "DAY", "DATE", "no_such_fn")
		n := map[string]int{"CURRENT_DATE": 0, "first_instance": 2, "LAST_INSTANCE": 2, "MOD": 2, "NULLIF": 2, "COALESCE": 3}[name]
		if n == 0 && name != "CURRENT_DATE" {
			n = 1
		}
		if g.r.Intn(12) == 0 {
			n = g.r.Intn(6) // 5: beyond the arguments kept on the stack
		}
		if g.r.Intn(8) == 0 { // SUBSTR, its length a small literal (a negative one panics, before and now)
			return &sqlast.FuncCall{Name: g.pick("SUBSTR", "substring"), Args: append(list(1+g.r.Intn(2)), &sqlast.Literal{Val: types.NewInt(int64(g.r.Intn(4)))})}
		}
		return &sqlast.FuncCall{Name: name, Args: list(n)}
	case k == 26: // stored functions: one raises on 0, one on two rows; a wrong arity
		name := g.pick("inc", "INV", "pick", "inc")
		return &sqlast.FuncCall{Name: name, Args: list(1 + g.r.Intn(8)/7)}
	case k == 27: // aggregates: collected by a plan that aggregates, an error elsewhere
		if g.r.Intn(3) == 0 {
			return &sqlast.FuncCall{Name: "COUNT", Star: true}
		}
		return &sqlast.FuncCall{Name: g.pick("SUM", "max", "MIN", "AVG", "COUNT"), Args: list(1), Distinct: g.r.Intn(4) == 0}
	case k == 28:
		return &sqlast.SubqueryExpr{Query: g.qs.scalar[g.r.Intn(len(g.qs.scalar))]}
	}
	return &sqlast.ExistsExpr{Sub: g.qs.exists[g.r.Intn(len(g.qs.exists))], Not: g.r.Intn(2) == 0}
}

// noteShapes counts the comparisons under e whose operands the compiler
// reads in place (by asking the compiler how it classifies them).
func (g *exprGen) noteShapes(b *binder, e sqlast.Expr) {
	n := *b.names
	b = &binder{metas: b.metas, lo: b.lo, hi: b.hi, names: &n} // classifying compiles: keep it from collecting aggregates
	class := func(x sqlast.Expr) string {
		_, col := x.(*sqlast.ColumnRef)
		switch o := b.operand(x); {
		case o.kind == opLit:
			return "literal"
		case o.kind == opSlot, o.kind == opReach, o.kind == opNear, o.kind == opFn && col:
			return "name"
		case o.kind == opCol:
			return "slot"
		}
		return ""
	}
	sqlast.Walk(e, func(n sqlast.Node) bool {
		if x, ok := n.(*sqlast.BinaryExpr); ok && types.ParseOp(x.Op).IsComparison() {
			l, r := class(x.L), class(x.R)
			if r == "slot" {
				l, r = r, l
			}
			if l == "slot" && r != "" {
				g.inPlace[l+" with "+r]++
			}
		}
		_, sub := n.(sqlast.QueryExpr)
		return !sub
	})
}

func sameValue(a, b types.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S && a.Aux == b.Aux
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// check generates one expression, compiles it under one of the binders
// the engine uses, and compares it with the walker on a few rows.
func (g *exprGen) check(i int) {
	t, e := g.t, g.gen(1+g.r.Intn(4))
	// The level's binder (with and without aggregation), an ON clause's,
	// a table function's inside a JOIN tree, and no level at all.
	var b *binder
	var rb *refBinder
	var aggs []aggPlan
	var refAggs []*sqlast.FuncCall
	// Names past the level reach the outer scope, then the frame; with no
	// level at all, the level's own entries are the first enclosing ones.
	level := func() *names { return &names{up: g.outer, own: true} }
	switch mode := g.r.Intn(8); {
	case mode < 3:
		b, rb = &binder{metas: g.metas, hi: 2, names: level()}, &refBinder{metas: g.metas, hi: 2}
	case mode < 5:
		b, rb = &binder{metas: g.metas, hi: 2, aggs: &aggs, names: level()}, &refBinder{metas: g.metas, hi: 2, aggs: &refAggs}
	case mode == 5:
		b, rb = &binder{metas: g.metas, lo: 1, hi: 2, names: level()}, &refBinder{metas: g.metas, lo: 1, hi: 2}
	case mode == 6:
		b, rb = &binder{names: level()}, &refBinder{}
	default:
		b = &binder{names: &names{up: &rowScope{parent: g.outer, metas: g.metas}}}
	}
	bound := e // no level: the walker resolves every name dynamically
	if rb != nil {
		bound = rb.expr(e)
	}
	g.noteShapes(b, e)
	value := b.expr(e)
	cb := b
	if aggs != nil { // compiled a second time, as a condition: the same aggregates under the same ordinals
		cb = &binder{metas: g.metas, hi: 2, aggs: new([]aggPlan), names: level()}
	}
	cond := cb.cond(e)
	if len(aggs) != len(refAggs) {
		t.Fatalf("#%d %s: %d aggregates collected, the walker's binder collects %d", i, e.SQL(), len(aggs), len(refAggs))
	}

	for rowNo := 0; rowNo < 3; rowNo++ {
		// One level over the outer scope and the variable frame, its
		// rows fresh; the aggregates' values follow the entries.
		m := g.db.acts.n
		ctx := g.db.enter(&execCtx{db: g.db, vars: g.frame, scope: g.outer}, g.metas)
		sc := ctx.scope
		sc.rows[0], sc.rows[1], g.outer.rows[0] = g.row(5), g.row(2), g.row(2)
		if k := g.r.Intn(12); k < 2 && (b == nil || k < b.lo || k >= b.hi) {
			sc.rows[k] = nil // an entry no operator has bound yet; a plan reads only slots that are
		}
		for _, k := range []string{"vi", "vs", "p"} {
			g.frame.bind(scalarBinding(k, g.value()))
		}
		ref := &refEval{db: g.db}
		if b != nil && b.aggs != nil {
			// The two binders number the aggregates in their own orders:
			// the group's value of each goes by the aggregate's text.
			byText := map[string]types.Value{}
			vals := make([]types.Value, len(aggs))
			for k, a := range aggs {
				if _, ok := byText[a.fc.SQL()]; !ok {
					byText[a.fc.SQL()] = g.value()
				}
				vals[k] = byText[a.fc.SQL()]
			}
			sc.rows = append(sc.rows, vals)
			ref.aggVals = map[*sqlast.FuncCall]types.Value{}
			for _, fc := range refAggs {
				ref.aggVals[fc] = byText[fc.SQL()]
			}
		}

		want, wantErr := ref.eval(ctx, bound)
		got, gotErr := value(ctx)
		if g.evals++; wantErr != nil {
			g.raised++
		}
		if errText(gotErr) != errText(wantErr) || (gotErr == nil && !sameValue(got, want)) {
			t.Fatalf("#%d %s\nrows %v %v outer %v vars %v\ncompiled: %#v, %v\nwalker:   %#v, %v",
				i, e.SQL(), sc.rows[0], sc.rows[1], g.outer.rows[0], g.frame.binds, got, gotErr, want, wantErr)
		}
		truth, condErr := cond(ctx)
		if errText(condErr) != errText(wantErr) || (condErr == nil && truth != types.TriboolFromValue(want)) {
			t.Fatalf("#%d %s as a condition\ncompiled: %v, %v\nwalker:   %#v, %v", i, e.SQL(), truth, condErr, want, wantErr)
		}
		// What an aggregating plan accumulates: the aggregates' arguments.
		for _, fc := range refAggs {
			var arg evalFn
			for _, a := range aggs {
				if a.fc.SQL() == fc.SQL() {
					arg = a.arg
				}
			}
			if (arg == nil) != fc.Star {
				t.Fatalf("#%d %s: the compiler did not collect %s as the walker's binder did", i, e.SQL(), fc.SQL())
			}
			if fc.Star {
				continue
			}
			want, wantErr := (&refEval{db: g.db}).eval(ctx, fc.Args[0])
			got, gotErr := arg(ctx)
			if errText(gotErr) != errText(wantErr) || (gotErr == nil && !sameValue(got, want)) {
				t.Fatalf("#%d argument of %s\ncompiled: %#v, %v\nwalker:   %#v, %v", i, fc.SQL(), got, gotErr, want, wantErr)
			}
		}
		g.db.popActs(m)
	}
}

// Every error text the tree walker and its builtin dispatch could raise
// at run time is raised verbatim by the compiled form — when a row is
// evaluated, never when the plan is built.
func TestCompiledErrorTexts(t *testing.T) {
	db, empty := newTestDB(t), newTestDB(t)
	mustExec(t, empty, `DELETE FROM item; DELETE FROM item_author; DELETE FROM author`)
	for _, d := range []*DB{db, empty} {
		mustExec(t, d, `CREATE FUNCTION one (x INTEGER) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN 1; END`)
	}
	for _, tc := range []struct{ sql, want string }{
		{`SELECT author_id FROM item_author ia, author a`, "column reference author_id is ambiguous"},
		{`SELECT i.nope FROM item i`, "column i.nope does not exist"},
		{`SELECT (SELECT i.nope FROM author WHERE author_id = 10) FROM item i`, "column i.nope does not exist"},
		{`SELECT q.id FROM item i`, "column q.id not found"},
		{`SELECT nope FROM item`, "name nope is neither a column in scope nor a variable"},
		{`SELECT 1 FROM item WHERE id IN (SELECT id, title FROM item)`, "IN subquery must return one column, got 2"},
		{`SELECT (SELECT id, title FROM item) FROM item`, "scalar subquery must return one column, got 2"},
		{`SELECT (SELECT id FROM item) FROM item`, "scalar subquery returned more than one row"},
		{`SELECT CAST(price AS DATE) FROM item`, "cannot cast FLOAT to DATE"},
		{`SELECT CAST(title AS DATE) FROM item`, `invalid DATE literal "SQL Basics" (want YYYY-MM-DD)`},
		{`SELECT id FROM item WHERE SUM(id) > 1`, "aggregate SUM used outside an aggregation context"},
		{`SELECT SUM(COUNT(*)) FROM item`, "aggregate COUNT used outside an aggregation context"},
		{`SELECT id FROM item GROUP BY MAX(id)`, "aggregate MAX used outside an aggregation context"},
		{`SELECT upper(title, 1) FROM item`, "UPPER expects 1 argument(s), got 2"},
		{`SELECT Mod(id) FROM item`, "MOD expects 2 argument(s), got 1"},
		{`SELECT substring(title) FROM item`, "SUBSTRING expects 2 or 3 arguments"},
		{`SELECT MOD(id, 0) FROM item`, "MOD by zero"},
		{`SELECT Nope(id) FROM item`, "unknown function Nope"},
		{`SELECT one(id, 2) FROM item`, "function one expects 1 arguments, got 2"},
		{`SELECT id / 0 FROM item`, "division by zero"},
		{`SELECT title - 1 FROM item`, "cannot apply - to VARCHAR and INTEGER"},
		{`SELECT upper(1 / 0, 2) FROM item`, "division by zero"}, // arguments first, then the count
		{`SELECT Nope(1 / 0) FROM item`, "division by zero"},     // and then the name
	} {
		_, err := db.ExecScript(tc.sql)
		if errText(err) != tc.want {
			t.Errorf("%s\n got: %v\nwant: %s", tc.sql, err, tc.want)
		}
		// Planning raises none of them: over no rows the statement runs
		// (a grand aggregate has a row to output over no input).
		if _, err := empty.ExecScript(tc.sql); err != nil && !strings.Contains(tc.sql, "SUM(COUNT") {
			t.Errorf("%s raised without a row to evaluate: %v", tc.sql, err)
		}
	}
	// The texts no SQL text reaches: operators and nodes the parser does not produce.
	ctx := &execCtx{db: db}
	for _, tc := range []struct {
		e    sqlast.Expr
		want string
	}{
		{&sqlast.UnaryExpr{Op: "~", X: &sqlast.Literal{Val: types.NewInt(1)}}, `unknown unary operator "~"`},
		{&sqlast.BinaryExpr{Op: "%", L: &sqlast.Literal{Val: types.NewInt(1)}, R: &sqlast.Literal{Val: types.NewInt(1)}}, `unknown arithmetic operator "%"`},
		{&sqlast.CastExpr{X: &sqlast.Literal{Val: types.NewInt(1)}, Type: sqlast.TypeName{Base: "BLOB"}}, "unsupported cast target BLOB"},
		{nil, "engine: unsupported expression <nil>"},
	} {
		if _, err := binderIn(ctx).expr(tc.e)(ctx); errText(err) != tc.want {
			t.Errorf("%T: %v, want %s", tc.e, err, tc.want)
		}
	}
}

// The plan still runs cheap conjuncts before routine-calling ones, and a
// conjunction still stops at its first conjunct that is not TRUE: a
// conjunct that would raise is not evaluated behind a false one. OR
// decides left to right, per row.
func TestFalseConjunctShieldsARaisingOne(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE FUNCTION boom (x INTEGER) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN 1 / (x - x); END`)
	for _, tc := range []struct{ sql, want string }{
		{`SELECT id FROM item WHERE id < 0 AND 1 / (id - id) = 1`, "[]"},
		{`SELECT id FROM item i, author a WHERE boom(i.id) < a.author_id AND i.id + a.author_id < 0`, "[]"}, // reordered: the routine call goes last
		{`SELECT id FROM item WHERE id > 0 OR 1 / 0 = 1 ORDER BY id`, "[1 2 3]"},
		{`SELECT id FROM item WHERE NOT (id > 0 OR 1 / 0 = 1)`, "[]"},
		{`SELECT id FROM item WHERE id = 1 OR price / 0 = 1`, "error: division by zero"}, // raises on the second row
		{`SELECT id FROM item WHERE id < 0 OR boom(id) = 1`, "error: in function boom: division by zero"},
		{`SELECT COALESCE(id, 1 / 0), CASE WHEN id > 0 THEN id ELSE 1 / 0 END FROM item WHERE id = 1`, "[1,1]"},
	} {
		res, err := db.ExecScript(tc.sql)
		got := "error: " + errText(err)
		if err == nil {
			got = fmt.Sprint(rowsText(res))
		}
		if got != tc.want {
			t.Errorf("%s: %s, want %s", tc.sql, got, tc.want)
		}
	}
}
