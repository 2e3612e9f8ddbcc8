package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// The oracle of the row stacks' consumers: a query is run as each of the
// places a query's rows go — the top level, a scalar subquery, EXISTS, IN,
// a FOR loop, an OPEN and its FETCHes, a derived table, a set operand and
// an INSERT's source — once by the program, which reads the rows on the
// session's stacks in place (or copies them off once), and once by the
// Result-based consumer it replaced (consumer_reference_test.go,
// insert_reference_test.go). Each run is on a session that loads every
// source afresh, under a journal of its own that is rolled back, and
// gives its stacks back afterwards; the two must produce the same rows in
// the same order, raise the same error text, count the same work, and
// leave the stacks as they found them.

// consumed is what one run of a consumer leaves behind.
type consumed struct {
	out   string // what the consumer produced, rendered
	err   string
	stats Stats
}

func (c consumed) diff(ref consumed) string {
	switch {
	case c.err != ref.err:
		return fmt.Sprintf("error %q, reference %q", c.err, ref.err)
	case c.out != ref.out:
		return fmt.Sprintf("%s\nreference %s", c.out, ref.out)
	case c.stats != ref.stats:
		return fmt.Sprintf("work %+v\nreference %+v", c.stats, ref.stats)
	}
	return ""
}

// renderValue renders every field of v; a collection by its rows.
func renderValue(v types.Value) string {
	if t, ok := v.Aux.(*storage.Table); ok && v.Kind == types.KindTable {
		return "table" + renderRows(t.Rows)
	}
	return fmt.Sprintf("%d/%d/%x/%q", v.Kind, v.I, math.Float64bits(v.F), v.S)
}

func renderRows(rows [][]types.Value) string {
	var b strings.Builder
	for _, row := range rows {
		b.WriteByte('[')
		for i, v := range row {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(renderValue(v))
		}
		b.WriteByte(']')
	}
	return b.String()
}

func renderResult(res *Result) string {
	if res == nil {
		return "<nil>"
	}
	return fmt.Sprint(res.Cols) + renderRows(res.Rows)
}

// consume runs f on a fresh session in the context ctxOf builds.
func consume(db *DB, ctxOf func(*DB) *execCtx, f func(ses *DB, ctx *execCtx) (string, error)) consumed {
	ses := db.NewSession()
	ses.LoadAfresh()
	ctx := ctxOf(ses)
	ctx.memo, ctx.journal = ses.newFnMemo(), NewJournal()
	out, err := f(ses, ctx)
	ctx.journal.RollbackAll()
	c := consumed{out: out, err: errText(err), stats: ses.Stats}
	if h := ses.top(); h != (stackTop{}) {
		c.err += fmt.Sprintf(" (the stacks were left at %+v)", h)
	}
	ses.Release()
	return c
}

// consumerForm is one place a query's rows go: the program's consumer
// and the reference's.
type consumerForm struct {
	name      string
	prog, ref func(ses *DB, ctx *execCtx) (string, error)
}

// consumerForms lays out q as every consumer. partner is the other
// operand of the set operator q is an operand of; ctx.vars binds acc, a
// table of q's width with untyped columns, the cursor c over q, and the
// untyped variables v1 … vN a FETCH reads into.
func consumerForms(q, partner sqlast.QueryExpr, cols []string, probe types.Value, op int) []consumerForm {
	cq := q.(sqlast.Stmt) // every query the oracle runs is a statement too
	text := func(v types.Value, err error) (string, error) { return renderValue(v), err }
	truth := func(t types.Tribool, err error) (string, error) { return fmt.Sprint(t), err }
	result := func(res *Result, err error) (string, error) { return renderResult(res), err }
	acc := func(ctx *execCtx) string {
		return renderRows(ctx.vars.getTable("acc").Rows)
	}
	into := make([]string, len(cols))
	lv := make([]sqlast.Expr, len(cols))
	for i, c := range cols {
		into[i] = fmt.Sprintf("v%d", i+1)
		lv[i] = &sqlast.ColumnRef{Table: "lv", Column: c}
	}
	loop := &sqlast.ForStmt{LoopVar: "lv", Query: cq, Body: []sqlast.Stmt{
		&sqlast.InsertStmt{Table: "acc", VarTarget: true, Source: &sqlast.ValuesExpr{Rows: [][]sqlast.Expr{lv}}},
	}}
	fetchAll := func(ctx *execCtx, fetch func() (flow, error)) string {
		var b strings.Builder
		for {
			if _, err := fetch(); err != nil {
				return b.String() + " then " + err.Error()
			}
			for _, name := range into {
				v, _ := ctx.vars.get(name)
				b.WriteString(renderValue(v) + " ")
			}
			b.WriteString("| ")
		}
	}
	exists := &sqlast.ExistsExpr{Sub: q}
	in := &sqlast.InExpr{X: &sqlast.Literal{Val: probe}, Sub: q}
	derived := &sqlast.SelectStmt{Items: []sqlast.SelectItem{{Star: true}},
		From: []sqlast.TableRef{&sqlast.DerivedTable{Query: q, Alias: "d"}}}
	ops := []string{"UNION", "EXCEPT", "INTERSECT"}
	so := &sqlast.SetOpExpr{Op: ops[op%3], All: op%2 == 0, L: q, R: partner}
	if op%4 == 1 {
		so.OrderBy = []sqlast.OrderItem{{Expr: &sqlast.Literal{Val: types.NewInt(1)}}}
	}
	return []consumerForm{
		{"top level",
			func(ses *DB, ctx *execCtx) (string, error) { return result(ses.evalQuery(ctx, q)) },
			func(ses *DB, ctx *execCtx) (string, error) { return result(ses.evalQueryLimited(ctx, q, 0)) }},
		{"scalar subquery",
			func(ses *DB, ctx *execCtx) (string, error) { return text(ses.evalScalarSubquery(ctx, q)) },
			func(ses *DB, ctx *execCtx) (string, error) { return text(ses.refEvalScalarSubquery(ctx, q)) }},
		{"EXISTS",
			func(ses *DB, ctx *execCtx) (string, error) { return truth(binderIn(ctx).cond(exists)(ctx)) },
			func(ses *DB, ctx *execCtx) (string, error) { return truth(ses.refExists(ctx, q, false)) }},
		{"IN",
			func(ses *DB, ctx *execCtx) (string, error) { return truth(binderIn(ctx).cond(in)(ctx)) },
			func(ses *DB, ctx *execCtx) (string, error) { return truth(ses.refIn(ctx, probe, q, false)) }},
		{"FOR",
			func(ses *DB, ctx *execCtx) (string, error) { _, err := ses.execFor(ctx, loop); return acc(ctx), err },
			func(ses *DB, ctx *execCtx) (string, error) { _, err := ses.refExecFor(ctx, loop); return acc(ctx), err }},
		{"OPEN / FETCH",
			func(ses *DB, ctx *execCtx) (string, error) {
				c, err := ctx.vars.cursorNamed("c", false)
				if err == nil {
					err = ses.openCursor(ctx, c)
				}
				if err != nil {
					return "", err
				}
				fetch := &sqlast.FetchStmt{Cursor: "c", Into: into}
				return fetchAll(ctx, func() (flow, error) { return ses.execFetch(ctx, fetch) }), nil
			},
			func(ses *DB, ctx *execCtx) (string, error) {
				c, err := ses.refOpen(ctx, cq)
				if err != nil {
					return "", err
				}
				return fetchAll(ctx, func() (flow, error) { return ses.refFetch(ctx, c, into) }), nil
			}},
		{"derived table",
			func(ses *DB, ctx *execCtx) (string, error) {
				res, err := ses.evalQuery(ctx, derived)
				if res != nil {
					res.Cols = cols // the wrapper's own names; the rows are what is compared
				}
				return result(res, err)
			},
			func(ses *DB, ctx *execCtx) (string, error) { return result(ses.evalQueryLimited(ctx, q, 0)) }},
		{"set operand " + so.SQL(),
			func(ses *DB, ctx *execCtx) (string, error) { return result(ses.evalQuery(ctx, so)) },
			func(ses *DB, ctx *execCtx) (string, error) { return result(ses.refEvalSetOpResult(ctx, so)) }},
	}
}

// checkConsumers runs q through every consumer form, both ways, in the
// contexts ctxOf builds, and returns the divergences. partner is the
// other operand of the set operator q is made an operand of.
func checkConsumers(db *DB, q, partner sqlast.QueryExpr, op int, ctxOf func(*DB) *execCtx) []string {
	// q's columns and first value, as the reference sees them.
	var first *Result
	consume(db, ctxOf, func(ses *DB, ctx *execCtx) (string, error) {
		res, err := ses.evalQueryLimited(ctx, q, 0)
		first = res
		return "", err
	})
	cols, probe := []string{"x"}, types.NewInt(1)
	if first != nil {
		cols = first.Cols
		if len(first.Rows) > 0 && len(first.Rows[0]) > 0 {
			probe = first.Rows[0][0]
		}
	}
	withConsumers := func(ses *DB) *execCtx {
		ctx := ctxOf(ses)
		frame := &varFrame{parent: ctx.vars}
		accCols := make([]storage.Column, len(cols))
		for i := range cols {
			accCols[i] = storage.Column{Name: fmt.Sprintf("c%d", i+1)}
			frame.bind(scalarBinding(fmt.Sprintf("v%d", i+1), types.Null))
		}
		frame.bind(tableBinding("acc", storage.NewTable("acc", storage.NewSchema(accCols))))
		frame.bind(binding{name: "c", slot: slot{kind: bindCursor}, cur: &cursor{query: q.(sqlast.Stmt)}})
		ctx.vars = frame
		return ctx
	}
	var diffs []string
	for _, f := range consumerForms(q, partner, cols, probe, op) {
		got, want := consume(db, withConsumers, f.prog), consume(db, withConsumers, f.ref)
		if d := got.diff(want); d != "" {
			diffs = append(diffs, f.name+": "+d)
		}
	}
	ins := &sqlast.InsertStmt{Table: "acc", VarTarget: true, Source: q}
	if got, want := insertBoth(db, ins, withConsumers); diffInserts(got, want) != "" {
		diffs = append(diffs, "INSERT source: "+diffInserts(got, want))
	}
	return diffs
}

// CheckConsumers runs stmt, when it is a query, through every consumer
// form both ways over the given table variables and reports a
// divergence. It returns whether stmt was a query. The scenario and
// corpus half (package engine_test) calls it with the statements a
// translation executes.
func CheckConsumers(t testing.TB, db *DB, label string, stmt sqlast.Stmt, tables map[string]*storage.Table) bool {
	t.Helper()
	if ts, ok := stmt.(*sqlast.TemporalStmt); ok && ts.Mod == sqlast.ModCurrent {
		stmt = ts.Body
	}
	q, ok := stmt.(sqlast.QueryExpr)
	if !ok {
		return false
	}
	ctxOf := func(ses *DB) *execCtx {
		frame := &varFrame{}
		for name, tab := range tables {
			frame.bind(tableBinding(strings.ToLower(name), tab))
		}
		return &execCtx{db: ses, vars: frame}
	}
	for _, d := range checkConsumers(db, q, q, len(label), ctxOf) {
		t.Errorf("%s\n%s\n%s", label, stmt.SQL(), d)
	}
	return true
}

// TestQueryConsumersEqualReference is the generated half: the SELECTs of
// the pipeline's oracle (selGen), each run as every consumer, with the
// previous one of its width, or itself, as its set operator's partner.
func TestQueryConsumersEqualReference(t *testing.T) {
	db, qs := oracleDB(t)
	g := &selGen{exprGen: newExprGen(t, db.NewSession(), 5, qs), shapes: map[string]int{}}
	prev := map[int]sqlast.QueryExpr{}
	const n = 1500
	for i := 0; i < n && !t.Failed(); i++ {
		width := g.r.Intn(4)
		q := g.selectStmt(width)
		partner := prev[width]
		if partner == nil || g.r.Intn(3) == 0 {
			partner = q
		}
		prev[width] = q
		outerRow := g.row(2)
		vars := [4]types.Value{g.value(), g.value(), g.value(), types.NewDate(14605 + int64(g.r.Intn(12)))}
		ctxOf := func(ses *DB) *execCtx {
			frame := &varFrame{}
			frame.bind(tableBinding("tv", storage.NewTable("tv", storage.NewSchema([]storage.Column{{Name: "z", Type: sqlast.TypeName{Base: "INTEGER"}}}))))
			for k, name := range []string{"vi", "vs", "p", "pd"} {
				frame.bind(scalarBinding(name, vars[k]))
			}
			outer := &rowScope{metas: g.outer.metas, rows: [][]types.Value{outerRow}}
			return &execCtx{db: ses, vars: frame, scope: outer}
		}
		for _, d := range checkConsumers(db, q, partner, g.r.Intn(12), ctxOf) {
			t.Errorf("#%d %s\nouter %v, vi vs p pd = %v\n%s", i, q.SQL(), outerRow, vars, d)
		}
	}
}
