package engine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/temporal"
	"taupsm/internal/types"
)

// The oracle of the tuple-major layout (planTupleMajor): a query whose
// FROM clause opens with the constant-period relation cp and a temporal
// table sliced by it is evaluated over a tiling cp — the table streams,
// cp is range-probed — and over the same periods as Figure 8 leaves them,
// a relation that declares nothing, which runs in FROM order: period
// after period. Both run on sessions that load every source afresh.
// Without an ORDER BY over every column the two return their rows in
// different orders, so the rows are compared as bags; every engine
// counter but the interval probes, which the layout exists to spare, and
// the calls a shared verdict answered, which only the layout shares,
// must be equal — a logical routine call and a memo hit count the same
// whatever the order the calls come in.

// layouts evaluates q with cp bound to a tiling copy of periods, sorted
// (the layout's), and with periods themselves (the reference), in the
// context ctxOf makes for each.
func layouts(db *DB, q sqlast.QueryExpr, periods *storage.Table, ctxOf func(ses *DB, cp *storage.Table) *execCtx) (got, want outcome) {
	eval := func(cp *storage.Table) outcome {
		ses := db.NewSession()
		ses.LoadAfresh()
		ctx := ctxOf(ses, cp)
		ctx.memo, ctx.journal = ses.newFnMemo(), NewJournal()
		var o outcome
		o.res, o.err = ses.evalQueryLimited(ctx, q, 0)
		ctx.journal.RollbackAll()
		o.stats = ses.Stats
		return o
	}
	return eval(tiledCopy(periods)), eval(periods)
}

// tiledCopy returns periods, sorted, as a tiling relation: the layout's.
func tiledCopy(periods *storage.Table) *storage.Table {
	tiled := storage.NewTable(periods.Name, periods.Schema)
	tiled.Rows, tiled.Temporary, tiled.Tiling = slices.Clone(periods.Rows), true, true
	slices.SortFunc(tiled.Rows, func(a, b []types.Value) int { return cmp.Compare(a[0].I, b[0].I) }) // Figure 8's come in any order
	return tiled
}

// diffLayouts describes how the layout's outcome departs from the
// reference's, "" when it does not. Which row raises first depends on
// the order the rows come in: that both raise is all that is compared.
func diffLayouts(got, want outcome) string {
	switch {
	case (got.err == nil) != (want.err == nil):
		return fmt.Sprintf("tuple-major: %v\nFROM order: %v", got.err, want.err)
	case got.err != nil:
		return ""
	}
	bag := func(r *Result) []string {
		rows := rowsText(r)
		slices.Sort(rows)
		return rows
	}
	if g, w := bag(got.res), bag(want.res); fmt.Sprint(got.res.Cols, g) != fmt.Sprint(want.res.Cols, w) {
		return fmt.Sprintf("rows %v %v\nFROM order %v %v", got.res.Cols, g, want.res.Cols, w)
	}
	g, w := got.stats, want.stats
	g.IntervalProbes, w.IntervalProbes = 0, 0
	g.ReusedCalls, w.ReusedCalls = 0, 0
	if g != w {
		return fmt.Sprintf("counters %+v\nFROM order %+v", got.stats, want.stats)
	}
	return ""
}

// CheckLayouts compares the layouts on stmt, when it is a query of a MAX
// translation whose Figure-8 setup has left the catalog table taupsm_cp:
// the reference reads it, the layout a tiling copy bound as a table
// variable. It reports whether it compared.
func CheckLayouts(t testing.TB, db *DB, label string, stmt sqlast.Stmt, _ map[string]*storage.Table) bool {
	t.Helper()
	q, ok := stmt.(sqlast.QueryExpr)
	cp := db.Cat.Table("taupsm_cp")
	if !ok || cp == nil {
		return false
	}
	got, want := layouts(db, q, cp, func(ses *DB, bound *storage.Table) *execCtx {
		frame := &varFrame{}
		if bound != cp {
			frame.bind(tableBinding("taupsm_cp", bound))
		}
		return &execCtx{db: ses, vars: frame}
	})
	if d := diffLayouts(got, want); d != "" {
		t.Errorf("%s (%d periods)\n%s\n%s", label, len(cp.Rows), stmt.SQL(), d)
	}
	return true
}

// The generated half: the pipeline oracle's SELECTs (selGen), each
// behind cp and the valid-time table h sliced at cp.begin_time, over the
// constant periods of h.
func TestTupleMajorEqualsPeriodMajor(t *testing.T) {
	db, qs := oracleDB(t)
	periods := periodsOf(db.Cat.Table("h"))
	g := &selGen{exprGen: newExprGen(t, db.NewSession(), 37, qs), shapes: map[string]int{}}
	compared, raised, spared := 0, 0, 0
	for i := 0; compared < 300; i++ {
		sel, ctxOf, binds := slicedSelect(g)
		got, want := layouts(db, sel, periods, ctxOf)
		if d := diffLayouts(got, want); d != "" {
			t.Fatalf("#%d %s\n%s\n%s", i, sel.SQL(), binds, d)
		}
		compared++
		if want.err != nil {
			raised++
		} else if got.stats.IntervalProbes < want.stats.IntervalProbes {
			spared++
		}
	}
	if raised > compared*3/4 || spared < compared/4 {
		t.Errorf("%d compared, %d raised, %d spared interval probes: the layout was hardly exercised", compared, raised, spared)
	}
	t.Logf("%d compared (%d raised, %d spared probes) over %d periods", compared, raised, spared, len(periods.Rows))
}

// periodsOf returns the constant periods of h's rows within days
// 14400–14800, as Figure 8 leaves them: a taupsm_cp that is not tiling.
func periodsOf(h *storage.Table) *storage.Table {
	var points []int64
	for _, row := range h.Rows {
		points = append(points, row[h.BeginCol()].I, row[h.EndCol()].I)
	}
	periods := storage.NewTable("taupsm_cp", storage.NewSchema([]storage.Column{
		{Name: "begin_time", Type: sqlast.TypeName{Base: "DATE"}},
		{Name: "end_time", Type: sqlast.TypeName{Base: "DATE"}},
	}))
	for _, p := range temporal.ConstantPeriods(points, temporal.Period{Begin: 14400, End: 14800}) {
		periods.Rows = append(periods.Rows, []types.Value{types.NewDate(p.Begin), types.NewDate(p.End)})
	}
	return periods
}

// slicedSelect generates one of the pipeline oracle's SELECTs behind cp
// and h sliced at cp.begin_time, and the context it runs in for a
// session with cp bound to a relation: the outer row and the variables
// it reads, which binds describes.
func slicedSelect(g *selGen) (sel *sqlast.SelectStmt, ctxOf func(ses *DB, cp *storage.Table) *execCtx, binds string) {
	sel = g.selectStmt(g.r.Intn(4))
	sel.Limit = nil // which rows a limit keeps depends on their order
	sel.From = append([]sqlast.TableRef{&sqlast.BaseTable{Name: "taupsm_cp", Alias: "cp"}, &sqlast.BaseTable{Name: "h", Alias: "hh"}}, sel.From...)
	at := col("cp", "begin_time")
	sel.Where = and(bin("<=", col("hh", "begin_time"), at), bin("<", at, col("hh", "end_time")), sel.Where)
	outerRow := g.row(2)
	vars := [4]types.Value{g.value(), g.value(), g.value(), types.NewDate(14605 + int64(g.r.Intn(12)))}
	return sel, func(ses *DB, cp *storage.Table) *execCtx {
		frame := &varFrame{}
		frame.bind(tableBinding("taupsm_cp", cp))
		frame.bind(tableBinding("tv", storage.NewTable("tv", storage.NewSchema([]storage.Column{{Name: "z", Type: sqlast.TypeName{Base: "INTEGER"}}}))))
		for k, name := range []string{"vi", "vs", "p", "pd"} {
			frame.bind(scalarBinding(name, vars[k]))
		}
		return &execCtx{db: ses, vars: frame, scope: &rowScope{metas: g.outer.metas, rows: [][]types.Value{outerRow}}}
	}, fmt.Sprintf("outer %v, vi vs p pd = %v", outerRow, vars)
}

// The layout applies to the native cp only: a relation that is not
// marked tiling, or holds one period, keeps FROM order, and so does a
// table variable whose pair names another column.
func TestTupleMajorNeedsATilingRelation(t *testing.T) {
	db, _ := oracleDB(t)
	periods := storage.NewTable("taupsm_cp", storage.NewSchema([]storage.Column{
		{Name: "begin_time", Type: sqlast.TypeName{Base: "DATE"}},
		{Name: "end_time", Type: sqlast.TypeName{Base: "DATE"}},
	}))
	for _, p := range [][2]int64{{14600, 14610}, {14610, 14611}, {14611, 14612}} {
		periods.Rows = append(periods.Rows, []types.Value{types.NewDate(p[0]), types.NewDate(p[1])})
	}
	probes := func(src string, cp *storage.Table) int64 {
		ses := db.NewSession()
		ses.LoadAfresh()
		frame := &varFrame{}
		frame.bind(tableBinding("taupsm_cp", cp))
		ctx := &execCtx{db: ses, vars: frame, memo: ses.newFnMemo(), journal: NewJournal()}
		if _, err := ses.evalQueryLimited(ctx, parseStmt(t, src).(sqlast.QueryExpr), 0); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return ses.Stats.IntervalProbes
	}
	tiled := storage.NewTable(periods.Name, periods.Schema)
	tiled.Rows, tiled.Tiling = periods.Rows, true
	one := storage.NewTable(periods.Name, periods.Schema)
	one.Rows, one.Tiling = periods.Rows[:1], true
	const sliced = `SELECT cp.begin_time, h.k FROM taupsm_cp cp, h WHERE h.begin_time <= cp.begin_time AND cp.begin_time < h.end_time`
	for _, tc := range []struct {
		src    string
		cp     *storage.Table
		probes int64
	}{
		{sliced, tiled, 1},   // one span probe drives h
		{sliced, periods, 3}, // a stab per period
		{sliced, one, 1},     // one period: FROM order
		{strings.Replace(sliced, "cp.begin_time < h.end_time", "cp.end_time < h.end_time", 1), tiled, 0}, // no pair on the sorted column: FROM order, and no stab either
	} {
		if got := probes(tc.src, tc.cp); got != tc.probes {
			t.Errorf("%s over %d periods (tiling %v): %d interval probes, want %d", tc.src, len(tc.cp.Rows), tc.cp.Tiling, got, tc.probes)
		}
	}
}
