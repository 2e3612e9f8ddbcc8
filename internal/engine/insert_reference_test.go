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

// The oracle of the INSERT path (eval_dml.go): a statement is run by the
// program, which adopts its source's rows as the target's, and by the
// INSERT the program replaced, kept below verbatim as the reference,
// which copies each row into a fresh one and journals an undo closure
// per row. Each run is on a session that loads every source afresh and
// under a journal of its own, rolled back afterwards; the two must leave
// the same target rows in the same order, report the same count, raise
// the same error text, count the same work and journal the same redo
// effects — and each rollback must restore the target.

// refExecInsert is the reference INSERT.
func (db *DB) refExecInsert(ctx *execCtx, s *sqlast.InsertStmt) (*Result, error) {
	t, err := db.resolveTarget(ctx, s.Table, s.VarTarget)
	if err != nil {
		return nil, err
	}
	src, err := db.evalQuery(ctx, s.Source)
	if err != nil {
		return nil, err
	}
	// column mapping
	ncols := len(t.Schema.Cols)
	mapping := make([]int, 0, ncols) // target ordinal for each source column
	if len(s.Cols) > 0 {
		for _, c := range s.Cols {
			ord := t.Schema.Index(c)
			if ord < 0 {
				return nil, fmt.Errorf("table %s has no column %s", t.Name, c)
			}
			mapping = append(mapping, ord)
		}
	} else {
		for i := 0; i < ncols; i++ {
			mapping = append(mapping, i)
		}
	}
	if len(src.Cols) != len(mapping) {
		return nil, fmt.Errorf("INSERT into %s supplies %d values for %d columns",
			t.Name, len(src.Cols), len(mapping))
	}
	l := db.dmlLogFor(ctx, t)
	for _, row := range src.Rows {
		nr := make([]types.Value, ncols)
		for i, ord := range mapping {
			v, err := coerce(row[i], t.Schema.Cols[ord].Type)
			if err != nil {
				return nil, fmt.Errorf("column %s of %s: %w", t.Schema.Cols[ord].Name, t.Name, err)
			}
			nr[ord] = v
		}
		if err := t.Insert(nr); err != nil {
			return nil, err
		}
		l.refInsert(nr)
		db.wrote(l)
	}
	db.Stats.LogWrites += int64(len(src.Rows))
	return &Result{Affected: len(src.Rows)}, nil
}

// refInsert journals a row just appended by Table.Insert (it must be the
// last row): the reference's undo closure per row.
func (l dmlLog) refInsert(row []types.Value) {
	if l.j == nil {
		return
	}
	t := l.t
	idx := len(t.Rows) - 1
	var redo *storage.Effect
	if l.redo {
		redo = &storage.Effect{Kind: storage.EffInsert, Name: t.Name, Row: cloneRow(row)}
	}
	l.j.record(func() {
		t.Rows = append(t.Rows[:idx], t.Rows[idx+1:]...)
		t.Bump()
	}, redo)
}

// insertOutcome is what one run of an INSERT leaves behind.
type insertOutcome struct {
	rows     string // the target's rows after the statement, every field of every value
	affected int
	err      string
	stats    Stats
	effects  string
	restored bool // the rollback left the target's rows as they were
}

// insertBoth runs s through the program and through the reference, each
// in the context ctxOf builds on the session it is handed.
func insertBoth(db *DB, s *sqlast.InsertStmt, ctxOf func(*DB) *execCtx) (got, want insertOutcome) {
	run := func(reference bool) insertOutcome {
		ses := db.NewSession()
		ses.LoadAfresh()
		ctx := ctxOf(ses)
		ctx.memo, ctx.journal = ses.newFnMemo(), NewJournal()
		target := func() string {
			if t, err := ses.resolveTarget(ctx, s.Table, s.VarTarget); err == nil {
				return fmt.Sprint(t.Rows)
			}
			return "(none)"
		}
		before := target()
		var o insertOutcome
		var err error
		if reference {
			var res *Result
			if res, err = ses.refExecInsert(ctx, s); res != nil {
				o.affected = res.Affected
			}
		} else {
			o.affected, err = ses.execInsert(ctx, s)
		}
		o.rows, o.err, o.stats, o.effects = target(), errText(err), ses.Stats, fmt.Sprint(ctx.journal.Effects())
		ctx.journal.RollbackAll()
		o.restored = target() == before
		return o
	}
	return run(false), run(true)
}

// diffInserts describes how the program's outcome departs from the
// reference's, "" when it does not.
func diffInserts(got, want insertOutcome) string {
	switch {
	case got.err != want.err:
		return fmt.Sprintf("program: %s\nreference: %s", got.err, want.err)
	case got.rows != want.rows:
		return fmt.Sprintf("target %s\nreference %s", got.rows, want.rows)
	case got.affected != want.affected:
		return fmt.Sprintf("%d rows affected, reference %d", got.affected, want.affected)
	case got.stats != want.stats:
		return fmt.Sprintf("stats %+v\nreference %+v", got.stats, want.stats)
	case got.effects != want.effects:
		return fmt.Sprintf("effects %s\nreference %s", got.effects, want.effects)
	case !got.restored || !want.restored:
		return fmt.Sprintf("rollback restored the target: program %t, reference %t", got.restored, want.restored)
	}
	return ""
}

// CheckInsert runs stmt, when it is an INSERT, through the program and the
// reference over the given table variables and reports a divergence. It
// returns whether stmt was an INSERT. The scenario and corpus halves of
// the oracle (package engine_test, which may import the stratum) call it
// with the statements a translation executes.
func CheckInsert(t testing.TB, db *DB, label string, stmt sqlast.Stmt, tables map[string]*storage.Table) bool {
	t.Helper()
	if ts, ok := stmt.(*sqlast.TemporalStmt); ok && ts.Mod == sqlast.ModCurrent {
		stmt = ts.Body
	}
	s, ok := stmt.(*sqlast.InsertStmt)
	if !ok {
		return false
	}
	got, want := insertBoth(db, s, func(ses *DB) *execCtx {
		frame := &varFrame{}
		for name, tab := range tables {
			frame.bind(tableBinding(strings.ToLower(name), tab))
		}
		return &execCtx{db: ses, vars: frame}
	})
	if d := diffInserts(got, want); d != "" {
		t.Errorf("%s\n%s\n%s", label, stmt.SQL(), d)
	}
	return true
}

// CheckRoutineInserts runs every INSERT of every stored routine — the
// statements PERST's collection variables are filled by — through the
// program and the reference as a statement of its own: in a frame that
// declares the routine's parameters and variables, its collections empty
// and its scalars drawn from the database, a few times over. It returns
// the number of runs compared.
func CheckRoutineInserts(t testing.TB, db *DB, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
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
		var decls []*sqlast.VarDecl
		var inserts []*sqlast.InsertStmt
		sqlast.Walk(r.Body(), func(nd sqlast.Node) bool {
			switch x := nd.(type) {
			case *sqlast.CompoundStmt:
				decls = append(decls, x.VarDecls...)
			case *sqlast.InsertStmt:
				inserts = append(inserts, x)
			}
			return true
		})
		for _, s := range inserts {
			for try := 0; try < 4; try++ {
				frame := &varFrame{}
				declare := func(name string, ty *sqlast.TypeName) {
					if err := frame.declare(name, strings.ToLower(name), ty, draw(*ty)); err != nil {
						t.Fatal(err)
					}
				}
				params := r.Params()
				for i := range params {
					declare(params[i].Name, &params[i].Type)
				}
				for _, d := range decls {
					for _, v := range d.Names {
						declare(v, &d.Type)
					}
				}
				got, want := insertBoth(db, s, func(ses *DB) *execCtx { return &execCtx{db: ses, vars: frame, depth: 1} })
				if d := diffInserts(got, want); d != "" {
					t.Errorf("routine %s: %s\n%s", name, s.SQL(), d)
				}
				n++
			}
		}
	}
	return n
}

// TestInsertEqualsReference is the generated half of the INSERT oracle:
// INSERT … SELECT over the pipeline oracle's generated SELECTs (joins, table
// functions, GROUP BY, DISTINCT, ORDER BY, FETCH FIRST, set operators,
// raising expressions), INSERT … VALUES, and sources that read the target
// itself, into a stored table, a temporary table and a collection
// variable whose columns the source supplies in order, permuted by a
// column list, or only in part, with coercions between every pair of
// kinds (INTEGER → FLOAT, strings → DATE, which may raise, …).
func TestInsertEqualsReference(t *testing.T) {
	db, qs := oracleDB(t)
	g := &selGen{exprGen: newExprGen(t, db.NewSession(), 7, qs), shapes: map[string]int{}}
	kinds := []string{"INTEGER", "FLOAT", "VARCHAR(12)", "DATE"}
	shapes := map[string]int{}
	raised := 0
	const runs = 3000
	for i := 0; i < runs && !t.Failed(); i++ {
		// The target: the source's width, and up to two columns more,
		// which a column list then leaves out.
		width := 1 + g.r.Intn(3)
		extra := g.r.Intn(3)
		cols := make([]storage.Column, width+extra)
		for k := range cols {
			cols[k] = storage.Column{Name: fmt.Sprint("x", k), Type: sqlast.TypeName{Base: g.pick(kinds...)}}
		}
		tgt := storage.NewTable("tgt", storage.NewSchema(cols))
		for k := g.r.Intn(4); k > 0; k-- {
			row := g.row(len(cols))
			for j, v := range row {
				if cv, err := coerce(v, cols[j].Type); err == nil {
					row[j] = cv
				} else {
					row[j] = types.Null
				}
			}
			tgt.Insert(row)
		}
		s := &sqlast.InsertStmt{Table: "tgt"}
		kind := g.pick("stored", "temporary", "collection")
		shapes[kind]++
		switch kind {
		case "temporary":
			tgt.Temporary = true
			fallthrough
		case "stored":
			db.Cat.PutTable(tgt)
		case "collection":
			s.VarTarget = true
		}
		if extra > 0 || g.r.Intn(3) == 0 {
			perm := g.r.Perm(len(cols))[:width]
			for _, k := range perm {
				s.Cols = append(s.Cols, cols[k].Name)
			}
			if extra > 0 {
				shapes["missing columns"]++
			} else {
				shapes["column list"]++
			}
		}
		switch k := g.r.Intn(10); {
		case k < 2:
			shapes["values"]++
			v := &sqlast.ValuesExpr{}
			for n := 1 + g.r.Intn(3); n > 0; n-- {
				var row []sqlast.Expr
				for j := 0; j < width; j++ {
					e := sqlast.Expr(&sqlast.Literal{Val: g.value()})
					if g.r.Intn(8) == 0 {
						e = bin("/", lit(1), lit(int64(g.r.Intn(2))))
					}
					row = append(row, e)
				}
				v.Rows = append(v.Rows, row)
			}
			s.Source = v
		case k < 4:
			shapes["self-reading"]++
			sel := &sqlast.SelectStmt{From: []sqlast.TableRef{&sqlast.BaseTable{Name: "tgt", Alias: "o2"}}}
			for _, k := range g.r.Perm(len(cols))[:width] {
				sel.Items = append(sel.Items, sqlast.SelectItem{Expr: col("o2", cols[k].Name)})
			}
			if g.r.Intn(2) == 0 {
				sel.OrderBy = []sqlast.OrderItem{{Expr: lit(1), Desc: g.r.Intn(2) == 0}}
			}
			s.Source = sel
		default:
			var q sqlast.QueryExpr = g.selectStmt(width)
			if g.r.Intn(8) == 0 {
				shapes["set operator"]++
				q = &sqlast.SetOpExpr{Op: g.pick("UNION", "EXCEPT", "INTERSECT"), All: g.r.Intn(2) == 0, L: q, R: g.selectStmt(width)}
			}
			s.Source = q
		}
		outerRow := g.row(2)
		vars := [4]types.Value{g.value(), g.value(), g.value(), types.NewDate(14605 + int64(g.r.Intn(12)))}
		got, want := insertBoth(db, s, func(ses *DB) *execCtx {
			frame := &varFrame{}
			frame.bind(tableBinding("tv", storage.NewTable("tv", storage.NewSchema([]storage.Column{{Name: "z", Type: sqlast.TypeName{Base: "INTEGER"}}}))))
			if s.VarTarget {
				frame.bind(tableBinding("tgt", tgt))
			}
			for k, name := range []string{"vi", "vs", "p", "pd"} {
				frame.bind(binding{name: name, kind: bindScalar, val: vars[k]})
			}
			return &execCtx{db: ses, vars: frame, scope: &rowScope{metas: g.outer.metas, rows: [][]types.Value{outerRow}}}
		})
		if want.err != "" {
			raised++
		}
		if d := diffInserts(got, want); d != "" {
			t.Fatalf("#%d %s: %s\nouter %v, vi vs p pd = %v\n%s", i, kind, s.SQL(), outerRow, vars, d)
		}
		db.Cat.DropTable("tgt")
	}
	for _, shape := range []string{"stored", "temporary", "collection", "values", "self-reading", "set operator", "column list", "missing columns"} {
		if shapes[shape] < runs/50 {
			t.Errorf("only %d statements of shape %q", shapes[shape], shape)
		}
	}
	if raised < runs/10 || raised > runs*3/4 {
		t.Errorf("%d of %d statements raised: the generator should exercise rows and errors alike", raised, runs)
	}
	t.Logf("%d statements (%d raised): %v, sources %v", runs, raised, shapes, g.shapes)
}
