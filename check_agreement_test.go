package taupsm_test

// Agreement tests: internal/check statically reimplements two engine
// analyses — routine purity (the function-result memo gate) and
// parallel chunk safety (the MAX fragment-worker gate). Both engine
// paths now delegate to the analyzer; these tests keep verbatim copies
// of the legacy inline walkers they replaced and assert the analyzer
// agrees with them on every routine and every query of the 16-query
// benchmark corpus.

import (
	"strings"
	"testing"

	"taupsm"
	"taupsm/internal/core"
	"taupsm/internal/enginetest"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/storage"
	"taupsm/internal/taubench"
	"taupsm/internal/wal"
)

// legacyPure is the engine's pre-analyzer purity walker, verbatim
// except that the sync.Map cache became a plain map: provisionally
// impure on entry (recursion resolves to impure), DML against stored
// tables and any DDL impure, callees resolved through the catalog.
func legacyPure(cat *storage.Catalog, r *storage.Routine, memo map[*storage.Routine]bool) bool {
	if v, ok := memo[r]; ok {
		return v
	}
	memo[r] = false
	pure := true
	sqlast.Walk(r.Body(), func(m sqlast.Node) bool {
		if !pure {
			return false
		}
		switch x := m.(type) {
		case *sqlast.InsertStmt:
			if cat.Table(x.Table) != nil {
				pure = false
			}
		case *sqlast.UpdateStmt:
			if cat.Table(x.Table) != nil {
				pure = false
			}
		case *sqlast.DeleteStmt:
			if cat.Table(x.Table) != nil {
				pure = false
			}
		case *sqlast.CreateTableStmt, *sqlast.DropTableStmt,
			*sqlast.CreateViewStmt, *sqlast.DropViewStmt,
			*sqlast.CreateFunctionStmt, *sqlast.CreateProcedureStmt,
			*sqlast.DropRoutineStmt, *sqlast.AlterAddValidTime:
			pure = false
		case *sqlast.FuncCall:
			if r2 := cat.Routine(x.Name); r2 != nil && !legacyPure(cat, r2, memo) {
				pure = false
			}
		case *sqlast.CallStmt:
			if r2 := cat.Routine(x.Name); r2 != nil && !legacyPure(cat, r2, memo) {
				pure = false
			}
		}
		return pure
	})
	memo[r] = pure
	return pure
}

// legacyParallelSafe is the stratum's pre-analyzer chunk-safety
// walker, verbatim: top-level ORDER BY / FETCH FIRST unsafe, then a
// write-freedom walk over the main statement and every reachable
// routine, translation-local clones resolved before the catalog.
func legacyParallelSafe(cat *storage.Catalog, t *core.Translation) bool {
	q, ok := t.Main.(sqlast.QueryExpr)
	if !ok || !legacyChunkOrderSafe(q) {
		return false
	}
	local := map[string]sqlast.Stmt{}
	for _, r := range t.Routines {
		switch x := r.(type) {
		case *sqlast.CreateFunctionStmt:
			local[strings.ToLower(x.Name)] = x.Body
		case *sqlast.CreateProcedureStmt:
			local[strings.ToLower(x.Name)] = x.Body
		}
	}
	seen := map[string]bool{}
	safe := true
	var checkNode func(n sqlast.Node)
	visitRoutine := func(name string) {
		k := strings.ToLower(name)
		if seen[k] {
			return
		}
		seen[k] = true
		if body, ok := local[k]; ok {
			checkNode(body)
			return
		}
		if r := cat.Routine(name); r != nil {
			checkNode(r.Body())
		}
	}
	checkNode = func(n sqlast.Node) {
		sqlast.Walk(n, func(m sqlast.Node) bool {
			if !safe {
				return false
			}
			switch x := m.(type) {
			case *sqlast.InsertStmt:
				if cat.Table(x.Table) != nil {
					safe = false
				}
			case *sqlast.UpdateStmt:
				if cat.Table(x.Table) != nil {
					safe = false
				}
			case *sqlast.DeleteStmt:
				if cat.Table(x.Table) != nil {
					safe = false
				}
			case *sqlast.CreateTableStmt, *sqlast.DropTableStmt,
				*sqlast.CreateViewStmt, *sqlast.DropViewStmt,
				*sqlast.CreateFunctionStmt, *sqlast.CreateProcedureStmt,
				*sqlast.DropRoutineStmt:
				safe = false
			case *sqlast.FuncCall:
				visitRoutine(x.Name)
			case *sqlast.CallStmt:
				visitRoutine(x.Name)
			}
			return safe
		})
	}
	checkNode(t.Main)
	return safe
}

func legacyChunkOrderSafe(q sqlast.QueryExpr) bool {
	switch x := q.(type) {
	case *sqlast.SelectStmt:
		return len(x.OrderBy) == 0 && x.Limit == nil
	case *sqlast.SetOpExpr:
		if len(x.OrderBy) > 0 {
			return false
		}
		return legacyChunkOrderSafe(x.L) && legacyChunkOrderSafe(x.R)
	case *sqlast.ValuesExpr:
		return true
	}
	return false
}

// purityUpgrades are the corpus routines (and, by prefix, their
// generated curr_/max_/ps_ clones) the effect summary proves free of
// shared writes where the legacy walker, which calls any DDL impure,
// refused: their only DDL and DML is on a temporary table they create
// for themselves. Any other divergence is a bug.
var purityUpgrades = map[string]bool{
	"count_subject_books": true, // q11
}

func purityUpgraded(name string) bool {
	for _, prefix := range []string{"", "curr_", "max_", "ps_"} {
		if rest, ok := strings.CutPrefix(strings.ToLower(name), prefix); ok && purityUpgrades[rest] {
			return true
		}
	}
	return false
}

func TestStaticPurityAgreesWithEngine(t *testing.T) {
	upgraded := map[string]bool{}
	for _, q := range taubench.Queries() {
		t.Run(q.Name, func(t *testing.T) {
			e := enginetest.CorpusEngine(t, q.Routines)
			// The clones too: they are what a sequenced statement runs.
			db := taupsm.Open()
			db.MustExec(taubench.Schema)
			db.MustExec(q.Routines)
			stmt, err := sqlparser.ParseStatement("VALIDTIME " + q.Text)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			for _, strategy := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
				tr, err := db.TranslateStmt(stmt, strategy)
				if err != nil {
					continue // q17b under PERST
				}
				for _, r := range tr.Routines {
					if _, err := e.ExecStmt(r); err != nil {
						t.Fatalf("register clone: %v", err)
					}
				}
			}
			memo := map[*storage.Routine]bool{}
			for _, name := range e.Cat.RoutineNames() {
				want := legacyPure(e.Cat, e.Cat.Routine(name), memo)
				got := e.RoutinePure(name)
				switch {
				case got == want:
				case got && !want && purityUpgraded(name):
					upgraded[strings.ToLower(name)] = true
				default:
					t.Errorf("%s: static purity %v, legacy walker %v", name, got, want)
				}
			}
		})
	}
	for name := range purityUpgrades {
		if !upgraded[name] || !upgraded["ps_"+name] {
			t.Errorf("%s: expected the effect summary to find it and its ps_ clone memoizable (got %v)", name, upgraded)
		}
	}
}

// frameLocalUpgrades are the corpus queries whose only writes the
// effect summary proves frame-local (temporary tables a routine
// creates for itself), making them parallel-eligible where the legacy
// write-freedom walker refused. Any other divergence is a bug.
var frameLocalUpgrades = map[string]bool{
	"q11": true, // count_subject_books stages rows in its own temp table
}

func TestStaticParallelSafetyAgreesWithEngine(t *testing.T) {
	upgraded := map[string]bool{}
	for _, q := range taubench.Queries() {
		t.Run(q.Name, func(t *testing.T) {
			db := taupsm.Open()
			db.MustExec(taubench.Schema)
			if strings.TrimSpace(q.Routines) != "" {
				db.MustExec(q.Routines)
			}
			stmt, err := sqlparser.ParseStatement("VALIDTIME " + q.Text)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			tr, err := db.TranslateStmt(stmt, taupsm.Max)
			if err != nil {
				t.Fatalf("translate: %v", err)
			}
			// The legacy walker reads the catalog directly; mirror the
			// database's catalog state in a bare engine.
			e := enginetest.CorpusEngine(t, q.Routines)
			want := legacyParallelSafe(e.Cat, tr)
			got := db.ParallelSafe(tr)
			switch {
			case got == want:
			case got && !want && frameLocalUpgrades[q.Name]:
				upgraded[q.Name] = true
			default:
				t.Errorf("%s: static parallel safety %v, legacy walker %v", q.Name, got, want)
			}
		})
	}
	for name := range frameLocalUpgrades {
		if !upgraded[name] {
			t.Errorf("%s: expected the effect summary to upgrade it to parallel-eligible", name)
		}
	}
}

// TestFrameLocalUpgradeResultsAgree proves the upgraded queries are not
// just eligible but correct: serial, parallel, persistent, and
// recovered executions all return the same rows, and the parallel runs
// really take the fragment-worker path.
func TestFrameLocalUpgradeResultsAgree(t *testing.T) {
	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}

	serial := taupsm.Open()
	enginetest.LoadCorpus(t, serial, spec)
	serial.SetStrategy(taupsm.Max)
	serial.SetParallelism(1)

	par := taupsm.Open()
	enginetest.LoadCorpus(t, par, spec)
	par.SetStrategy(taupsm.Max)
	par.SetParallelism(4)

	fs := wal.NewMemFS()
	per, err := taupsm.OpenFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	enginetest.LoadCorpus(t, per, spec)
	per.SetStrategy(taupsm.Max)
	per.SetParallelism(4)

	for _, q := range taubench.Queries() {
		if !frameLocalUpgrades[q.Name] {
			continue
		}
		sql := taubench.SequencedSQL(q, 30)
		want, err := serial.Query(sql)
		if err != nil {
			t.Fatalf("%s serial: %v", q.Name, err)
		}
		for name, db := range map[string]*taupsm.DB{"parallel": par, "persistent": per} {
			got, err := db.Query(sql)
			if err != nil {
				t.Fatalf("%s %s: %v", q.Name, name, err)
			}
			if w, g := enginetest.SortedRows(want), enginetest.SortedRows(got); w != g {
				t.Errorf("%s: %s execution diverges from serial\n--- serial\n%s\n--- %s\n%s", q.Name, name, w, name, g)
			}
		}
	}
	if par.Metrics().Value("stratum.parallel.statements_total") == 0 {
		t.Fatal("upgraded queries never took the parallel path")
	}

	// Recovery: the frame-local temp tables must not have leaked into
	// the persistent catalog, and the recovered database must still
	// produce the same rows, still in parallel.
	if err := per.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	per.Close()
	rec, err := taupsm.OpenFS(fs.CrashImage())
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	rec.SetNow(2011, 1, 1)
	rec.SetStrategy(taupsm.Max)
	rec.SetParallelism(4)
	for _, q := range taubench.Queries() {
		if !frameLocalUpgrades[q.Name] {
			continue
		}
		sql := taubench.SequencedSQL(q, 30)
		want, err := serial.Query(sql)
		if err != nil {
			t.Fatalf("%s serial: %v", q.Name, err)
		}
		got, err := rec.Query(sql)
		if err != nil {
			t.Fatalf("%s recovered: %v", q.Name, err)
		}
		if w, g := enginetest.SortedRows(want), enginetest.SortedRows(got); w != g {
			t.Errorf("%s: recovered execution diverges from serial\n--- serial\n%s\n--- recovered\n%s", q.Name, w, g)
		}
	}
	if rec.Metrics().Value("stratum.parallel.statements_total") == 0 {
		t.Fatal("recovered database never took the parallel path")
	}
}
