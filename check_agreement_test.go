package taupsm_test

// Agreement tests: the effect summary replaced two inline walkers —
// routine purity (the function-result memo gate) and the write-freedom
// of a translation's main statement. These tests keep verbatim copies
// of the legacy walkers and assert the summary agrees with them on
// every routine and every query of the 16-query benchmark corpus.

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

// legacyWriteFree is the write-freedom half of the stratum's pre-analyzer
// parallel gate, verbatim: a walk over the main statement and every
// reachable routine, translation-local clones resolved before the catalog.
func legacyWriteFree(cat *storage.Catalog, t *core.Translation) bool {
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
// creates for itself), making them free of shared writes where the
// legacy write-freedom walker refused. Any other divergence is a bug.
var frameLocalUpgrades = map[string]bool{
	"q11": true, // count_subject_books stages rows in its own temp table
}

// audited is one input beside the corpus, none of whose routines writes
// a stored table: a function that logs into one, so the summary must
// carry a callee's shared write to the statement to agree.
var audited = taubench.Query{Name: "audited", Text: `SELECT audited_title(item_id) FROM item`, Routines: `
CREATE TABLE audit (id CHAR(10));
CREATE FUNCTION audited_title (iid CHAR(10)) RETURNS CHAR(100)
BEGIN
  INSERT INTO audit VALUES (iid);
  RETURN (SELECT title FROM item WHERE item_id = iid);
END;`}

// TestStaticParallelSafetyAgreesWithEngine holds the summary of each
// corpus query's MAX translation, and of audited's, to the legacy
// write-freedom walk. It keeps the name it had while the same verdict
// gated parallel MAX.
func TestStaticParallelSafetyAgreesWithEngine(t *testing.T) {
	upgraded := map[string]bool{}
	for _, q := range append(taubench.Queries(), audited) {
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
			want := legacyWriteFree(e.Cat, tr)
			got := db.MainSummary(tr).SharedWriteFree()
			if q.Name == audited.Name && want {
				t.Fatal("the legacy walker misses audited's write")
			}
			switch {
			case got == want:
			case got && !want && frameLocalUpgrades[q.Name]:
				upgraded[q.Name] = true
			default:
				t.Errorf("%s: summary write-free %v, legacy walker %v", q.Name, got, want)
			}
		})
	}
	for name := range frameLocalUpgrades {
		if !upgraded[name] {
			t.Errorf("%s: expected the effect summary to find it free of shared writes", name)
		}
	}
}

// TestFrameLocalUpgradeResultsAgree proves the upgraded queries are
// correct: in-memory, persistent, and recovered executions all return
// the same rows.
func TestFrameLocalUpgradeResultsAgree(t *testing.T) {
	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}

	mem := taupsm.Open()
	enginetest.LoadCorpus(t, mem, spec)
	mem.SetStrategy(taupsm.Max)

	fs := wal.NewMemFS()
	per, err := taupsm.OpenFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	enginetest.LoadCorpus(t, per, spec)
	per.SetStrategy(taupsm.Max)

	for _, q := range taubench.Queries() {
		if !frameLocalUpgrades[q.Name] {
			continue
		}
		sql := taubench.SequencedSQL(q, 30)
		want, err := mem.Query(sql)
		if err != nil {
			t.Fatalf("%s in memory: %v", q.Name, err)
		}
		got, err := per.Query(sql)
		if err != nil {
			t.Fatalf("%s persistent: %v", q.Name, err)
		}
		if w, g := enginetest.SortedRows(want), enginetest.SortedRows(got); w != g {
			t.Errorf("%s: persistent execution diverges from in-memory\n--- in memory\n%s\n--- persistent\n%s", q.Name, w, g)
		}
	}

	// Recovery: the frame-local temp tables must not have leaked into
	// the persistent catalog, and the recovered database must still
	// produce the same rows.
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
	for _, q := range taubench.Queries() {
		if !frameLocalUpgrades[q.Name] {
			continue
		}
		sql := taubench.SequencedSQL(q, 30)
		want, err := mem.Query(sql)
		if err != nil {
			t.Fatalf("%s in memory: %v", q.Name, err)
		}
		got, err := rec.Query(sql)
		if err != nil {
			t.Fatalf("%s recovered: %v", q.Name, err)
		}
		if w, g := enginetest.SortedRows(want), enginetest.SortedRows(got); w != g {
			t.Errorf("%s: recovered execution diverges from in-memory\n--- in memory\n%s\n--- recovered\n%s", q.Name, w, g)
		}
	}
}
