package engine_test

import (
	"fmt"
	"testing"

	"taupsm"
	"taupsm/internal/engine"
	"taupsm/internal/enginetest"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/taubench"
)

// The scenario and corpus halves of the INSERT oracle
// (insert_reference_test.go): every modification an enginetest scenario
// executes is translated — under MAX and PERST when sequenced, as the
// current statement it is otherwise — and every INSERT the translation
// runs, setup and main statement alike, goes through the program and the
// reference in the state the statements before it left; then the INSERTs
// of every routine registered, the scenario's own and the max_, ps_ and
// curr_ clones, and those of the routines the 16-query corpus registers.

// checkModification compares the program and the reference on the
// INSERTs of src's translations and returns how many it compared. What
// the translations execute is rolled back; the caller runs src itself.
func checkModification(t *testing.T, db *taupsm.DB, label, src string) int {
	t.Helper()
	stmt, err := sqlparser.ParseStatement(src)
	if err != nil {
		return 0
	}
	body := stmt
	if ts, ok := stmt.(*sqlast.TemporalStmt); ok {
		body = ts.Body
	}
	switch body.(type) {
	case *sqlast.InsertStmt, *sqlast.UpdateStmt, *sqlast.DeleteStmt:
	default:
		return 0
	}
	n := 0
	for _, strategy := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
		tr, err := db.TranslateStmt(stmt, strategy)
		if err != nil || tr.Main == nil {
			continue // refused under this strategy
		}
		eng := db.Engine()
		j := engine.NewJournal()
		eng.Journal = j
		for _, s := range tr.Routines {
			eng.ExecStmt(s)
		}
		for _, s := range append(append([]sqlast.Stmt{}, tr.Setup...), tr.Main) {
			if engine.CheckInsert(t, eng, fmt.Sprintf("%s [%s]", label, strategy), s, nil) {
				n++
			}
			if _, err := eng.ExecStmt(s); err != nil {
				break // a step that expects an execution error
			}
		}
		for _, s := range tr.Teardown {
			eng.ExecStmt(s)
		}
		j.RollbackAll()
		eng.Journal = nil
		if _, sequenced := stmt.(*sqlast.TemporalStmt); !sequenced {
			break // a current statement translates one way
		}
	}
	return n
}

func TestInsertEqualsReferenceOnScenarios(t *testing.T) {
	compared, routines := 0, 0
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
				case st.Exec != "":
					compared += checkModification(t, db, fmt.Sprintf("%s step %d", sc.Name, i), st.Exec)
					db.Exec(st.Exec) // some expect an error
				case st.Query != "":
					for _, strategy := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
						db.SetStrategy(strategy)
						db.Query(st.Query) // registers the clones it runs
					}
					db.SetStrategy(taupsm.Auto)
				}
			}
			routines += engine.CheckRoutineInserts(t, db.Engine(), 1)
		})
	}
	if compared < 100 || routines < 30 {
		t.Errorf("only %d scenario INSERTs and %d routine INSERT runs compared", compared, routines)
	}

	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}
	db := taupsm.Open()
	defer db.Close()
	enginetest.LoadCorpus(t, db, spec)
	eng := db.Engine()
	for _, q := range taubench.Queries() {
		for _, src := range []string{taubench.SequencedSQL(q, 30), q.Text} {
			stmt, err := sqlparser.ParseStatement(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, strategy := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
				if tr, err := db.TranslateStmt(stmt, strategy); err == nil {
					for _, r := range tr.Routines {
						eng.ExecStmt(r)
					}
				}
			}
		}
	}
	corpus := engine.CheckRoutineInserts(t, eng, 1)
	if corpus < 300 {
		t.Errorf("only %d corpus routine INSERT runs compared", corpus)
	}
	t.Logf("%d scenario INSERTs, %d scenario and %d corpus routine INSERT runs compared", compared, routines, corpus)
}
