package engine_test

import (
	"testing"

	"taupsm"
	"taupsm/internal/engine"
	"taupsm/internal/enginetest"
	"taupsm/internal/taubench"
)

// The scenario and corpus half of the consumers' oracle: the main
// statement of every scenario query's translation, and of the corpus's
// at a one-month context, run as every consumer of a query's rows
// through the row stacks and through the Result-based reference
// (engine.CheckConsumers).
func TestQueryConsumersEqualReferenceOnScenarios(t *testing.T) {
	compared := 0
	forEachQueryStep(t, func(t *testing.T, db *taupsm.DB, label, src string) {
		compared += checkTranslated(t, db, label, src, engine.CheckConsumers)
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
		corpus += checkTranslated(t, db, q.Name+" sequenced", taubench.SequencedSQL(q, 30), engine.CheckConsumers)
		corpus += checkTranslated(t, db, q.Name+" current", q.Text, engine.CheckConsumers)
	}
	if corpus < 16*3-1 { // q17b is not transformable under PERST
		t.Errorf("only %d corpus statements compared", corpus)
	}
	t.Logf("%d scenario and %d corpus statements compared", compared, corpus)
}
