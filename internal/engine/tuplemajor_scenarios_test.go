package engine_test

import (
	"testing"

	"taupsm"
	"taupsm/internal/engine"
	"taupsm/internal/enginetest"
	"taupsm/internal/taubench"
)

// The scenario and corpus half of the tuple-major oracle
// (engine.CheckLayouts): the main statement of every MAX translation of
// an enginetest query, and of the corpus at a context of one day, one
// month, one year and the whole timeline, over the catalog table its
// Figure-8 setup leaves and over a tiling copy of it.
func TestTupleMajorEqualsPeriodMajorOnScenarios(t *testing.T) {
	compared := 0
	forEachQueryStep(t, func(t *testing.T, db *taupsm.DB, label, src string) {
		compared += checkTranslated(t, db, label, src, engine.CheckLayouts)
	})
	if compared < 50 {
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
		for _, days := range []int{1, 30, 365} {
			corpus += checkTranslated(t, db, q.Name, taubench.SequencedSQL(q, days), engine.CheckLayouts)
		}
		corpus += checkTranslated(t, db, q.Name+" whole timeline", "VALIDTIME "+q.Text, engine.CheckLayouts)
	}
	if corpus < 16*4 {
		t.Errorf("only %d corpus statements compared", corpus)
	}
	t.Logf("%d scenario and %d corpus statements compared", compared, corpus)
}
