package taupsm_test

import (
	"errors"
	"testing"

	"taupsm"
	"taupsm/internal/enginetest"
	"taupsm/internal/taubench"
)

// TestPrintedTranslationRuns re-runs every corpus query's printed
// translation — MAX and PERST over one month, and current — as a script
// on a database that holds only the corpus schema: what the stratum
// prints is a script the system accepts, with no error diagnostic. Its
// routine clones come callees first: q9's function calls a procedure
// that calls a procedure, and a CREATE that calls a routine not yet
// defined is refused (TAU006). The warnings a corpus routine draws
// itself — a value never read, a temporary table it creates, a
// statement PERST cannot transform — its clones draw too.
func TestPrintedTranslationRuns(t *testing.T) {
	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}
	src := taupsm.Open()
	enginetest.LoadCorpus(t, src, spec)
	for _, q := range taubench.Queries() {
		for _, c := range []struct {
			name     string
			sql      string
			strategy taupsm.Strategy
		}{
			{"max", taubench.SequencedSQL(q, 30), taupsm.Max},
			{"perst", taubench.SequencedSQL(q, 30), taupsm.PerStatement},
			{"current", q.Text, taupsm.Max},
		} {
			printed, err := src.Translate(c.sql, c.strategy)
			if c.strategy == taupsm.PerStatement && !q.PerstOK && errors.Is(err, taupsm.ErrNotTransformable) {
				continue
			}
			if err != nil {
				t.Fatalf("%s %s: %v", q.Name, c.name, err)
			}
			dst := taupsm.Open()
			dst.SetNow(2011, 1, 1)
			dst.MustExec(taubench.Schema)
			diags, err := dst.Lint(printed)
			if err != nil {
				t.Fatalf("%s %s: %v", q.Name, c.name, err)
			}
			for _, d := range diags {
				if d.Severity == "error" {
					t.Errorf("%s %s: the printed translation draws %v\n%s", q.Name, c.name, d, printed)
				}
			}
			if _, err := dst.Exec(printed); err != nil {
				t.Errorf("%s %s: the printed translation fails: %v\n%s", q.Name, c.name, err, printed)
			}
		}
	}
}
