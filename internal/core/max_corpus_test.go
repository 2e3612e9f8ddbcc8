package core_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"taupsm/internal/core"
	"taupsm/internal/taubench"
)

// TestMaxCorpusTranslations pins the printed MAX translation of every
// corpus query at one 30-day context against
// testdata/max_corpus.golden: the routine clones, the Figure-8 script
// that builds the constant periods, the main statement and the script's
// teardown. What the stratum runs never reads the Figure-8 statements,
// so this is where a change to them shows.
func TestMaxCorpusTranslations(t *testing.T) {
	schema := mustParse(t, taubench.Schema)
	for _, q := range taubench.Queries() {
		schema = append(schema, mustParse(t, q.Routines)...)
	}
	tr := core.NewTranslator(catalogOf(schema))
	var got strings.Builder
	for _, q := range taubench.Queries() {
		src := taubench.SequencedSQL(q, 30)
		tl, err := tr.Translate(mustParse(t, src)[0], core.StrategyMax)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		fmt.Fprintf(&got, "-- %s: %s\n%s\n\n", q.Name, src, strings.TrimSpace(tl.SQL()))
	}

	const golden = "testdata/max_corpus.golden"
	if *core.UpdateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	wantBlocks, gotBlocks := strings.Split(string(want), "\n\n"), strings.Split(got.String(), "\n\n")
	if len(wantBlocks) != len(gotBlocks) {
		t.Fatalf("golden has %d blocks, translation %d", len(wantBlocks), len(gotBlocks))
	}
	for i := range wantBlocks {
		if wantBlocks[i] != gotBlocks[i] {
			t.Errorf("translation differs from %s:\n--- want\n%s\n--- got\n%s", golden, wantBlocks[i], gotBlocks[i])
		}
	}
}
