package core

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"taupsm/internal/sqlparser"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// TestModificationTranslations pins the text every modification
// translates to: {valid-time, bitemporal, snapshot} target × {current,
// VALIDTIME (p), VALIDTIME, NONSEQUENCED VALIDTIME} × 16 statement
// shapes, 192 statements, against testdata/modifications.golden. The
// verbs share one builder (dml.go); a line of the golden that moves
// says which statements a change to it reaches.
func TestModificationTranslations(t *testing.T) {
	info := newFakeInfo()
	info.addTable("p", true, "id", "v")
	info.addBitemporalTable("b", "id", "v")
	info.addTable("s", false, "id", "v")
	info.addTable("q", true, "x")
	info.addTable("one", false, "x")
	info.addTable("bel", true, "x") // transaction-time only: constant over a valid-time period
	info.transaction = map[string]bool{"b": true, "bel": true}
	tr := NewTranslator(info)

	targets := []struct{ kind, table string }{{"valid-time", "p"}, {"bitemporal", "b"}, {"snapshot", "s"}}
	modifiers := []string{"", "VALIDTIME (DATE '2010-01-01', DATE '2010-06-01') ", "VALIDTIME ", "NONSEQUENCED VALIDTIME "}
	shapes := []string{
		`INSERT INTO TGT VALUES (1, 10)`,
		`INSERT INTO TGT (id, v) VALUES (1, 10), (2, 20)`,
		`INSERT INTO TGT SELECT x, x FROM one`,
		`INSERT INTO TGT SELECT x, x FROM q`,
		`INSERT INTO TGT (v, id) SELECT x, x + 1 FROM one WHERE x > 0`,
		`UPDATE TGT SET v = 20 WHERE id = 1`,
		`UPDATE TGT SET v = v + 1, id = 2`,
		`UPDATE TGT t SET v = t.v + 1 WHERE t.id = 1`,
		`UPDATE TGT SET v = TGT.v + 1 WHERE TGT.id = 1`,
		`UPDATE TGT SET v = (SELECT MAX(x) FROM q) WHERE id = 1`,
		`UPDATE TGT SET v = (SELECT MAX(x) FROM one) WHERE id = 1`,
		`DELETE FROM TGT WHERE id = 1`,
		`DELETE FROM TGT t WHERE t.v > 5`,
		`DELETE FROM TGT WHERE v IN (SELECT x FROM q)`,
		`INSERT INTO TGT SELECT x, x FROM bel`,
		`UPDATE TGT SET v = (SELECT MAX(x) FROM bel) WHERE id = 1`,
	}

	var got strings.Builder
	n := 0
	for _, target := range targets {
		for _, mod := range modifiers {
			for _, shape := range shapes {
				n++
				src := mod + strings.ReplaceAll(shape, "TGT", target.table)
				fmt.Fprintf(&got, "-- %s: %s\n", target.kind, src)
				stmt, err := sqlparser.ParseStatement(src)
				if err != nil {
					t.Fatalf("parse %q: %v", src, err)
				}
				tl, err := tr.Translate(stmt, StrategyPerStatement)
				var r *Refusal
				switch {
				case errors.As(err, &r):
					fmt.Fprintf(&got, "refused at %d:%d: %v\n\n", r.Pos.Line, r.Pos.Col, err)
				case err != nil:
					fmt.Fprintf(&got, "error: %v\n\n", err)
				default:
					fmt.Fprintf(&got, "%s\n\n", strings.TrimSpace(tl.SQL()))
				}
			}
		}
	}
	if n != 192 {
		t.Fatalf("matrix has %d statements, want 192", n)
	}

	const golden = "testdata/modifications.golden"
	if *updateGolden {
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
		t.Fatalf("golden has %d blocks, translation %d; rerun with -update and review the diff", len(wantBlocks), len(gotBlocks))
	}
	for i := range wantBlocks {
		if wantBlocks[i] != gotBlocks[i] {
			t.Errorf("translation differs from %s:\n--- want\n%s\n--- got\n%s", golden, wantBlocks[i], gotBlocks[i])
		}
	}
}
