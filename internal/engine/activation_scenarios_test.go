package engine_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"taupsm"
	"taupsm/internal/engine"
	"taupsm/internal/enginetest"
	"taupsm/internal/proc"
	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/taubench"
)

// Every call, block, query level and per-execution hash table pops what
// it pushed, on every path: after each statement both stacks are empty,
// and the next statement, on the activations the last one left, answers
// as the first run did. A session the stratum runs a statement on checks
// the same when it is released (engine.DB.Release).
func TestActivationStacksBalance(t *testing.T) {
	balanced := func(t testing.TB, db *engine.DB, label string, stmt sqlast.Stmt, tables map[string]*storage.Table) bool {
		var first string
		for run := range 2 {
			res, err := db.ExecStmtWithTables(stmt, tables)
			if a, h := engine.StackHeights(db); a != 0 || h != 0 {
				t.Fatalf("%s: %d activations and %d hash tables left pushed", label, a, h)
			}
			got := fmt.Sprint(err)
			if err == nil {
				got = fmt.Sprint(res.Rows)
			}
			if run == 0 {
				first = got
			} else if got != first {
				t.Errorf("%s: the second run answers\n%s\nthe first\n%s", label, got, first)
			}
		}
		return true
	}
	compared := 0
	forEachQueryStep(t, func(t *testing.T, db *taupsm.DB, label, src string) {
		compared += checkTranslated(t, db, label, src, balanced)
	})
	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}
	db := taupsm.Open()
	defer db.Close()
	enginetest.LoadCorpus(t, db, spec)
	for _, q := range taubench.Queries() {
		compared += checkTranslated(t, db, q.Name+" sequenced", taubench.SequencedSQL(q, 30), balanced)
		compared += checkTranslated(t, db, q.Name+" current", q.Text, balanced)
	}
	if compared < 150 {
		t.Errorf("only %d scenario and corpus statements compared", compared)
	}

	// The paths a statement leaves a routine by other than its end.
	eng := engine.New()
	exec := func(src string) (*engine.Result, error) {
		t.Helper()
		res, err := eng.ExecScript(src)
		if a, h := engine.StackHeights(eng); a != 0 || h != 0 {
			t.Fatalf("%q: %d activations and %d hash tables left pushed", src, a, h)
		}
		return res, err
	}
	answers := func(src, want string) {
		t.Helper()
		res, err := exec(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		var rows []string
		for _, row := range res.Rows {
			var vals []string
			for _, v := range row {
				vals = append(vals, v.Text())
			}
			rows = append(rows, strings.Join(vals, ","))
		}
		if got := strings.Join(rows, ";"); got != want {
			t.Fatalf("%q answers %s, want %s", src, got, want)
		}
	}
	if _, err := exec(`CREATE TABLE n (v INTEGER); INSERT INTO n VALUES (1), (2), (3);
CREATE FUNCTION sum3 () RETURNS INTEGER BEGIN
  DECLARE s INTEGER DEFAULT 0;
  FOR r AS SELECT a.v AS v FROM n a, n b WHERE a.v = b.v DO SET s = s + r.v; END FOR;
  RETURN s;
END;
CREATE FUNCTION nested (d INTEGER) RETURNS INTEGER BEGIN
  DECLARE r INTEGER DEFAULT 0;
  BEGIN
    DECLARE c CURSOR FOR SELECT v FROM n;
    OPEN c;
    BEGIN
      FOR x AS SELECT v FROM n DO
        SET r = r + x.v / d;
      END FOR;
    END;
  END;
  RETURN r;
END;
CREATE FUNCTION outer_exit () RETURNS INTEGER BEGIN
  DECLARE r INTEGER DEFAULT 0;
  BEGIN
    DECLARE EXIT HANDLER FOR SQLEXCEPTION SET r = 99;
    BEGIN
      DECLARE c CURSOR FOR SELECT v FROM n;
      OPEN c;
      BEGIN
        SET r = nested(0);
      END;
      SET r = 1;
    END;
    SET r = 2;
  END;
  RETURN r;
END;
CREATE FUNCTION deep (k INTEGER) RETURNS INTEGER BEGIN
  BEGIN
    DECLARE c CURSOR FOR SELECT v FROM n;
    OPEN c;
    RETURN deep(k + 1);
  END;
END;
CREATE FUNCTION spin () RETURNS INTEGER BEGIN
  DECLARE i INTEGER DEFAULT 0;
  BEGIN
    DECLARE c CURSOR FOR SELECT v FROM n;
    OPEN c;
    WHILE 1 = 1 DO
      FOR x AS SELECT a.v AS v FROM n a, n b WHERE a.v = b.v DO SET i = i + x.v; END FOR;
    END WHILE;
  END;
  RETURN i;
END`); err != nil {
		t.Fatal(err)
	}
	answers(`SELECT sum3()`, "6")
	if _, err := exec(`SELECT nested(0)`); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("an error inside nested blocks: %v", err)
	}
	answers(`SELECT nested(1), sum3()`, "6,6")
	answers(`SELECT outer_exit(), sum3()`, "99,6")
	if _, err := exec(`SELECT deep(0)`); err == nil || !strings.Contains(err.Error(), "nesting exceeds") {
		t.Fatalf("a call chain past the nesting limit: %v", err)
	}
	answers(`SELECT sum3()`, "6")

	// A KILL that arrives while a routine loops in nested blocks.
	p, killed := &proc.Process{}, errors.New("killed mid-routine")
	eng.Proc = p
	go func() {
		time.Sleep(20 * time.Millisecond)
		p.Kill(killed)
	}()
	if _, err := exec(`SELECT spin()`); !errors.Is(err, killed) {
		t.Fatalf("a killed routine: %v", err)
	}
	eng.Proc = nil
	answers(`SELECT sum3(), nested(1)`, "6,6")
}
