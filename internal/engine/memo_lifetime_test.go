package engine

import (
	"fmt"
	"testing"

	"taupsm/internal/types"
)

// The function memo's arrays are the session's (stacks.memo), its
// entries the statement's: a statement starts with none and leaves none.
// A memoized answer crossing into the next statement on the session
// would show where nothing the memo's generation counts moves between
// the two: the clock (SetNow), a write through another session, or
// nothing at all. The statement below calls f(1) once per row and f(k)
// once, so it makes one hit per row after the first call of each key:
// an answer kept from the statement before adds hits and, after a
// change, returns the old value.
func TestFnMemoDiesWithTheStatement(t *testing.T) {
	db := New()
	db.Now = 14610 // 2010-01-01
	mustExec(t, db, `
		CREATE TABLE t (k INTEGER, v INTEGER);
		INSERT INTO t VALUES (1, 10), (2, 20), (3, 30);
		CREATE FUNCTION f (x INTEGER) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
		BEGIN
			RETURN (SELECT v FROM t WHERE k = x) + CASE WHEN CURRENT_DATE > DATE '2010-06-01' THEN 1000 ELSE 0 END;
		END;
	`)
	stmt := parseStmt(t, `SELECT k, f(k), f(1) FROM t`)
	outcome := func(ses *DB) string {
		before := ses.Stats
		res := run(t, ses, stmt, nil)
		return fmt.Sprint(rowsText(res), " calls ", ses.Stats.RoutineCalls-before.RoutineCalls, " hits ", ses.Stats.RoutineMemoHits-before.RoutineMemoHits)
	}
	for _, between := range []struct {
		name string
		do   func(ses *DB)
	}{
		{"nothing", func(*DB) {}},
		{"SetNow", func(ses *DB) { ses.Now += 365 }},
		{"a write through another session", func(*DB) {
			other := db.NewSession()
			mustExec(t, other, `UPDATE t SET v = v + 1`)
			other.Release()
		}},
	} {
		t.Run(between.name, func(t *testing.T) {
			ses := db.NewSession()
			defer ses.Release()
			outcome(ses)
			between.do(ses)
			got := outcome(ses)
			fresh := db.NewSession()
			defer fresh.Release()
			fresh.Now = ses.Now
			if want := outcome(fresh); got != want {
				t.Errorf("the second statement returned %s\na fresh session returns %s", got, want)
			}
			if len(ses.memo.chain) != 0 || len(ses.memo.ids.m) != 0 {
				t.Errorf("the statement left %d entries (%d keys)", len(ses.memo.chain), len(ses.memo.ids.m))
			}
		})
	}
}

// A session's memo keeps its arrays for the next statement unless they
// held more than fnMemoKeep entries, so clearing them stays cheap; a
// statement that overflows fnMemoCap leaves them within that bound too.
// Released, the stacks' memo holds no value: the pool pins nothing the
// last statement computed.
func TestFnMemoArraysAreBounded(t *testing.T) {
	db := New()
	mustExec(t, db, `
		CREATE TABLE big (k INTEGER);
		CREATE FUNCTION g (x INTEGER) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN x + 1; END;
	`)
	big := db.Cat.Table("big")
	for k := 0; k < fnMemoCap+1000; k++ {
		if err := big.Insert([]types.Value{types.NewInt(int64(k))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		calls int
		kept  bool // the arrays stay for the next statement
		wipes int64
	}{
		{fnMemoKeep / 2, true, 1},
		{fnMemoKeep + 1, false, 1},
		{fnMemoCap + 1000, true, 2}, // the 1,000 after the overflow
	} {
		t.Run(fmt.Sprint(c.calls, " calls"), func(t *testing.T) {
			ses := db.NewSession()
			expectRows(t, mustExec(t, ses, fmt.Sprintf(`SELECT COUNT(*) FROM big WHERE k < %d AND g(k) > 0`, c.calls)), fmt.Sprint(c.calls))
			ms := &ses.memo
			if len(ms.chain) != 0 || len(ms.ids.m) != 0 || ms.wipes != c.wipes {
				t.Errorf("after the statement: %d entries, %d keys, %d wipes (want %d)", len(ms.chain), len(ms.ids.m), ms.wipes, c.wipes)
			}
			if cap(ms.chain) > fnMemoKeep || (cap(ms.chain) > 0) != c.kept || (ms.ids.m != nil) != c.kept {
				t.Errorf("after the statement: arrays of %d entries kept (map kept: %v), want kept %v and at most %d", cap(ms.chain), ms.ids.m != nil, c.kept, fnMemoKeep)
			}
			chain := ms.chain[:cap(ms.chain)]
			ses.Release()
			for i, e := range chain {
				if e != (memoEntry{}) {
					t.Fatalf("released stacks hold entry %d: %+v", i, e)
				}
			}
		})
	}
}
