package engine

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// StackHeights returns the heights of db's activation and build-side
// stacks, which every statement leaves where it found them: at zero
// between statements.
func StackHeights(db *DB) (acts, sides int) { return db.acts.n, db.sides.n }

// An activation popped and pushed again — by the next turn of a loop, the
// next call, the next block at its height — starts as a fresh one would:
// variables at their defaults, cursors closed, no table of the last call.
func TestReusedActivationsStartClean(t *testing.T) {
	db := newTestDB(t)
	db.DisableFnMemo = true
	mustExec(t, db, `
CREATE FUNCTION reenter () RETURNS INTEGER BEGIN
  DECLARE i INTEGER DEFAULT 0;
  DECLARE r INTEGER DEFAULT 0;
  DECLARE CONTINUE HANDLER FOR SQLSTATE '24000' SET r = r + 1000;
  WHILE i < 3 DO
    BEGIN
      DECLARE v INTEGER;
      DECLARE w INTEGER DEFAULT 5;
      DECLARE x INTEGER;
      DECLARE c CURSOR FOR SELECT id FROM item ORDER BY id;
      IF v IS NULL AND w = 5 THEN SET r = r + 1; END IF;
      OPEN c;
      FETCH c INTO x;
      SET r = r + x * 10;
      SET v = 7;
      SET w = 9;
    END;
    BEGIN
      DECLARE y INTEGER DEFAULT 0;
      DECLARE d CURSOR FOR SELECT id FROM item;
      FETCH d INTO y;
    END;
    SET i = i + 1;
  END WHILE;
  RETURN r;
END;
CREATE FUNCTION coll (k INTEGER) RETURNS ROW(v INTEGER) ARRAY BEGIN
  DECLARE t ROW(v INTEGER) ARRAY;
  INSERT INTO TABLE t VALUES (k);
  RETURN t;
END;
CREATE PROCEDURE twice (IN a INTEGER, OUT b INTEGER) BEGIN
  DECLARE one INTEGER DEFAULT 1;
  BEGIN
    SET b = a * 2 + one;
  END;
END;
CREATE PROCEDURE chain (IN a INTEGER, OUT b INTEGER) BEGIN
  DECLARE x INTEGER;
  CALL twice(a, x);
  CALL twice(x, b);
END;
CREATE FUNCTION callchain (a INTEGER) RETURNS INTEGER BEGIN
  DECLARE r INTEGER;
  CALL chain(a, r);
  RETURN r;
END`)
	// Each turn: the block's variables at their defaults (+1), its cursor
	// closed so OPEN succeeds, the first row (+10); the sibling block's
	// cursor is closed, though the cursor at its place was left open
	// (+1000 from the handler of SQLSTATE 24000).
	expectRows(t, mustExec(t, db, `SELECT reenter()`), "3033")
	expectRows(t, mustExec(t, db, `SELECT reenter(), reenter()`), "3033,3033")

	// The collection a call returns is a table of its own, not one an
	// activation keeps for the next call.
	expectRows(t, mustExec(t, db, `SELECT a.v, b.v FROM TABLE(coll(1)) AS a, TABLE(coll(2)) AS b`), "1,2")
	r := db.Cat.Routine("coll")
	ctx := &execCtx{db: db}
	var tabs []*storage.Table
	for k := range 2 {
		v, err := db.callFunction(ctx, r, &callSite{args: []operand{{kind: opLit, lit: &types.Value{Kind: types.KindInt, I: int64(k)}}}})
		if err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tableOf(v))
	}
	if tabs[0] == tabs[1] {
		t.Fatal("two calls of coll returned one table")
	}

	// OUT parameters copy back through nested CALLs: (3·2+1)·2+1.
	expectRows(t, mustExec(t, db, `SELECT callchain(3), callchain(0) FROM item WHERE id = 1`), "15,3")
	if a, h := StackHeights(db); a != 0 || h != 0 {
		t.Fatalf("%d activations and %d hash tables left pushed", a, h)
	}
}

// A warm routine call allocates nothing of its own: not its frame, not
// its blocks', not their cursors, not the levels of its queries. So a
// statement allocates as many objects whether the function nests one
// block or six, and whether it is called once or three times.
// A call holds one slot per binding of its routine: what declared each
// is kept on the layout, built once per routine (Names), and the slot
// stays a value, its kind and its binding.
func TestSlotHoldsNoDeclaration(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 48 {
		t.Fatalf("a slot is %d bytes, want 48", n)
	}
}

func TestRoutineCallAllocations(t *testing.T) {
	db := newTestDB(t)
	db.DisableFnMemo = true
	mustExec(t, db, `CREATE FUNCTION inc (x INTEGER) RETURNS INTEGER BEGIN RETURN x + 1; END`)
	one := parseStmt(t, `SELECT inc(id) FROM item WHERE id = 1`)
	three := parseStmt(t, `SELECT inc(inc(inc(id))) FROM item WHERE id = 1`)
	run := func(stmt sqlast.Stmt) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := db.ExecStmt(stmt); err != nil {
				t.Fatal(err)
			}
		})
	}
	expectRows(t, mustExec(t, db, `SELECT inc(inc(inc(id))) FROM item WHERE id = 1`), "4")
	if perCall := (run(three) - run(one)) / 2; perCall != 0 {
		t.Fatalf("a warm call of a one-statement function allocates %.1f objects, want none", perCall)
	}

	// d nested blocks around one that opens a cursor and runs a FOR loop.
	nest := func(d int) string {
		var b strings.Builder
		fmt.Fprintf(&b, "CREATE FUNCTION nest%d (k INTEGER) RETURNS INTEGER BEGIN DECLARE s INTEGER DEFAULT 0;\n", d)
		for i := range d {
			fmt.Fprintf(&b, "BEGIN DECLARE v%d INTEGER DEFAULT %d;\n", i, i)
		}
		b.WriteString(`BEGIN
  DECLARE x INTEGER;
  DECLARE c CURSOR FOR SELECT id FROM item WHERE id = k;
  OPEN c; FETCH c INTO x; CLOSE c;
  SET s = s + x;
  FOR r AS SELECT id FROM item WHERE id <= k DO SET s = s + r.id; END FOR;
END;
`)
		for i := d - 1; i >= 0; i-- {
			fmt.Fprintf(&b, "SET s = s + v%d; END;\n", i)
		}
		b.WriteString("RETURN s; END")
		return b.String()
	}
	got := map[[2]int]float64{}
	for _, d := range []int{1, 6} {
		mustExec(t, db, nest(d))
		for _, k := range []int{1, 3} {
			src := fmt.Sprintf(`SELECT nest%d(id) FROM item WHERE id <= %d`, d, k)
			var want []string
			for id := 1; id <= k; id++ {
				want = append(want, fmt.Sprint(id+id*(id+1)/2+d*(d-1)/2))
			}
			expectRows(t, mustExec(t, db, src), want...)
			got[[2]int{d, k}] = run(parseStmt(t, src))
		}
	}
	t.Logf("objects per statement by (blocks, calls): %v", got)
	for key, n := range got {
		if n != got[[2]int{1, 1}] {
			t.Errorf("%d nested blocks, %d calls: %.1f objects per statement, %.1f with 1 block and 1 call", key[0], key[1], n, got[[2]int{1, 1}])
		}
	}
}

// A statement's object count does not grow with the distinct keys its
// calls leave in the function memo, the distinct keys of its join's build
// side, or the rows a pushdown conjunct keeps in that build side: each
// lives on the session's scratch (the memo's key arena, the hash table's,
// the build-side stack), which a statement as large before it grew.
func TestScratchAllocationsDoNotGrowWithKeys(t *testing.T) {
	const n = 64
	db := New()
	db.LoadAfresh() // every build side is loaded, filtered and hashed afresh
	mustExec(t, db, `CREATE TABLE l (k INTEGER); CREATE TABLE r (k INTEGER, v INTEGER);
		CREATE FUNCTION twice (x INTEGER) RETURNS INTEGER BEGIN RETURN x * 2; END`)
	for i := range 4 * n {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO l VALUES (%d); INSERT INTO r VALUES (%d, %d)`, i, i, i))
	}
	for _, c := range []struct{ what, src string }{
		{"distinct memo keys", `SELECT SUM(twice(k)) FROM l WHERE k < %d`},
		{"distinct join keys", `SELECT COUNT(*) FROM l, r WHERE l.k = r.k AND l.k = 0 AND r.k < %d`},
		{"filtered build-side rows", `SELECT COUNT(*) FROM l, r WHERE l.k = r.v - r.k AND l.k = 0 AND r.k < %d`},
	} {
		var got [2]float64
		for i, rows := range []int{n, 4 * n} {
			src := fmt.Sprintf(c.src, rows)
			mustExec(t, db, src)
			stmt := parseStmt(t, src)
			got[i] = testing.AllocsPerRun(20, func() {
				if _, err := db.ExecStmt(stmt); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("%s: %.1f objects per statement at %d, %.1f at %d", c.what, got[0], n, got[1], 4*n)
		if got[1] != got[0] {
			t.Errorf("%s: %.1f objects per statement at %d, %.1f at %d", c.what, got[0], n, got[1], 4*n)
		}
	}
}

// A hash table built for one execution is the session's scratch: emptied
// and kept when the pipe that built it returns, unless its build held
// more than maxScratchKeys keys — then it is dropped, so that clearing it
// does not slow every small build after it.
func TestHashScratchBounded(t *testing.T) {
	db := New()
	db.LoadAfresh() // no source memo keeps a hash table: every build is scratch
	mustExec(t, db, `CREATE TABLE l (k INTEGER); CREATE TABLE r (k INTEGER, v INTEGER);
		INSERT INTO l VALUES (1), (2), (3)`)
	var vals []string
	for i := range maxScratchKeys + 1 {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i*10))
	}
	join := `SELECT l.k, r.v FROM l, r WHERE l.k = r.k ORDER BY l.k`
	scratch := func() *hashIdx {
		if a, h := StackHeights(db); a != 0 || h != 0 {
			t.Fatalf("%d activations and %d build sides left pushed", a, h)
		}
		return &db.sides.all[0].hash
	}

	mustExec(t, db, `INSERT INTO r VALUES (1, 10), (2, 20), (4, 40)`)
	expectRows(t, mustExec(t, db, join), "1,10", "2,20")
	small := scratch()
	if small.ids.m == nil || len(small.ids.m) != 0 || len(small.ids.arena) != 0 || len(small.rows) != 0 {
		t.Fatalf("a small build's table is not kept empty: %+v", small)
	}
	expectRows(t, mustExec(t, db, join), "1,10", "2,20")
	if scratch() != small {
		t.Fatal("the second build did not reuse the first's table")
	}

	mustExec(t, db, `DELETE FROM r; INSERT INTO r VALUES `+strings.Join(vals, ", "))
	expectRows(t, mustExec(t, db, join), "1,10", "2,20", "3,30")
	if h := scratch(); h.ids.m != nil || h.ids.arena != nil || h.rows != nil {
		t.Fatalf("a build of %d keys was kept", len(vals))
	}

	mustExec(t, db, `DELETE FROM r WHERE k > 2`)
	expectRows(t, mustExec(t, db, join), "1,10", "2,20")
	if h := scratch(); h.ids.m == nil || len(h.ids.m) != 0 {
		t.Fatal("a small build after the large one left no empty table")
	}
}
