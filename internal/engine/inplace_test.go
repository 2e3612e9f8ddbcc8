package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// A build side that keeps every row of its table is that table's rows,
// read in place (rel.whole): the scan copies nothing. Nothing may tell.
// The oracle generates joins whose build side is a whole stored table, a
// whole valid-time table reached by a stab join, or a whole collection
// variable, and whose probe side calls routines that INSERT into, DELETE
// from or UPDATE that very table while the build side is read. Each
// query runs through the pipeline and through the materialising
// reference, on sessions loading every source afresh, and the two must
// return the same rows, raise the same error and count the same work.
// Then each runs three times on a session whose plans keep their
// sources (srcMemo), between writes that persist, and must return what a
// session loading afresh returns: a kept relation is read at its
// table's version only. Routines whose own collection — a table the
// session's free list hands from one call to the next (spares) — is the
// build side, and which the probe side writes through a parameter, must
// equal the by-name reference, which never reuses a table.

const inPlaceSchema = `
	CREATE TABLE s (k INTEGER, d DATE);
	INSERT INTO s VALUES (1, DATE '2010-01-01'), (2, DATE '2010-01-03'), (3, DATE '2010-01-05'),
		(NULL, NULL), (2, DATE '2010-01-02'), (4, DATE '2010-01-09');
	CREATE TABLE w (k INTEGER, v INTEGER);
	INSERT INTO w VALUES (1, 10), (2, 20), (2, 21), (3, 0), (4, 40), (NULL, 50), (5, 5);
	CREATE TABLE h (k INTEGER) AS VALIDTIME;
	CREATE FUNCTION inv (x INTEGER) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN 100 / x; END;
	CREATE FUNCTION w_ins (x INTEGER) RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL
	BEGIN INSERT INTO w VALUES (x, 99); RETURN 1; END;
	CREATE FUNCTION w_del (x INTEGER) RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL
	BEGIN DELETE FROM w WHERE k = x; RETURN 1; END;
	CREATE FUNCTION w_upd (x INTEGER) RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL
	BEGIN UPDATE w SET v = v + 1 WHERE k = x; RETURN 1; END;
	CREATE FUNCTION h_ins (x INTEGER) RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL
	BEGIN INSERT INTO h VALUES (x, DATE '2010-01-01', DATE '2010-01-09'); RETURN 1; END;
	CREATE FUNCTION h_del (x INTEGER) RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL
	BEGIN DELETE FROM h WHERE k = x; RETURN 1; END;
	CREATE FUNCTION h_upd (x INTEGER) RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL
	BEGIN UPDATE h SET end_time = begin_time WHERE k = x; RETURN 1; END;
	CREATE FUNCTION c_ins (p ROW(k INTEGER, v INTEGER) ARRAY, x INTEGER) RETURNS INTEGER LANGUAGE SQL
	BEGIN INSERT INTO TABLE p VALUES (x, 99); RETURN 1; END;
	CREATE FUNCTION c_del (p ROW(k INTEGER, v INTEGER) ARRAY, x INTEGER) RETURNS INTEGER LANGUAGE SQL
	BEGIN DELETE FROM TABLE p WHERE k = x; RETURN 1; END;
	CREATE FUNCTION c_upd (p ROW(k INTEGER, v INTEGER) ARRAY, x INTEGER) RETURNS INTEGER LANGUAGE SQL
	BEGIN UPDATE TABLE p SET v = v + 1 WHERE k = x; RETURN 1; END;
`

// inPlaceDB is the oracle's database: s streams, w, h and a collection
// are the build sides, and the routines write each of them.
func inPlaceDB(t *testing.T) *DB {
	db := New()
	db.Now = 14610
	mustExec(t, db, inPlaceSchema)
	for _, r := range [][3]int64{{1, 14600, 14612}, {2, 14610, 14611}, {2, 14611, 14620}, {3, 14500, 14700}, {4, 14615, 14616}} {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO h VALUES (%d, DATE '%s', DATE '%s')`, r[0], types.FormatDate(r[1]), types.FormatDate(r[2])))
	}
	return db
}

// inPlaceCollection is a collection table with w's rows.
func inPlaceCollection(db *DB) *storage.Table {
	c := storage.NewTable("c", storage.NewSchema([]storage.Column{
		{Name: "k", Type: sqlast.TypeName{Base: "INTEGER"}}, {Name: "v", Type: sqlast.TypeName{Base: "INTEGER"}}}))
	for _, row := range db.Cat.Table("w").Rows {
		if err := c.Insert(append([]types.Value(nil), row...)); err != nil {
			panic(err)
		}
	}
	return c
}

// inPlaceQuery generates a join of s with a whole build side b (w, h or
// the collection c): by hash keys, by the stab pair (h), or by nested
// loop; the probe side may call the routine writing b on the pair b's
// rows are proposed for, and a conjunct that raises on one of b's rows.
// Sometimes b keeps a filter of its own, so it is not whole: the copy the
// oracle compares with. (The reference loads the streamed side whole
// before it joins, and projects once it has joined: a writer called on a
// row of s alone, or a column an UPDATE writes in the select list, would
// tell the evaluators apart by their order, not by the relation.)
func inPlaceQuery(r *rand.Rand) (sql, shape string, whole bool) {
	b := []string{"w", "h", "c"}[r.Intn(3)]
	ref := b
	if b == "c" {
		ref = "cc"
	}
	from := "s, " + b
	if b == "c" {
		from = "s, c AS cc"
	}
	var conds []string
	join := "nested"
	switch r.Intn(4) {
	case 0, 1:
		conds, join = append(conds, "s.k = "+ref+".k"), "hash"
	case 2:
		conds = append(conds, "s.k <= "+ref+".k")
	}
	if b == "h" && r.Intn(2) == 0 {
		conds, join = append(conds, "h.begin_time <= s.d", "s.d < h.end_time"), join+"+stab"
	}
	writer := "none"
	if r.Intn(5) > 0 {
		writer = []string{"ins", "del", "upd"}[r.Intn(3)]
		fn := b + "_" + writer
		arg := ref + ".k + s.k * 0" // a join conjunct, never b's own filter
		if r.Intn(2) == 0 {
			arg = "s.k + " + ref + ".k - 2"
		}
		call := fn + "(" + arg + ")"
		if b == "c" {
			call = fn + "(c, " + arg + ")"
		}
		conds = append(conds, call+" = 1")
	}
	if b != "h" && r.Intn(4) == 0 {
		conds = append(conds, "inv("+ref+".v - 21) > -1000")
	}
	whole = r.Intn(5) > 0
	if !whole {
		conds = append(conds, ref+".k IS NOT NULL")
	}
	items := "s.k, s.d, " + ref + ".k"
	if r.Intn(3) == 0 {
		items = "COUNT(*), SUM(" + ref + ".k)"
	}
	sql = "SELECT " + items + " FROM " + from
	if len(conds) > 0 {
		sql += " WHERE " + strings.Join(conds, " AND ")
	}
	return sql, b + " " + join + " " + writer, whole
}

func TestInPlaceBuildSidesEqualReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			db := inPlaceDB(t)
			c := inPlaceCollection(db)
			tables := map[string]*storage.Table{"c": c}
			r := rand.New(rand.NewSource(seed))
			shapes := map[string]int{}
			raised := 0
			var recent []sqlast.Stmt
			for i := 0; i < 300 && !t.Failed(); i++ {
				sql, shape, whole := inPlaceQuery(r)
				if whole {
					shapes[shape+" whole"]++
				} else {
					shapes["filtered"]++
				}
				stmt := parseStmt(t, sql)
				got, want := evalBoth(db, stmt.(sqlast.QueryExpr), 0, func(ses *DB) *execCtx {
					frame := &varFrame{}
					frame.bind(tableBinding("c", c))
					return &execCtx{db: ses, vars: frame}
				})
				if want.err != nil {
					raised++
				}
				if d := diffOutcomes(got, want, stmt.(sqlast.QueryExpr), 0); d != "" {
					t.Fatalf("%s\n%s", sql, d)
				}
				if got.keyed > 0 { // fewer rows read: diffOutcomes compared those
					got.stats.RowsScanned, got.stats.IntervalProbes = want.stats.RowsScanned, want.stats.IntervalProbes
				}
				if want.err == nil && got.stats != want.stats {
					t.Fatalf("%s\ncounters %+v\nreference %+v", sql, got.stats, want.stats)
				}
				// Served from the source memo: the statements of the last
				// rounds run again after each write that stays.
				recent = append(recent, stmt)
				if len(recent) > 4 {
					recent = recent[1:]
				}
				for _, st := range recent {
					for round := 0; round < 2; round++ {
						if g, w := inPlaceRun(db, st, tables, false), inPlaceRun(db, st, tables, true); g != w {
							t.Fatalf("%s, round %d\nsession: %s\nafresh:  %s", st.SQL(), round, g, w)
						}
					}
				}
				mustExec(t, db, []string{
					`INSERT INTO w VALUES (2, 22)`, `INSERT INTO h VALUES (2, DATE '2010-01-02', DATE '2010-01-04')`,
					`UPDATE w SET v = v + 1 WHERE k = 4`, `DELETE FROM w WHERE v = 22`, `DELETE FROM h WHERE end_time = DATE '2010-01-04'`,
				}[i%5])
			}
			for _, b := range []string{"w hash", "w nested", "h nested+stab", "h hash+stab", "c hash", "c nested"} {
				for _, w := range []string{"ins", "del", "upd"} {
					if want := b + " " + w + " whole"; shapes[want] == 0 {
						t.Errorf("no query of shape %q: %v", want, shapes)
					}
				}
			}
			if filtered := shapes["filtered"]; filtered < 20 {
				t.Errorf("only %d queries whose build side is filtered", filtered)
			}
			if raised == 0 || raised > 150 {
				t.Errorf("%d of 300 queries raised", raised)
			}
		})
	}
}

// inPlaceRun runs stmt over the table variables on a session of db —
// one that loads every source afresh, or one whose plans keep them —
// and rolls back what it wrote. It returns the rows or the error.
func inPlaceRun(db *DB, stmt sqlast.Stmt, tables map[string]*storage.Table, afresh bool) string {
	ses := db.NewSession()
	defer ses.Release()
	if afresh {
		ses.LoadAfresh()
	}
	j := NewJournal()
	ses.Journal = j
	defer j.RollbackAll()
	res, err := ses.ExecStmtWithTables(stmt, tables)
	if err != nil {
		return "error: " + errText(err)
	}
	return fmt.Sprint(rowsText(res))
}

// A routine whose own collection is a whole build side, written by the
// routine its probe side calls through a parameter, called once per row
// of s: each call takes the table, emptied, that the last one left
// (spares). The slot-bound routines must equal the by-name reference,
// which makes a new table for every call, in rows, errors and counters.
func TestInPlaceOwnCollectionEqualsByName(t *testing.T) {
	body := `
	CREATE FUNCTION own_%[1]s_%[2]s (x INTEGER) RETURNS INTEGER LANGUAGE SQL
	BEGIN
		DECLARE c ROW(k INTEGER, v INTEGER) ARRAY;
		DECLARE n INTEGER;
		INSERT INTO TABLE c SELECT k, v FROM w WHERE k <= x OR k IS NULL;
		SET n = (SELECT COUNT(*) * 1000 + SUM(cc.v) FROM s, c AS cc WHERE %[3]s AND c_%[1]s(c, %[4]s) = 1);
		RETURN n * 10 + (SELECT COUNT(*) FROM c);
	END;`
	script := inPlaceSchema
	for _, w := range []string{"ins", "del", "upd"} {
		script += fmt.Sprintf(body, w, "hash", "s.k = cc.k", "cc.k + s.k * 0")
		script += fmt.Sprintf(body, w, "loop", "s.k <= cc.k", "s.k + cc.k - 2")
	}
	slots, ref := New(), New()
	ref.resolveByName()
	for _, db := range []*DB{slots, ref} {
		db.Now = 14610
		mustExec(t, db, script)
	}
	for _, w := range []string{"ins", "del", "upd"} {
		for _, j := range []string{"hash", "loop"} {
			for _, q := range []string{
				`SELECT s.k, own_%s_%s(s.k) FROM s`,
				`SELECT COUNT(*) FROM s AS a, s AS b WHERE own_%s_%s(a.k) > b.k`,
			} {
				sql := fmt.Sprintf(q, w, j)
				render := func(db *DB) string {
					res, err := db.ExecScript(sql)
					if err != nil {
						return "error: " + err.Error()
					}
					return fmt.Sprintf("%v\n%+v", rowsText(res), db.Stats)
				}
				if g, w := render(slots), render(ref); g != w {
					t.Errorf("%s\non slots: %s\nby name:  %s", sql, g, w)
				}
			}
		}
	}
}

// A relation read in place ends where its table's rows ended when it was
// read: an append to it (rel.add) leaves the table's array alone, and an
// INSERT into the table leaves the relation alone, however much room the
// array has past its rows.
func TestInPlaceRelationIsCapped(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE w (k INTEGER); INSERT INTO w VALUES (1), (2), (3), (4), (5);`)
	tab := db.Cat.Table("w")
	tab.Grow(16)
	stmt := parseStmt(t, `SELECT COUNT(*) FROM w AS a, w AS b WHERE a.k = b.k`)
	for i := 0; i < 2; i++ {
		expectRows(t, run(t, db, stmt, nil), "5")
	}
	m := memoOf(t, db, stmt, 1)
	if m == nil || m.rel == nil || !m.rel.whole || m.rel.n != 5 || &m.rel.ents[0][0] != &tab.Rows[0] {
		t.Fatalf("the build side is not the table's rows, read in place: %+v", m)
	}
	mine := []types.Value{types.NewInt(100)}
	m.rel.add(&rowScope{rows: [][]types.Value{nil, mine}})
	if spare := tab.Rows[:cap(tab.Rows)]; len(tab.Rows) != 5 || spare[5] != nil {
		t.Fatalf("an append to the relation wrote the table's array: %v", spare[5])
	}
	mustExec(t, db, `INSERT INTO w VALUES (6)`)
	if m.rel.n != 6 || m.rel.ents[0][5][0].I != 100 || tab.Rows[5][0].I != 6 {
		t.Fatalf("the relation and its table wrote each other: relation %v, table %v", m.rel.ents[0], tab.Rows)
	}
}

// A stab join whose probe side calls a routine that writes the build
// side's table proposes rows of the relation as it was loaded: once the
// table's version moves, its interval index numbers other rows than the
// relation holds, and the join reads every row instead. With and without
// indexes the rows are the same.
func TestStabJoinReadsItsBuildSideAsLoaded(t *testing.T) {
	for _, w := range []string{"h_del", "h_ins", "h_upd"} {
		stmt := parseStmt(t, `SELECT s.k, s.d, h.k FROM s, h WHERE h.begin_time <= s.d AND s.d < h.end_time AND `+w+`(h.k + s.k * 0 - 1) = 1`)
		var got [2]string
		for i, off := range []bool{false, true} {
			db := inPlaceDB(t)
			db.DisableIndexes = off
			got[i] = fmt.Sprint(rowsText(run(t, db, stmt, nil)))
			if probes := db.Stats.IntervalProbes; !off && probes == 0 {
				t.Fatalf("%s: the join is no stab join", w)
			}
		}
		if got[0] != got[1] {
			t.Errorf("%s: with indexes %s\nwithout %s", w, got[0], got[1])
		}
	}
}
