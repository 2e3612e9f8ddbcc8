package core

import (
	"errors"
	"strings"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
)

// fakeInfo is a SchemaInfo for translator unit tests, with no engine.
type fakeInfo struct {
	temporal    map[string]bool
	transaction map[string]bool
	bitemporal  map[string]bool
	tables      map[string][]string
	fns         map[string]*sqlast.CreateFunctionStmt
	procs       map[string]*sqlast.CreateProcedureStmt
}

func newFakeInfo() *fakeInfo {
	return &fakeInfo{
		temporal: map[string]bool{},
		tables:   map[string][]string{},
		fns:      map[string]*sqlast.CreateFunctionStmt{},
		procs:    map[string]*sqlast.CreateProcedureStmt{},
	}
}

func (f *fakeInfo) addTable(name string, temporalTable bool, cols ...string) {
	if temporalTable {
		cols = append(cols, "begin_time", "end_time")
	}
	f.tables[strings.ToLower(name)] = cols
	f.temporal[strings.ToLower(name)] = temporalTable
}

func (f *fakeInfo) addBitemporalTable(name string, cols ...string) {
	cols = append(cols, "begin_time", "end_time", "tt_begin_time", "tt_end_time")
	k := strings.ToLower(name)
	f.tables[k] = cols
	f.temporal[k] = true
	if f.transaction == nil {
		f.transaction = map[string]bool{}
	}
	f.transaction[k] = true
	if f.bitemporal == nil {
		f.bitemporal = map[string]bool{}
	}
	f.bitemporal[k] = true
}

func (f *fakeInfo) addRoutine(t *testing.T, src string) {
	t.Helper()
	s, err := sqlparser.ParseStatement(src)
	if err != nil {
		t.Fatalf("routine parse: %v", err)
	}
	switch d := s.(type) {
	case *sqlast.CreateFunctionStmt:
		f.fns[strings.ToLower(d.Name)] = d
	case *sqlast.CreateProcedureStmt:
		f.procs[strings.ToLower(d.Name)] = d
	default:
		t.Fatalf("not a routine: %T", s)
	}
}

func (f *fakeInfo) IsTemporalTable(name string) bool { return f.temporal[strings.ToLower(name)] }
func (f *fakeInfo) IsTable(name string) bool {
	_, ok := f.tables[strings.ToLower(name)]
	return ok
}
func (f *fakeInfo) ViewQuery(string) sqlast.QueryExpr { return nil }
func (f *fakeInfo) Function(name string) *sqlast.CreateFunctionStmt {
	return f.fns[strings.ToLower(name)]
}
func (f *fakeInfo) Procedure(name string) *sqlast.CreateProcedureStmt {
	return f.procs[strings.ToLower(name)]
}
func (f *fakeInfo) TableColumns(name string) []string { return f.tables[strings.ToLower(name)] }

func (f *fakeInfo) IsTransactionTable(name string) bool {
	return f.transaction[strings.ToLower(name)]
}

func (f *fakeInfo) IsBitemporalTable(name string) bool {
	return f.bitemporal[strings.ToLower(name)]
}

// bookInfo builds the running-example schema.
func bookInfo(t *testing.T) *fakeInfo {
	t.Helper()
	info := newFakeInfo()
	info.addTable("item", true, "id", "title")
	info.addTable("author", true, "author_id", "first_name")
	info.addTable("item_author", true, "item_id", "author_id")
	info.addTable("snapshot_notes", false, "id", "note")
	info.addRoutine(t, `
CREATE FUNCTION get_author_name (aid CHAR(10))
RETURNS CHAR(50)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE fname CHAR(50);
  SET fname = (SELECT first_name FROM author WHERE author_id = aid);
  RETURN fname;
END`)
	info.addRoutine(t, `
CREATE FUNCTION pure_math (x INTEGER)
RETURNS INTEGER
LANGUAGE SQL
BEGIN
  RETURN x * 2;
END`)
	return info
}

func parse(t *testing.T, src string) sqlast.Stmt {
	t.Helper()
	s, err := sqlparser.ParseStatement(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return s
}

// ---------- analysis ----------

func TestAnalyzeReachability(t *testing.T) {
	info := bookInfo(t)
	info.addRoutine(t, `
CREATE FUNCTION wrapper (aid CHAR(10))
RETURNS CHAR(50)
LANGUAGE SQL
BEGIN
  RETURN get_author_name(aid);
END`)
	tr := NewTranslator(info)
	a := tr.analyze(parse(t, `SELECT i.title FROM item i WHERE wrapper(i.id) = 'x'`), dimAny)
	if len(a.routines) != 2 {
		t.Fatalf("expected wrapper and get_author_name reachable, got %v", a.routines)
	}
	if !a.temporalRoutine("wrapper") || !a.temporalRoutine("get_author_name") {
		t.Fatal("temporal-ness must propagate up the call graph")
	}
	// item (direct) + author (via routine)
	if len(a.temporalTables) != 2 {
		t.Fatalf("temporal tables: %v", a.temporalTables)
	}
}

func TestAnalyzeNonTemporalRoutine(t *testing.T) {
	info := bookInfo(t)
	tr := NewTranslator(info)
	a := tr.analyze(parse(t, `SELECT id FROM snapshot_notes WHERE pure_math(id) = 4`), dimAny)
	if a.temporalRoutine("pure_math") {
		t.Fatal("pure_math must not be temporal")
	}
	if len(a.temporalTables) != 0 {
		t.Fatalf("no temporal tables expected, got %v", a.temporalTables)
	}
}

func TestAnalyzeUndefinedRoutineReferenced(t *testing.T) {
	info := bookInfo(t)
	info.addRoutine(t, `
CREATE FUNCTION broken (x INTEGER) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN missing_fn(x); END`)
	tr := NewTranslator(info)
	// missing_fn is not a defined routine: it's treated as a builtin
	// candidate, not part of the closure.
	if a := tr.analyze(parse(t, `SELECT broken(1) FROM snapshot_notes`), dimAny); len(a.routines) != 1 {
		t.Fatalf("routines %v, want [broken]", a.routines)
	}
}

func TestRecursiveRoutineAnalysis(t *testing.T) {
	info := bookInfo(t)
	info.addRoutine(t, `
CREATE FUNCTION recf (x INTEGER) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN recf(x - 1); END`)
	tr := NewTranslator(info)
	a := tr.analyze(parse(t, `SELECT recf(3) FROM item`), dimAny)
	if len(a.routines) != 1 {
		t.Fatalf("cycle must not loop: %v", a.routines)
	}
}

// A translation's routines come callees first, whatever the order the
// closure found them in: a diamond (a calls b and c, c calls b) puts b
// before c before a. Routines that call each other keep their order.
func TestRoutinesComeCalleesFirst(t *testing.T) {
	def := func(name, body string) sqlast.Stmt {
		return parse(t, `CREATE FUNCTION `+name+` (x INTEGER) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN `+body+`; END`)
	}
	names := func(defs []sqlast.Stmt) string {
		var out []string
		for _, d := range defs {
			out = append(out, d.(*sqlast.CreateFunctionStmt).Name)
		}
		return strings.Join(out, " ")
	}
	info := bookInfo(t)
	for _, tc := range []struct {
		defs []sqlast.Stmt
		want string
	}{
		{[]sqlast.Stmt{def("a", "b(x) + c(x)"), def("b", "x"), def("c", "b(x)")}, "b c a"},
		{[]sqlast.Stmt{def("a", "c(x)"), def("c", "b(x)"), def("b", "x + 1")}, "b c a"},
		{[]sqlast.Stmt{def("p", "q(x)"), def("q", "p(x)"), def("r", "q(x)"), def("s", "1")}, "s p q r"},
		{[]sqlast.Stmt{def("self", "self(x - 1)"), def("leaf", "x")}, "self leaf"},
	} {
		if got := names(calleesFirst(info, tc.defs)); got != tc.want {
			t.Errorf("%s: got %s, want %s", names(tc.defs), got, tc.want)
		}
	}
}

// ---------- current ----------

func TestCurrentAddsPredicates(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	tl, err := tr.Translate(parse(t, `SELECT i.title FROM item i, snapshot_notes n WHERE i.id = n.id`), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	sql := tl.Main.SQL()
	if !strings.Contains(sql, "i.begin_time <= CURRENT_DATE") || !strings.Contains(sql, "CURRENT_DATE < i.end_time") {
		t.Fatalf("missing current predicate for temporal table: %s", sql)
	}
	if strings.Contains(sql, "n.begin_time") {
		t.Fatalf("snapshot table must not get a predicate: %s", sql)
	}
}

func TestCurrentPredicateInSubquery(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	tl, err := tr.Translate(parse(t,
		`SELECT id FROM snapshot_notes WHERE id IN (SELECT item_id FROM item_author)`), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tl.Main.SQL(), "item_author.begin_time <= CURRENT_DATE") {
		t.Fatalf("subquery must get current predicate: %s", tl.Main.SQL())
	}
}

func TestCurrentRoutineClones(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	tl, err := tr.Translate(parse(t,
		`SELECT i.title FROM item i WHERE get_author_name(i.id) = 'Ben' AND pure_math(3) = 6`), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Routines) != 1 {
		t.Fatalf("only the temporal routine needs a clone, got %d", len(tl.Routines))
	}
	r := tl.Routines[0].SQL()
	if !strings.Contains(r, "curr_get_author_name") || !strings.Contains(r, "CURRENT_DATE") {
		t.Fatalf("bad curr_ clone: %s", r)
	}
	main := tl.Main.SQL()
	if !strings.Contains(main, "curr_get_author_name(") {
		t.Fatalf("temporal call not renamed: %s", main)
	}
	if strings.Contains(main, "curr_pure_math") {
		t.Fatalf("non-temporal call must stay: %s", main)
	}
}

func TestCurrentInsertValues(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	tl, err := tr.Translate(parse(t, `INSERT INTO item VALUES ('i9', 'New Book')`), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	sql := tl.Main.SQL()
	if !strings.Contains(sql, "CURRENT_DATE") || !strings.Contains(sql, "9999-12-31") {
		t.Fatalf("current insert must append [now, forever): %s", sql)
	}
}

func TestCurrentDeleteClosesPeriods(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	tl, err := tr.Translate(parse(t, `DELETE FROM item WHERE id = 'i1'`), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	upd, ok := tl.Main.(*sqlast.UpdateStmt)
	if !ok {
		t.Fatalf("current delete must become an update, got %T", tl.Main)
	}
	if upd.Sets[0].Column != "end_time" {
		t.Fatalf("must set end_time: %s", tl.Main.SQL())
	}
}

func TestCurrentUpdateVersions(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	tl, err := tr.Translate(parse(t, `UPDATE item SET title = 'X' WHERE id = 'i1'`), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Setup) != 1 {
		t.Fatalf("expected insert-new-versions setup, got %d statements", len(tl.Setup))
	}
	if _, ok := tl.Setup[0].(*sqlast.InsertStmt); !ok {
		t.Fatalf("setup must insert, got %T", tl.Setup[0])
	}
	if _, ok := tl.Main.(*sqlast.UpdateStmt); !ok {
		t.Fatalf("main must close old versions, got %T", tl.Main)
	}
}

func TestRoutineDefinitionsPassThrough(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	src := `CREATE FUNCTION g (x INTEGER) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN (SELECT id FROM item WHERE title = 'a'); END`
	tl, err := tr.Translate(parse(t, src), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(tl.Main.SQL(), "CURRENT_DATE") {
		t.Fatalf("stored definition must not be rewritten: %s", tl.Main.SQL())
	}
}

// ---------- sequenced: MAX ----------

func seqStmt(t *testing.T, q string) sqlast.Stmt {
	return parse(t, "VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') "+q)
}

func TestMaxSliceShapes(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	tl, err := tr.Translate(seqStmt(t, `SELECT i.title FROM item i WHERE get_author_name(i.id) = 'Ben'`), StrategyMax)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Strategy != StrategyMax {
		t.Fatal("strategy")
	}
	all := tl.SQL()
	for _, want := range []string{
		"CREATE TEMPORARY TABLE taupsm_ts",
		"CREATE TEMPORARY TABLE taupsm_cp",
		"NOT EXISTS",
		"max_get_author_name (aid CHAR(10), begin_time_in DATE)",
		"max_get_author_name(i.id, cp.begin_time)",
		"i.begin_time <= cp.begin_time AND cp.begin_time < i.end_time",
		"author.begin_time <= begin_time_in",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("MAX translation missing %q:\n%s", want, all)
		}
	}
	// The Figure-8 script is built when asked for, not stored.
	if setup, teardown := tl.Script(); len(tl.Setup)+len(tl.Teardown) != 0 || len(setup) == 0 || len(teardown) == 0 {
		t.Errorf("stored %d/%d Figure-8 statements, built %d/%d: want none stored, teardown drops built", len(tl.Setup), len(tl.Teardown), len(setup), len(teardown))
	}
	// The clone's appended parameter carries the mark the engine's
	// validity windows go by; its text does not, so a re-parsed clone is
	// an ordinary routine.
	clone := tl.Routines[0].(*sqlast.CreateFunctionStmt)
	if p := clone.Params; p[0].Instant || !p[1].Instant {
		t.Errorf("instant marks on %v, want only begin_time_in's", p)
	}
	if p := parse(t, clone.SQL()).(*sqlast.CreateFunctionStmt).Params; p[1].Instant {
		t.Error("the instant mark survived printing and parsing")
	}
}

func TestMaxNestedRoutinePropagation(t *testing.T) {
	info := bookInfo(t)
	info.addRoutine(t, `
CREATE FUNCTION wrapper (aid CHAR(10)) RETURNS CHAR(50) LANGUAGE SQL
BEGIN RETURN get_author_name(aid); END`)
	tr := NewTranslator(info)
	tl, err := tr.Translate(seqStmt(t, `SELECT i.title FROM item i WHERE wrapper(i.id) = 'Ben'`), StrategyMax)
	if err != nil {
		t.Fatal(err)
	}
	all := tl.SQL()
	if !strings.Contains(all, "max_get_author_name(aid, begin_time_in)") {
		t.Fatalf("instant must propagate to nested calls:\n%s", all)
	}
}

func TestMaxSnapshotOnlyQuery(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	tl, err := tr.Translate(seqStmt(t, `SELECT note FROM snapshot_notes`), StrategyMax)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Setup) != 0 {
		t.Fatal("snapshot-only sequenced query needs no cp")
	}
	sql := tl.Main.SQL()
	if !strings.Contains(sql, "DATE '2010-01-01' AS begin_time") {
		t.Fatalf("result must carry the context period: %s", sql)
	}
}

func TestMaxAggregateGroupsByPeriod(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	tl, err := tr.Translate(seqStmt(t, `SELECT COUNT(*) FROM item`), StrategyMax)
	if err != nil {
		t.Fatal(err)
	}
	sql := tl.Main.SQL()
	if !strings.Contains(sql, "GROUP BY cp.begin_time, cp.end_time") {
		t.Fatalf("sequenced aggregate must group by constant period: %s", sql)
	}
}

func TestMaxInnerModifierRejected(t *testing.T) {
	info := bookInfo(t)
	info.addRoutine(t, `
CREATE FUNCTION weird (x INTEGER) RETURNS INTEGER LANGUAGE SQL
BEGIN
  DECLARE n INTEGER DEFAULT 0;
  FOR r AS NONSEQUENCED VALIDTIME SELECT id FROM item DO SET n = n + 1; END FOR;
  RETURN n;
END`)
	tr := NewTranslator(info)
	_, err := tr.Translate(seqStmt(t, `SELECT weird(1) FROM item`), StrategyMax)
	if !errors.Is(err, ErrSequencedModifierInRoutine) {
		t.Fatalf("expected semantic error, got %v", err)
	}
}

// ---------- sequenced: PERST ----------

func TestPerstSignatureAndReturn(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	tl, err := tr.Translate(seqStmt(t, `SELECT i.title FROM item i WHERE get_author_name(i.id) = 'Ben'`), StrategyPerStatement)
	if err != nil {
		t.Fatal(err)
	}
	all := tl.SQL()
	for _, want := range []string{
		"ps_get_author_name (aid CHAR(10), period_begin DATE, period_end DATE)",
		"RETURNS ROW(taupsm_result CHAR(50), begin_time DATE, end_time DATE) ARRAY",
		"TABLE(ps_get_author_name(i.id, DATE '2010-01-01', DATE '2011-01-01')) AS taupsm_f",
		"LAST_INSTANCE",
		"FIRST_INSTANCE",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("PERST translation missing %q:\n%s", want, all)
		}
	}
}

func TestPerstRejectsTemporalSubquery(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	_, err := tr.Translate(seqStmt(t,
		`SELECT note FROM snapshot_notes WHERE id IN (SELECT item_id FROM item_author)`), StrategyPerStatement)
	if !errors.Is(err, ErrNotTransformable) {
		t.Fatalf("expected ErrNotTransformable, got %v", err)
	}
}

func TestPerstRejectsTemporalAggregate(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	_, err := tr.Translate(seqStmt(t, `SELECT COUNT(*) FROM item`), StrategyPerStatement)
	if !errors.Is(err, ErrNotTransformable) {
		t.Fatalf("expected ErrNotTransformable, got %v", err)
	}
}

func TestPerstRejectsTimeVaryingIf(t *testing.T) {
	info := bookInfo(t)
	info.addRoutine(t, `
CREATE FUNCTION tvif (aid CHAR(10)) RETURNS INTEGER LANGUAGE SQL
BEGIN
  DECLARE nm CHAR(50);
  SET nm = (SELECT first_name FROM author WHERE author_id = aid);
  IF nm = 'Ben' THEN RETURN 1; END IF;
  RETURN 0;
END`)
	tr := NewTranslator(info)
	_, err := tr.Translate(seqStmt(t, `SELECT tvif(id) FROM item`), StrategyPerStatement)
	if !errors.Is(err, ErrNotTransformable) {
		t.Fatalf("expected ErrNotTransformable for IF over time-varying condition, got %v", err)
	}
}

func TestPerstAccumulatorBecomesTimeVarying(t *testing.T) {
	info := bookInfo(t)
	info.addRoutine(t, `
CREATE FUNCTION cnt (iid CHAR(10)) RETURNS INTEGER LANGUAGE SQL
BEGIN
  DECLARE done INTEGER DEFAULT 0;
  DECLARE n INTEGER DEFAULT 0;
  DECLARE aid CHAR(10) DEFAULT '';
  DECLARE cur CURSOR FOR SELECT author_id FROM item_author WHERE item_id = iid;
  DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
  OPEN cur;
  wl: WHILE done = 0 DO
    FETCH cur INTO aid;
    IF done = 0 THEN SET n = n + 1; END IF;
  END WHILE wl;
  CLOSE cur;
  RETURN n;
END`)
	tr := NewTranslator(info)
	tl, err := tr.Translate(seqStmt(t, `SELECT cnt(id) FROM item`), StrategyPerStatement)
	if err != nil {
		t.Fatal(err)
	}
	if !tl.UsesPerPeriodCursor {
		t.Fatal("per-period cursor use must be reported")
	}
	all := tl.SQL()
	// n must have become a collection variable...
	if !strings.Contains(all, "DECLARE n ROW(taupsm_result INTEGER") {
		t.Fatalf("accumulator must become time-varying:\n%s", all)
	}
	// ...while the done flag stays scalar.
	if !strings.Contains(all, "DECLARE done INTEGER DEFAULT 0") {
		t.Fatalf("control flag must stay scalar:\n%s", all)
	}
	// the cursor gains period columns and the fetch gains aux targets
	if !strings.Contains(all, "taupsm_bt") {
		t.Fatalf("fetch must capture the period:\n%s", all)
	}
}

func TestPerstNonNestedFetchRejected(t *testing.T) {
	info := bookInfo(t)
	info.addRoutine(t, `
CREATE FUNCTION nnf (iid CHAR(10)) RETURNS INTEGER LANGUAGE SQL
BEGIN
  DECLARE done INTEGER DEFAULT 0;
  DECLARE aid CHAR(10) DEFAULT '';
  DECLARE n INTEGER DEFAULT 0;
  DECLARE cur CURSOR FOR SELECT author_id FROM item_author WHERE item_id = iid;
  DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
  OPEN cur;
  FOR r AS SELECT first_name FROM author DO
    FETCH cur INTO aid;
    SET n = n + 1;
  END FOR;
  CLOSE cur;
  RETURN n;
END`)
	tr := NewTranslator(info)
	_, err := tr.Translate(seqStmt(t, `SELECT nnf(id) FROM item`), StrategyPerStatement)
	if !errors.Is(err, ErrNotTransformable) || !strings.Contains(err.Error(), "non-nested FETCH") {
		t.Fatalf("expected non-nested FETCH rejection, got %v", err)
	}
}

func TestPerstProcedureOutBecomesCollection(t *testing.T) {
	info := bookInfo(t)
	info.addRoutine(t, `
CREATE PROCEDURE getp (IN iid CHAR(10), OUT ttl CHAR(100))
LANGUAGE SQL
BEGIN
  SET ttl = (SELECT title FROM item WHERE id = iid);
END`)
	info.addRoutine(t, `
CREATE FUNCTION callp (iid CHAR(10)) RETURNS CHAR(100) LANGUAGE SQL
BEGIN
  DECLARE v CHAR(100) DEFAULT '';
  CALL getp(iid, v);
  RETURN v;
END`)
	tr := NewTranslator(info)
	tl, err := tr.Translate(seqStmt(t, `SELECT callp(id) FROM item`), StrategyPerStatement)
	if err != nil {
		t.Fatal(err)
	}
	all := tl.SQL()
	if !strings.Contains(all, "OUT ttl ROW(taupsm_result CHAR(100)") {
		t.Fatalf("OUT parameter must become a collection:\n%s", all)
	}
	if !strings.Contains(all, "ps_getp(iid, v, period_begin, period_end)") {
		t.Fatalf("CALL must pass the period:\n%s", all)
	}
}

// ---------- sequenced DML ----------

func TestSequencedDeleteTranslation(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	tl, err := tr.Translate(seqStmt(t, `DELETE FROM item WHERE id = 'i1'`), StrategyMax)
	if err != nil {
		t.Fatal(err)
	}
	all := tl.SQL()
	for _, want := range []string{"taupsm_dml", "DELETE FROM item", "INSERT INTO item"} {
		if !strings.Contains(all, want) {
			t.Errorf("sequenced delete missing %q:\n%s", want, all)
		}
	}
}

func TestSequencedUpdateTranslation(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	tl, err := tr.Translate(seqStmt(t, `UPDATE item SET title = 'X' WHERE id = 'i1'`), StrategyPerStatement)
	if err != nil {
		t.Fatal(err)
	}
	all := tl.SQL()
	if !strings.Contains(all, "LAST_INSTANCE(item.begin_time, DATE '2010-01-01')") {
		t.Errorf("updated portion must clip periods:\n%s", all)
	}
}

func TestSequencedInsertTranslation(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	tl, err := tr.Translate(seqStmt(t, `INSERT INTO item VALUES ('i9', 'T')`), StrategyMax)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tl.Main.SQL(), "DATE '2010-01-01', DATE '2011-01-01'") {
		t.Errorf("sequenced insert must timestamp with the context: %s", tl.Main.SQL())
	}
}

func TestSequencedDMLOnSnapshotRejected(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	if _, err := tr.Translate(seqStmt(t, `DELETE FROM snapshot_notes`), StrategyMax); err == nil {
		t.Fatal("sequenced delete of a snapshot table must fail")
	}
}

// ---------- nonsequenced ----------

func TestNonsequencedPassThrough(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	tl, err := tr.Translate(parse(t, `NONSEQUENCED VALIDTIME SELECT begin_time FROM item`), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Main.SQL() != "SELECT begin_time FROM item" {
		t.Fatalf("nonsequenced must strip the modifier only: %s", tl.Main.SQL())
	}
}

// A routine with an inner modifier gets its nonseq_ clone whatever case
// the statement writes its name in.
func TestNonsequencedCloneAnyCase(t *testing.T) {
	info := bookInfo(t)
	info.addRoutine(t, `
CREATE FUNCTION inner_seq (x INTEGER) RETURNS INTEGER
BEGIN
  DECLARE n INTEGER;
  FOR r AS VALIDTIME (DATE '2010-01-01', DATE '2010-01-15') SELECT id FROM item DO
    SET n = 1;
  END FOR;
  RETURN n;
END`)
	tr := NewTranslator(info)
	for _, name := range []string{"inner_seq", "INNER_SEQ"} {
		tl, err := tr.Translate(parse(t, `NONSEQUENCED VALIDTIME SELECT `+name+`(1) FROM item`), StrategyAuto)
		if err != nil {
			t.Fatal(err)
		}
		if len(tl.Routines) != 1 || !strings.Contains(tl.Main.SQL(), "nonseq_"+name) {
			t.Errorf("%s: %d clones, main %s", name, len(tl.Routines), tl.Main.SQL())
		}
	}
}

// ---------- heuristic ----------

func TestHeuristicClauses(t *testing.T) {
	base := Features{PerstTransformable: true, TemporalRows: 100_000, ContextDays: 365}
	if Choose(base) != StrategyPerStatement {
		t.Fatal("default must be PERST")
	}
	a := base
	a.PerstTransformable = false
	if Choose(a) != StrategyMax {
		t.Fatal("clause (a)")
	}
	b := base
	b.UsesPerPeriodCursor = true
	if Choose(b) != StrategyMax {
		t.Fatal("clause (b): per-period cursors on a large data set")
	}
	b.TemporalRows = 1000
	if Choose(b) != StrategyPerStatement {
		t.Fatal("clause (b) requires a large data set")
	}
	c := base
	c.TemporalRows = 1000
	c.ContextDays = 1
	if Choose(c) != StrategyMax {
		t.Fatal("clause (c): small database, short context")
	}
	c.ContextDays = 365
	if Choose(c) != StrategyPerStatement {
		t.Fatal("clause (c) requires a short context")
	}
}

// ---------- Translation rendering ----------

func TestTranslationSQLOrdering(t *testing.T) {
	tr := NewTranslator(bookInfo(t))
	tl, err := tr.Translate(seqStmt(t, `SELECT i.title FROM item i WHERE get_author_name(i.id) = 'Ben'`), StrategyMax)
	if err != nil {
		t.Fatal(err)
	}
	all := tl.SQL()
	ri := strings.Index(all, "max_get_author_name")
	si := strings.Index(all, "taupsm_cp")
	mi := strings.Index(all, "SELECT cp.begin_time")
	if !(ri < si && si < mi) {
		t.Fatalf("script order must be routines, setup, main:\n%s", all)
	}
}

// ---------- transaction time ----------

// ttInfo extends the book schema with a transaction-time audit table.
func ttInfo(t *testing.T) *fakeInfo {
	info := bookInfo(t)
	info.addTable("audit_log", true, "id", "note")
	info.transaction = map[string]bool{"audit_log": true}
	return info
}

func TestTransactionTimeSlicedSeparately(t *testing.T) {
	info := ttInfo(t)
	tr := NewTranslator(info)
	// TRANSACTIONTIME over the audit table: sliced like valid time.
	tl, err := tr.Translate(parse(t,
		`TRANSACTIONTIME (DATE '2024-01-01', DATE '2024-06-01') SELECT note FROM audit_log`), StrategyMax)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.TemporalTables) != 1 || tl.TemporalTables[0] != "audit_log" {
		t.Fatalf("audit_log must be the sliced operand: %v", tl.TemporalTables)
	}
	// VALIDTIME over the audit table: audit_log carries only
	// transaction time, so it is not sliced — it is pinned to the
	// current transaction-time context instead.
	tl, err = tr.Translate(parse(t, `VALIDTIME SELECT note FROM audit_log`), StrategyMax)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.TemporalTables) != 0 {
		t.Fatalf("audit_log must not be a sliced operand of a VALIDTIME statement: %v", tl.TemporalTables)
	}
	if sql := tl.Main.SQL(); !strings.Contains(sql, "audit_log.begin_time <= CURRENT_DATE") {
		t.Fatalf("audit_log must be filtered to the current transaction-time context: %s", sql)
	}
	// Mixing dimensions in one sequenced statement: the table carrying
	// the sliced dimension is sliced, the other is context-filtered.
	tl, err = tr.Translate(parse(t,
		`TRANSACTIONTIME SELECT a.note FROM audit_log a, item i WHERE a.id = i.id`), StrategyMax)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.TemporalTables) != 1 || tl.TemporalTables[0] != "audit_log" {
		t.Fatalf("only audit_log carries transaction time: %v", tl.TemporalTables)
	}
	if sql := tl.SQL(); !strings.Contains(sql, "i.begin_time <= CURRENT_DATE") {
		t.Fatalf("item must be filtered to the current valid-time context: %s", sql)
	}
}

func TestTransactionTimeCurrentCoversBothDims(t *testing.T) {
	info := ttInfo(t)
	tr := NewTranslator(info)
	tl, err := tr.Translate(parse(t, `SELECT a.note, i.title FROM audit_log a, item i WHERE a.id = i.id`), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	sql := tl.Main.SQL()
	if !strings.Contains(sql, "a.begin_time <= CURRENT_DATE") || !strings.Contains(sql, "i.begin_time <= CURRENT_DATE") {
		t.Fatalf("current semantics must filter both dimensions: %s", sql)
	}
}

func TestTransactionTimeDMLProtection(t *testing.T) {
	info := ttInfo(t)
	tr := NewTranslator(info)
	// Sequenced TT modification: rejected.
	if _, err := tr.Translate(parse(t,
		`TRANSACTIONTIME (DATE '2024-01-01', DATE '2024-02-01') DELETE FROM audit_log`), StrategyMax); err == nil {
		t.Fatal("sequenced transaction-time DML must be rejected")
	}
	// Sequenced valid-time DML against a TT table: rejected.
	if _, err := tr.Translate(parse(t,
		`VALIDTIME (DATE '2024-01-01', DATE '2024-02-01') DELETE FROM audit_log`), StrategyMax); err == nil {
		t.Fatal("sequenced DML against a transaction-time table must be rejected")
	}
	// Nonsequenced DML with manual timestamps: rejected.
	if _, err := tr.Translate(parse(t,
		`NONSEQUENCED TRANSACTIONTIME INSERT INTO audit_log VALUES ('x', 'y', DATE '2000-01-01', DATE '2001-01-01')`),
		StrategyAuto); err == nil {
		t.Fatal("manual transaction timestamps must be rejected")
	}
	// Current DML: fine (automatic auditing).
	if _, err := tr.Translate(parse(t, `DELETE FROM audit_log WHERE id = 'x'`), StrategyAuto); err != nil {
		t.Fatalf("current delete must audit automatically: %v", err)
	}
}

// ---------- bitemporal tables ----------

// biInfo extends the book schema with a bitemporal position table.
func biInfo(t *testing.T) *fakeInfo {
	info := bookInfo(t)
	info.addBitemporalTable("position", "id", "title")
	return info
}

func TestBitemporalSlicingBothDims(t *testing.T) {
	info := biInfo(t)
	tr := NewTranslator(info)

	// VALIDTIME slicing: position is a sliced operand and its
	// transaction time is pinned to the current belief.
	tl, err := tr.Translate(parse(t,
		`VALIDTIME (DATE '2011-01-01', DATE '2012-01-01') SELECT title FROM position`), StrategyMax)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.TemporalTables) != 1 || tl.TemporalTables[0] != "position" {
		t.Fatalf("position must be sliced: %v", tl.TemporalTables)
	}
	if sql := tl.SQL(); !strings.Contains(sql, "tt_begin_time <= CURRENT_DATE") {
		t.Fatalf("VALIDTIME slice must pin transaction time to the current belief: %s", sql)
	}

	// TRANSACTIONTIME slicing: sliced along tt_begin_time/tt_end_time,
	// valid time pinned to the current context.
	tl, err = tr.Translate(parse(t,
		`TRANSACTIONTIME (DATE '2011-01-01', DATE '2012-01-01') SELECT title FROM position`), StrategyMax)
	if err != nil {
		t.Fatal(err)
	}
	sql := tl.SQL()
	if !strings.Contains(sql, "position.tt_begin_time") {
		t.Fatalf("TRANSACTIONTIME slice must read the tt period columns: %s", sql)
	}
	if !strings.Contains(sql, "position.begin_time <= CURRENT_DATE") {
		t.Fatalf("TRANSACTIONTIME slice must pin valid time to the current context: %s", sql)
	}
}

func TestBitemporalCombinedModifier(t *testing.T) {
	info := biInfo(t)
	tr := NewTranslator(info)
	// The audit question: what did we believe on 2010-06-01 about
	// validity during 2011?
	tl, err := tr.Translate(parse(t,
		`VALIDTIME (DATE '2011-01-01', DATE '2012-01-01') AND TRANSACTIONTIME (DATE '2010-06-01') SELECT title FROM position`),
		StrategyMax)
	if err != nil {
		t.Fatal(err)
	}
	sql := tl.SQL()
	if !strings.Contains(sql, "tt_begin_time < ") || !strings.Contains(sql, "DATE '2010-06-01'") {
		t.Fatalf("explicit transaction-time context must become an overlap filter: %s", sql)
	}
	if strings.Contains(sql, "tt_begin_time <= CURRENT_DATE") {
		t.Fatalf("explicit context must replace the current-belief default: %s", sql)
	}
}

func TestBitemporalCurrentDMLVersionsTT(t *testing.T) {
	info := biInfo(t)
	tr := NewTranslator(info)

	// A current UPDATE closes the old belief and asserts the new one.
	tl, err := tr.Translate(parse(t, `UPDATE position SET title = 'x' WHERE id = 'p1'`), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	sql := tl.SQL()
	if !strings.Contains(sql, "SET tt_end_time = CURRENT_DATE") {
		t.Fatalf("current update must close the superseded belief: %s", sql)
	}
	if len(tl.Setup) == 0 {
		t.Fatalf("current update must insert new versions via setup statements")
	}

	// A current DELETE likewise closes rather than removes.
	tl, err = tr.Translate(parse(t, `DELETE FROM position WHERE id = 'p1'`), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if sql := tl.SQL(); !strings.Contains(sql, "SET tt_end_time = CURRENT_DATE") {
		t.Fatalf("current delete must close the superseded belief: %s", sql)
	}
}

func TestBitemporalSequencedDMLVersionsTT(t *testing.T) {
	info := biInfo(t)
	tr := NewTranslator(info)
	tl, err := tr.Translate(parse(t,
		`VALIDTIME (DATE '2011-03-01', DATE '2011-06-01') DELETE FROM position WHERE id = 'p1'`), StrategyMax)
	if err != nil {
		t.Fatal(err)
	}
	sql := tl.SQL()
	if !strings.Contains(sql, "SET tt_end_time = CURRENT_DATE") {
		t.Fatalf("sequenced delete on a bitemporal table must retire beliefs, not rows: %s", sql)
	}
	// Sequenced TT DML stays rejected even on bitemporal tables.
	if _, err := tr.Translate(parse(t,
		`TRANSACTIONTIME (DATE '2011-01-01', DATE '2011-06-01') DELETE FROM position`), StrategyMax); err == nil {
		t.Fatal("sequenced transaction-time DML must stay rejected")
	}
	// An explicit context cannot be combined with a modification.
	if _, err := tr.Translate(parse(t,
		`VALIDTIME (DATE '2011-03-01', DATE '2011-06-01') AND TRANSACTIONTIME (DATE '2010-01-01') DELETE FROM position`),
		StrategyMax); err == nil {
		t.Fatal("explicit context on DML must be rejected")
	}
}

func TestBitemporalNonsequencedInsert(t *testing.T) {
	info := biInfo(t)
	tr := NewTranslator(info)
	// Top-level nonsequenced INSERT supplies the valid-time period;
	// the stratum appends the transaction-time pair.
	tl, err := tr.Translate(parse(t,
		`NONSEQUENCED VALIDTIME INSERT INTO position VALUES ('p1', 'x', DATE '2011-01-01', DATE '2012-01-01')`),
		StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if sql := tl.SQL(); !strings.Contains(sql, "CURRENT_DATE") || !strings.Contains(sql, "DATE '9999-12-31'") {
		t.Fatalf("nonsequenced insert must append the tt pair: %s", sql)
	}
	// Manual transaction timestamps stay rejected.
	if _, err := tr.Translate(parse(t,
		`NONSEQUENCED VALIDTIME INSERT INTO position (id, title, begin_time, end_time, tt_begin_time, tt_end_time) VALUES ('p1', 'x', DATE '2011-01-01', DATE '2012-01-01', DATE '2000-01-01', DATE '2001-01-01')`),
		StrategyAuto); err == nil {
		t.Fatal("manual transaction timestamps must be rejected")
	}
	// Nonsequenced UPDATE/DELETE of a bitemporal table: rejected.
	if _, err := tr.Translate(parse(t,
		`NONSEQUENCED VALIDTIME DELETE FROM position WHERE id = 'p1'`), StrategyAuto); err == nil {
		t.Fatal("nonsequenced delete of a bitemporal table must be rejected")
	}
}
