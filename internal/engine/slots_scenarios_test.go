package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"taupsm"
	"taupsm/internal/check"
	"taupsm/internal/engine"
	"taupsm/internal/enginetest"
	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/taubench"
)

// A routine's names are bound when its body compiles (slots.go). The
// reference is the interpreter they replaced, kept in
// resolver_reference_test.go: every name looked up by name when it is
// evaluated, in frames each block binds as it runs. The oracle runs the
// same statements on two databases, one of each, and compares every
// result, every error text (which carries a condition's SQLSTATE) and
// every engine counter.

// twin is a database on slots beside one resolving by name.
type twin struct {
	t          *testing.T
	slots, ref *taupsm.DB
	compared   int
}

func newTwin(t *testing.T, now enginetest.Clock) *twin {
	w := &twin{t: t, slots: taupsm.Open(), ref: taupsm.Open()}
	engine.ResolveByName(w.ref.Engine())
	if now == (enginetest.Clock{}) {
		now = enginetest.Clock{Year: 2011, Month: 1, Day: 1}
	}
	for _, db := range []*taupsm.DB{w.slots, w.ref} {
		db.SetNow(now.Year, now.Month, now.Day)
	}
	return w
}

func (w *twin) close() { w.slots.Close(); w.ref.Close() }

func outcome(res *taupsm.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(res.Columns, enginetest.RenderRows(res), res.Affected)
}

// run runs src on both as a query (or, exec, for effect) and compares.
func (w *twin) run(label, src string, exec bool) {
	w.t.Helper()
	do := func(db *taupsm.DB) string {
		if exec {
			return outcome(db.Exec(src))
		}
		return outcome(db.Query(src))
	}
	got, want := do(w.slots), do(w.ref)
	if got != want {
		w.t.Errorf("%s: %s\non slots: %s\nby name:  %s", label, src, got, want)
	}
	if gs, ws := w.slots.Engine().Stats, w.ref.Engine().Stats; gs != ws {
		w.t.Errorf("%s: %s\nengine counters on slots %+v\nby name %+v", label, src, gs, ws)
	}
	w.compared++
}

// both applies f to the two databases.
func (w *twin) both(f func(db *taupsm.DB)) { f(w.slots); f(w.ref) }

func TestSlotsEqualNameResolver(t *testing.T) {
	t.Run("scenarios", func(t *testing.T) {
		compared := 0
		for _, sc := range enginetest.Scenarios {
			t.Run(sc.Name, func(t *testing.T) {
				w := newTwin(t, sc.Now)
				defer w.close()
				for i, st := range append(append([]enginetest.Step{}, sc.Setup...), sc.Steps...) {
					if st.SetNow != nil {
						w.both(func(db *taupsm.DB) { db.SetNow(st.SetNow.Year, st.SetNow.Month, st.SetNow.Day) })
					}
					label := fmt.Sprintf("step %d", i)
					switch {
					case st.Exec != "":
						w.run(label, st.Exec, true)
					case st.Query != "":
						for _, s := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
							w.both(func(db *taupsm.DB) { db.SetStrategy(s) })
							w.run(fmt.Sprintf("%s [%s]", label, s), st.Query, false)
						}
					}
				}
				compared += w.compared
			})
		}
		if compared < 300 {
			t.Errorf("only %d scenario statements compared", compared)
		}
	})
	t.Run("corpus", func(t *testing.T) {
		spec, err := taubench.SpecByName("DS1", taubench.Small)
		if err != nil {
			t.Fatal(err)
		}
		w := newTwin(t, enginetest.Clock{})
		defer w.close()
		w.both(func(db *taupsm.DB) { enginetest.LoadCorpus(t, db, spec) })
		for _, q := range taubench.Queries() {
			for _, s := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
				w.both(func(db *taupsm.DB) { db.SetStrategy(s) })
				w.run(fmt.Sprintf("%s sequenced [%s]", q.Name, s), taubench.SequencedSQL(q, 30), false)
				w.run(fmt.Sprintf("%s current [%s]", q.Name, s), q.Text, false)
			}
		}
	})
	t.Run("generated", func(t *testing.T) {
		// On bare engines: no CREATE-time analysis, so routines may call
		// one defined after them, and each other.
		answered := 0
		for seed := int64(0); seed < 150; seed++ {
			slots, ref := engine.New(), engine.New()
			engine.ResolveByName(ref)
			script, calls := genScoping(rand.New(rand.NewSource(seed)))
			for _, db := range []*engine.DB{slots, ref} {
				if _, err := db.ExecScript(script); err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, script)
				}
			}
			for _, c := range calls {
				render := func(db *engine.DB) string {
					res, err := db.ExecScript(c)
					if err != nil {
						return "error: " + err.Error()
					}
					return fmt.Sprint(res.Rows)
				}
				got, want := render(slots), render(ref)
				if got != want || slots.Stats != ref.Stats {
					t.Fatalf("seed %d: %s\non slots: %s %+v\nby name:  %s %+v\n%s", seed, c, got, slots.Stats, want, ref.Stats, script)
				}
				if !strings.HasPrefix(got, "error") {
					answered++
				}
			}
		}
		if answered < 300 {
			t.Errorf("only %d of 600 generated calls answered", answered)
		}
		t.Logf("%d of 600 generated calls answered", answered)
	})
}

// genScoping generates routines whose names collide on purpose — with
// each other, with columns and with tables — and the queries that call
// them: nested blocks that redeclare a name, a FOR row whose column is
// named like a variable, a collection variable named like a catalog
// table, a scalar beside a temporary table of its name, a cursor opened
// in an inner block that shadows a name its query reads, handlers in
// outer blocks, and calls between the routines, recursion included.
func genScoping(r *rand.Rand) (script string, calls []string) {
	var b strings.Builder
	b.WriteString("CREATE TABLE t (k INTEGER, x INTEGER, v INTEGER);\n")
	b.WriteString("INSERT INTO t VALUES (1, 10, 100), (2, 20, 200), (3, 30, 300);\n")
	b.WriteString("CREATE TABLE c (v INTEGER);\nINSERT INTO c VALUES (7), (8);\n")
	names := []string{"x", "v", "k", "c", "n"}
	pick := func() string { return names[r.Intn(len(names))] }
	const fns = 4
	for f := 0; f < fns; f++ {
		fmt.Fprintf(&b, "CREATE FUNCTION f%d (n INTEGER) RETURNS INTEGER BEGIN\n", f)
		b.WriteString("DECLARE x INTEGER DEFAULT n;\nDECLARE v INTEGER DEFAULT 1;\nDECLARE r INTEGER DEFAULT 0;\n")
		if r.Intn(2) == 0 {
			b.WriteString("DECLARE CONTINUE HANDLER FOR SQLSTATE '70001' SET r = r + 1000;\n")
		}
		if r.Intn(2) == 0 {
			b.WriteString("DECLARE EXIT HANDLER FOR SQLEXCEPTION RETURN -r;\n")
		}
		for s, nstmt := 0, 2+r.Intn(4); s < nstmt; s++ {
			switch r.Intn(11) {
			case 0: // nested blocks that redeclare a name
				y := pick()
				fmt.Fprintf(&b, "BEGIN DECLARE %s INTEGER DEFAULT %s + 1; SET r = r + %s; BEGIN DECLARE %s INTEGER DEFAULT %s * 2; SET r = r + %s; END; SET r = r + %s; END;\n", y, pick(), y, y, y, y, y)
			case 1: // a FOR row whose column is named like a variable
				fmt.Fprintf(&b, "FOR row AS SELECT k, x AS %s FROM t WHERE k <= n DO SET r = r + %s + v; END FOR;\n", pick(), pick())
			case 2: // a collection variable named like a catalog table
				fmt.Fprintf(&b, "BEGIN DECLARE c ROW(v INTEGER) ARRAY; INSERT INTO TABLE c VALUES (%s); INSERT INTO c SELECT v FROM t WHERE k = 1; SET r = r + (SELECT SUM(v) FROM c); END;\n", pick())
			case 3: // a scalar beside a temporary table of its name
				fmt.Fprintf(&b, "BEGIN DECLARE tt INTEGER DEFAULT %s; CREATE TEMPORARY TABLE tt (v INTEGER); INSERT INTO tt VALUES (tt); SET r = r + tt + (SELECT MAX(v) FROM tt); DROP TABLE tt; END;\n", pick())
			case 4: // a cursor opened in an inner block that shadows a name its query reads
				fmt.Fprintf(&b, "BEGIN DECLARE cur CURSOR FOR SELECT x + %s FROM t WHERE k = 1; DECLARE q INTEGER DEFAULT 0; BEGIN DECLARE %s INTEGER DEFAULT 5; OPEN cur; END; FETCH cur INTO q; CLOSE cur; SET r = r + q; END;\n", pick(), pick())
			case 5: // a handler in an outer block
				fmt.Fprintf(&b, "BEGIN DECLARE x INTEGER DEFAULT 3; IF %s > %d THEN SIGNAL SQLSTATE '70001'; END IF; SET r = r + x; END;\n", pick(), r.Intn(20))
			case 6: // a call of another routine, recursion included
				fmt.Fprintf(&b, "IF n > 0 THEN SET r = r + f%d(n - 1); END IF;\n", r.Intn(fns))
			case 7: // an UPDATE and DELETE whose WHERE reads a variable beside the target's columns
				fmt.Fprintf(&b, "BEGIN DECLARE c ROW(k INTEGER, v INTEGER) ARRAY; INSERT INTO TABLE c SELECT k, v FROM t; UPDATE c SET v = v + %s WHERE k = %s; DELETE FROM c WHERE v > x * 20; SET r = r + (SELECT COUNT(*) FROM c); END;\n", pick(), pick())
			case 9: // an inner block writing a temporary table its outer block creates further down, on the loop's next turn
				fmt.Fprintf(&b, "BEGIN DECLARE i INTEGER DEFAULT 0; WHILE i < 3 DO BEGIN IF i > 0 THEN INSERT INTO tq VALUES (%s); END IF; END; IF i = 0 THEN CREATE TEMPORARY TABLE tq (v INTEGER); END IF; SET i = i + 1; END WHILE; SET r = r + (SELECT SUM(v) FROM tq); END;\n", pick())
			case 10: // a block entered twice that redeclares a name, declares a scalar beside a collection of its name, and ends with its temporary table existing and its cursor open
				fmt.Fprintf(&b, "BEGIN DECLARE i INTEGER DEFAULT 0; WHILE i < 2 DO BEGIN DECLARE d INTEGER DEFAULT %s; DECLARE d INTEGER DEFAULT d + 1; DECLARE c ROW(v INTEGER) ARRAY; DECLARE c INTEGER DEFAULT 4; DECLARE cz CURSOR FOR SELECT v FROM t; CREATE TEMPORARY TABLE tz (v INTEGER); INSERT INTO tz VALUES (d); OPEN cz; SET r = r + c + d + (SELECT SUM(v) FROM tz); END; SET i = i + 1; END WHILE; END;\n", pick())
			case 8: // a correlated subquery reading the outer row, a variable and a column named alike
				fmt.Fprintf(&b, "SET r = r + (SELECT MAX(t1.x) FROM t t1 WHERE t1.k <= (SELECT COUNT(*) FROM t t2 WHERE t2.x <= t1.x + %s));\n", pick())
			}
		}
		b.WriteString("RETURN r + x;\nEND;\n")
	}
	for f := 0; f < fns; f++ {
		calls = append(calls, fmt.Sprintf("SELECT k, f%d(k) FROM t", f))
	}
	return b.String(), calls
}

// Every MAX, PERST and current clone the corpus and the scenarios
// register binds every name its own statements use to a slot, reaches
// no frame by name, and passes taucheck's routine analysis with no
// error diagnostic.
func TestTranslatedRoutinesBindEveryName(t *testing.T) {
	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}
	db := taupsm.Open()
	defer db.Close()
	enginetest.LoadCorpus(t, db, spec)
	for _, q := range taubench.Queries() {
		for _, s := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
			db.SetStrategy(s)
			db.Query(taubench.SequencedSQL(q, 30))
			db.Query(q.Text)
		}
	}
	cats := []*taupsm.DB{db}
	for _, sc := range enginetest.Scenarios {
		sdb := taupsm.Open()
		defer sdb.Close()
		for _, st := range append(append([]enginetest.Step{}, sc.Setup...), sc.Steps...) {
			if st.SetNow != nil {
				sdb.SetNow(st.SetNow.Year, st.SetNow.Month, st.SetNow.Day)
			}
			if st.Exec != "" {
				sdb.Exec(st.Exec)
			}
			for _, s := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
				if st.Query != "" {
					sdb.SetStrategy(s)
					sdb.Query(st.Query)
				}
			}
		}
		cats = append(cats, sdb)
	}
	clones := 0
	for _, d := range cats {
		cat := d.Engine().Cat
		for _, name := range cat.RoutineNames() {
			if !strings.HasPrefix(name, "max_") && !strings.HasPrefix(name, "ps_") && !strings.HasPrefix(name, "curr_") {
				continue
			}
			r := cat.Routine(name)
			clones++
			if un := engine.UnboundNames(r); len(un) > 0 {
				t.Errorf("%s binds no slot to %v", name, un)
			}
			var def sqlast.Stmt = r.Fn
			if r.Kind == storage.KindProcedure {
				def = r.Proc
			}
			for _, d := range check.CheckRoutine(cat, def) {
				if d.Severity == check.Error {
					t.Errorf("%s: %s", name, d)
				}
			}
		}
	}
	if clones < 50 {
		t.Errorf("only %d translated routines checked", clones)
	}
	t.Logf("%d translated routines checked", clones)
}

// A binding past a query level depends on the columns the enclosing
// levels have when it compiles. Between two calls of a routine, the table
// its FOR loop reads is dropped and created again with a column renamed
// to a variable's name: the second call reads the column, as the lookup
// by name does. And two sessions calling one compiled routine at once
// agree with one calling it alone.
func TestBindingsFollowRedefinitionsAndSessions(t *testing.T) {
	db := taupsm.Open()
	defer db.Close()
	mustExec := func(src string) {
		t.Helper()
		if _, err := db.Exec(src); err != nil {
			t.Fatal(err)
		}
	}
	query := func(src string) string {
		t.Helper()
		res, err := db.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		return enginetest.RenderRows(res)
	}
	mustExec(`CREATE TABLE src (a INTEGER, b INTEGER); INSERT INTO src VALUES (1, 2);
		CREATE TABLE one (k INTEGER); INSERT INTO one VALUES (1);
		CREATE FUNCTION f () RETURNS INTEGER BEGIN
			DECLARE v INTEGER DEFAULT 1000;
			DECLARE r INTEGER DEFAULT 0;
			FOR row AS SELECT * FROM src DO SET r = r + v; END FOR;
			SET r = r + (SELECT MAX(k) FROM one WHERE k <= (SELECT COUNT(*) FROM src WHERE v > 0));
			RETURN r;
		END`)
	if got := strings.TrimSpace(query(`SELECT f() FROM one`)); got != "1001" {
		t.Fatalf("first call: %s, want 1001", got)
	}
	mustExec(`DROP TABLE src; CREATE TABLE src (a INTEGER, v INTEGER); INSERT INTO src VALUES (1, 2)`)
	if got := strings.TrimSpace(query(`SELECT f() FROM one`)); got != "3" {
		t.Fatalf("after src.b became src.v: %s, want 3 (the FOR row's v, then src's v in the subquery)", got)
	}
	mustExec(`DROP TABLE src; CREATE TABLE src (a INTEGER, b INTEGER); INSERT INTO src VALUES (1, 2)`)
	if got := strings.TrimSpace(query(`SELECT f() FROM one`)); got != "1001" {
		t.Fatalf("after src.v became src.b again: %s, want 1001", got)
	}

	mustExec(`CREATE TABLE many (k INTEGER); INSERT INTO many VALUES (1), (2), (3), (4), (5), (6), (7), (8);
		CREATE FUNCTION g (n INTEGER) RETURNS INTEGER BEGIN
			DECLARE x INTEGER DEFAULT n;
			DECLARE r INTEGER DEFAULT 0;
			BEGIN
				DECLARE x INTEGER DEFAULT n * 10;
				FOR row AS SELECT k AS x FROM many WHERE k <= n DO SET r = r + x; END FOR;
				SET r = r + x;
			END;
			RETURN r + x;
		END`)
	eng := db.Engine()
	run := func(ses *engine.DB) (string, error) {
		res, err := ses.ExecScript(`SELECT k, g(k) FROM many`)
		if err != nil {
			return "", err
		}
		return fmt.Sprint(res.Rows), nil
	}
	ses := eng.NewSession()
	alone, err := run(ses)
	ses.Release()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ses := eng.NewSession()
			defer ses.Release()
			for i := 0; i < 50; i++ {
				if got, err := run(ses); err != nil || got != alone {
					t.Errorf("a session read %s (%v), one alone %s", got, err, alone)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A block's temporary table is bound for every statement of the blocks
// inside it, also one that stands before the CREATE: on the loop's next
// turn the inner block's INSERT writes the table the outer block created.
func TestTemporaryTableCreatedFurtherDownIsBound(t *testing.T) {
	db := engine.New()
	res, err := db.ExecScript(`CREATE TABLE one (k INTEGER); INSERT INTO one VALUES (1);
		CREATE FUNCTION f () RETURNS INTEGER BEGIN
			DECLARE i INTEGER DEFAULT 0;
			WHILE i < 3 DO
				BEGIN
					IF i > 0 THEN INSERT INTO tq VALUES (i); END IF;
				END;
				IF i = 0 THEN CREATE TEMPORARY TABLE tq (v INTEGER); END IF;
				SET i = i + 1;
			END WHILE;
			RETURN (SELECT SUM(v) FROM tq);
		END;
		SELECT f() FROM one`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Fatalf("f() = %v, want 3", res.Rows)
	}
}
