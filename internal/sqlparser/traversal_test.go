package sqlparser_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"taupsm/internal/enginetest"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/taubench"
	"taupsm/internal/types"
)

// traversalCorpus is every SQL text the repository owns — the τBench
// schema, routines and queries, testdata/, the enginetest scenarios,
// the FuzzParse seeds — plus the shapes the traversals once disagreed
// on: a query under CREATE TABLE … AS, an expression in a set
// operation's ORDER BY, calls in a modifier's period, and modifier
// statements everywhere a routine body can hold a statement.
func traversalCorpus(t *testing.T) []string {
	srcs := []string{
		taubench.Schema,
		`CREATE TABLE c1 AS (SELECT nm(id) AS n FROM k) WITH DATA`,
		`(SELECT a FROM t) UNION (SELECT b FROM u) ORDER BY f(a) DESC, 2`,
		`VALIDTIME (f(), g(1)) SELECT x FROM t`,
		`VALIDTIME (f(), g(1)) AND TRANSACTIONTIME (h(), DATE '2011-01-01') SELECT x FROM bt`,
		`SELECT t.k, s.k FROM t LEFT JOIN s ON t.k = s.k JOIN TABLE(tf(t.k)) AS x (a, b) ON x.a = t.k, (SELECT k FROM u) AS d (k)`,
		`CREATE PROCEDURE nested (IN a INTEGER, OUT r ROW(v INTEGER, w CHAR(3)) ARRAY) LANGUAGE SQL
BEGIN
  DECLARE n, m INTEGER DEFAULT f(1);
  DECLARE coll ROW(v INTEGER) ARRAY;
  DECLARE c CURSOR FOR NONSEQUENCED VALIDTIME SELECT k FROM t;
  DECLARE CONTINUE HANDLER FOR NOT FOUND NONSEQUENCED VALIDTIME INSERT INTO log SELECT COUNT(*) FROM a;
  IF a = 1 THEN NONSEQUENCED VALIDTIME INSERT INTO log SELECT COUNT(*) FROM a;
  ELSEIF a = 2 THEN VALIDTIME (f(), g(1)) SELECT k FROM t;
  ELSE NONSEQUENCED VALIDTIME DELETE FROM log WHERE n BETWEEN 1 AND 2; END IF;
  WHILE n < 3 DO NONSEQUENCED VALIDTIME UPDATE log SET n = n + 1 WHERE n IS NOT NULL; SET n = n + 1; END WHILE;
  REPEAT NONSEQUENCED VALIDTIME INSERT INTO log VALUES (1), (CAST('2' AS INTEGER)); UNTIL n > 5 END REPEAT;
  lp: LOOP NONSEQUENCED VALIDTIME INSERT INTO log VALUES (2); IF n = 9 THEN ITERATE lp; END IF; LEAVE lp; END LOOP lp;
  CASE a WHEN 1 THEN NONSEQUENCED VALIDTIME INSERT INTO log VALUES (3);
         ELSE NONSEQUENCED VALIDTIME INSERT INTO log VALUES (4); END CASE;
  FOR r AS NONSEQUENCED VALIDTIME SELECT k FROM t WHERE k IN (1, 2) OR k IN (SELECT k FROM s) OR EXISTS (SELECT 1 FROM s) DO
    SET n = CASE WHEN r.k LIKE 'x%' THEN -n ELSE (SELECT MAX(k) FROM s) END;
  END FOR;
  CALL other(n, g(m));
  SIGNAL SQLSTATE '45000' SET MESSAGE_TEXT = 'done';
END`,
		`ANALYZE t; SHOW PROCESSLIST; KILL 7; DROP VIEW v; DROP FUNCTION f; DROP PROCEDURE IF EXISTS nested`,
	}
	for _, q := range taubench.Queries() {
		srcs = append(srcs, q.Routines, q.Text, "VALIDTIME "+q.Text)
	}
	for _, sc := range enginetest.Scenarios {
		for _, st := range append(append([]enginetest.Step{}, sc.Setup...), sc.Steps...) {
			srcs = append(srcs, st.Exec, st.Query)
		}
	}
	srcs = append(srcs, sqlparser.FuzzSeeds...)
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.sql"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata scripts: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	return srcs
}

// reach is what reflection finds under a statement without asking
// sqlast which fields are children: every node (a pointer to a struct
// that implements Node, in field order) and every address a deep copy
// must not share with its original — nodes, declaration and period
// structs, and the backing arrays of non-empty slices. TypeName and
// types.Value are values nobody edits in place; a clone keeps them.
type reach struct {
	nodes []sqlast.Node
	addrs map[uintptr]string
}

var (
	nodeType  = reflect.TypeOf((*sqlast.Node)(nil)).Elem()
	valueType = reflect.TypeOf(types.Value{})
	typeType  = reflect.TypeOf(sqlast.TypeName{})
)

func reachOf(n sqlast.Node) *reach {
	r := &reach{addrs: map[uintptr]string{}}
	r.value(reflect.ValueOf(n), "")
	return r
}

func (r *reach) value(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			r.value(v.Elem(), path)
		}
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		path += "→" + v.Type().Elem().Name()
		r.addrs[v.Pointer()] = path
		if v.Type().Implements(nodeType) {
			r.nodes = append(r.nodes, v.Interface().(sqlast.Node))
		}
		r.value(v.Elem(), path)
	case reflect.Struct:
		if v.Type() == valueType || v.Type() == typeType {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			r.value(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Slice:
		if v.Len() > 0 {
			r.addrs[v.Pointer()] = path + "[]"
		}
		for i := 0; i < v.Len(); i++ {
			r.value(v.Index(i), path)
		}
	}
}

// census counts nodes by identity, so two traversals agree only if they
// reach the same nodes the same number of times.
func census(nodes []sqlast.Node) map[sqlast.Node]int {
	m := map[sqlast.Node]int{}
	for _, n := range nodes {
		m[n]++
	}
	return m
}

func typeNames(nodes []sqlast.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = fmt.Sprintf("%T", n)
	}
	sort.Strings(out)
	return out
}

func diff(t *testing.T, what, sql string, want, got map[sqlast.Node]int) {
	t.Helper()
	for n, c := range want {
		if got[n] != c {
			t.Errorf("%s reaches %T %q %d times, reflection finds it %d times\n  in: %s", what, n, n.SQL(), got[n], c, sql)
		}
	}
	for n, c := range got {
		if want[n] == 0 {
			t.Errorf("%s reaches %T %q %d times, reflection never finds it\n  in: %s", what, n, n.SQL(), c, sql)
		}
	}
}

// TestTraversalsAgree holds Walk, Rewrite, MapExprs and the cloner to
// one account of what a node holds — the one reflection gives — over
// every statement of the corpus.
func TestTraversalsAgree(t *testing.T) {
	seen := map[reflect.Type]bool{}
	stmts := 0
	for _, src := range traversalCorpus(t) {
		parsed, err := sqlparser.ParseScript(src)
		if err != nil {
			continue // seeds and scenario steps that are meant not to parse
		}
		for _, s := range parsed {
			stmts++
			sql := s.SQL()
			want := reachOf(s)
			for _, n := range want.nodes {
				seen[reflect.TypeOf(n)] = true
			}

			// A second reader, as two sessions analyzing one stored routine
			// are: under -race, a traversal that stores back what it was
			// not asked to change is a write, and reported.
			reader := make(chan struct{})
			go func() {
				defer close(reader)
				sqlast.Walk(s, func(sqlast.Node) bool { return true })
				sqlast.Rewrite(s, func(n sqlast.Node) sqlast.Node { return n })
				sqlast.MapExprs(s, func(e sqlast.Expr) sqlast.Expr { return e })
			}()

			var walked, rewritten []sqlast.Node
			var walkedExprs, mappedExprs []sqlast.Node
			sqlast.Walk(s, func(n sqlast.Node) bool {
				walked = append(walked, n)
				if _, ok := n.(sqlast.Expr); ok {
					walkedExprs = append(walkedExprs, n)
				}
				return true
			})
			diff(t, "Walk", sql, census(want.nodes), census(walked))

			if root := sqlast.Rewrite(s, func(n sqlast.Node) sqlast.Node {
				rewritten = append(rewritten, n)
				return n
			}); root != sqlast.Node(s) {
				t.Errorf("identity Rewrite returned another root for %s", sql)
			}
			diff(t, "Rewrite", sql, census(walked), census(rewritten))

			sqlast.MapExprs(s, func(e sqlast.Expr) sqlast.Expr {
				mappedExprs = append(mappedExprs, e)
				return e
			})
			diff(t, "MapExprs", sql, census(walkedExprs), census(mappedExprs))
			if after := s.SQL(); after != sql {
				t.Errorf("identity rewrites changed the statement:\n  %s\n  %s", sql, after)
			}

			<-reader
			c := sqlast.CloneStmt(s)
			if got := c.SQL(); got != sql {
				t.Errorf("clone prints differently:\n  %s\n  %s", sql, got)
			}
			got := reachOf(c)
			if !reflect.DeepEqual(typeNames(got.nodes), typeNames(want.nodes)) {
				t.Errorf("clone holds other nodes than its original: %s", sql)
			}
			for addr, path := range got.addrs {
				if orig, shared := want.addrs[addr]; shared {
					t.Errorf("clone shares %s (original's %s) in: %s", path, orig, sql)
				}
			}
		}
	}
	t.Logf("%d statements, %d node types", stmts, len(seen))
	if stmts < 200 || len(seen) < 52 {
		t.Fatalf("the corpus lost statements or node types: %d statements, %d of 52 node types", stmts, len(seen))
	}

	// Nil, and every node type with all its slots empty, are safe.
	sqlast.Walk(nil, func(sqlast.Node) bool { t.Error("Walk(nil) visited something"); return true })
	sqlast.MapExprs(nil, func(e sqlast.Expr) sqlast.Expr { t.Error("MapExprs(nil) mapped something"); return e })
	if sqlast.Rewrite(nil, func(n sqlast.Node) sqlast.Node { return n }) != nil || sqlast.CloneTableRef(nil) != nil {
		t.Error("Rewrite(nil) and CloneTableRef(nil) must be nil")
	}
	for ty := range seen {
		empty := reflect.New(ty.Elem()).Interface().(sqlast.Node)
		visits := 0
		sqlast.Walk(empty, func(sqlast.Node) bool { visits++; return true })
		sqlast.Rewrite(empty, func(n sqlast.Node) sqlast.Node { visits++; return n })
		var c sqlast.Node
		switch x := empty.(type) {
		case sqlast.Stmt:
			c = sqlast.CloneStmt(x)
		case sqlast.Expr:
			c = sqlast.CloneExpr(x)
		case sqlast.QueryExpr:
			c = sqlast.CloneQuery(x)
		case sqlast.TableRef:
			c = sqlast.CloneTableRef(x)
		}
		if visits != 2 || c == nil || c == empty || reflect.TypeOf(c) != ty {
			t.Errorf("empty %s: %d visits, clone %T", strings.TrimPrefix(ty.String(), "*sqlast."), visits, c)
		}
	}
}
