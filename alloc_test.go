package taupsm_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"taupsm"
	"taupsm/internal/enginetest"
	"taupsm/internal/taubench"
)

// q2MaxAllocCeiling bounds the heap allocations of one warm execution
// of corpus query q2 under forced MAX at a one-month context on
// DS1-SMALL: a routine call per (tuple, constant period), most answered
// from the windowed memo, the rest running a cached, slot-bound SELECT
// whose expressions are compiled closures and whose rows flow through
// one pipeline. ≈20 % above the 121 measured since a call's memo key, a
// hash table's keys and a filtered build side live on the session's
// scratch — the memo's and each table's key arena, the build-side stack —
// where each new key was a string of its own and each build side a new
// relation: 253 then, the ceiling 336 (set at 280). That was measured
// since a routine call runs on the session's stacks — its frame, its
// blocks and their cursors, its query levels and its per-call hash
// tables reused, not allocated — where every call allocated them: 941
// then, the ceiling 1,125. That was measured since a query's rows stay
// on the session's stacks — written
// once onto a flat value stack, read there by subqueries, FOR and the set
// operators, copied once into an arena when they leave the statement —
// where every projected row was an object of its own and every
// consumer's Result copied the row pointers: 1,472 then, and 1,601 when
// the ceiling was set before. Before the pipeline
// (ISSUE 24) every operator's relation and the copy of the result at the
// statement boundary made it 2,040 — the 1,977 of ISSUE 20 (the tree
// walker before the closures allocated 1,973, the memo without windows
// 7,600, unbound plans 43,180) plus the 63 objects of parsing q2's text,
// which every call does since the parse cache went (ISSUE 21; 57 on
// average over the corpus).
// A context handed to a closure cannot stay on the stack, so it lives in
// the activation of the call, block or level it belongs to, which the
// session reuses: the ceiling guards that, and the per-row and per-call
// allocation the bound plan removed.
// The cost of *building* a plan is pinned beside the planner
// (TestPlanBuildAllocations, internal/engine). Raise either only with a
// `go run ./bench` run showing what allocs_per_stmt pays for the new
// figure.
const q2MaxAllocCeiling = 145

func TestWarmMaxQueryAllocations(t *testing.T) {
	warmQ2Allocations(t, taupsm.Max, 30, q2MaxAllocCeiling)
}

// q2PerstAllocCeiling bounds the same query under forced PERST at a
// one-year context: one lateral TABLE(ps_get_author_name(..)) call per
// satisfying tuple, each slicing its whole applicability period into a
// collection variable. 5 % above the 616 measured under -race, which
// `make verify` runs (the race detector adds ≈125 objects here), and so
// ≈32 % above the 490 measured without it since memo keys, hash-table
// keys and filtered build sides live on the session's scratch (741 under
// -race and 615 without before, the ceiling 800, set at 764 and 638),
// which was measured since a call's own collections die with it — the
// next call reuses their tables, rows and arenas, and the statement
// journal forgets their undo and keeps its array (1,023
// before, the ceiling 1,340, 5 % above the 1,275 measured under -race),
// which was measured since a routine call runs on the session's stacks
// (1,774 before, the ceiling 2,130), which was measured since a query's
// rows stay on the session's stacks (2,382 before, the parse included).
// Before an INSERT adopted its source's rows, each row was
// projected, copied into a second, target-shaped row and journaled by a
// closure of its own, and every call built its collection variables'
// schemas and every INSERT its column mapping: 7,044 (8,117 before the
// SELECT pipeline; 9,135 when collection results joined the function
// memo, whose parent commit allocated 137,608 — every repeated author
// recomputed the same table, and every builtin call folded its name and
// boxed its arguments). The sources of a PERST body are served from
// their plan's memo like MAX's. It guards the memo at the FROM site, the
// source memo, the allocation-free call dispatch and the INSERT that
// writes its source's rows in place; raise it only with a `go run
// ./bench` run showing what seq-perst-1y.allocs_per_stmt pays for the
// new figure.
const q2PerstAllocCeiling = 647

func TestWarmPerstQueryAllocations(t *testing.T) {
	warmQ2Allocations(t, taupsm.PerStatement, 365, q2PerstAllocCeiling)
}

func warmQ2Allocations(t *testing.T, strategy taupsm.Strategy, days int, ceiling float64) {
	run := warmQ2(t, strategy, days)
	if got := testing.AllocsPerRun(5, run); got > ceiling {
		t.Fatalf("warm q2 under %s allocates %.0f objects per execution, ceiling %.0f", strategy, got, ceiling)
	} else {
		t.Logf("warm q2 under %s: %.0f allocations per execution", strategy, got)
	}
}

// warmQ2 returns one execution of q2 on DS1-SMALL under the strategy at
// the context, already run once: translation, constant periods, plans and
// indexes are built.
func warmQ2(t *testing.T, strategy taupsm.Strategy, days int) func() {
	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}
	db := taupsm.Open()
	enginetest.LoadCorpus(t, db, spec)
	db.SetStrategy(strategy)
	q, _ := taubench.QueryByName("q2")
	sql := taubench.SequencedSQL(q, days)
	run := func() {
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	run()
	return run
}

// The byte pins beside the object pins: what one warm q2 allocates in
// KiB (runtime.MemStats.TotalAlloc). The object count cannot see a
// relation that is built in one allocation and read once — which is what
// every operator of a SELECT made for the next before the SELECT became
// a pipeline (ISSUE 24): rows now flow from the scan to the sink through
// the level's scope, only the build sides of joins are stored, and the
// statement boundary adopts the result's rows. MAX's is ≈20 % above the
// 114 KiB measured since a Value is 40 bytes (123 KiB at 56 bytes, the
// ceiling 148, measured since a routine call runs on the session's
// stacks; 220 KiB before, the ceiling 265, measured since a query's rows
// stay on the session's stacks, whose arrays a session hands the next;
// 252 KiB before that, 288 KiB when the pipeline came, 470 KiB before
// it); PERST's is ≈20 % above the 164 KiB measured since a call's own
// collections die with it (258 KiB before, the ceiling 310, measured
// since a Value is 40 bytes; 307 KiB at 56 bytes, the ceiling 368,
// measured since a routine call runs on the session's stacks; 448 KiB
// before, the ceiling 540; 451 KiB since an INSERT adopts its source's
// rows, 837 KiB before that, 1,216 KiB before the pipeline). Raise either
// only with a `go run ./bench` run showing what kb_per_stmt pays for the
// new figure.
const (
	q2MaxKiBCeiling   = 137
	q2PerstKiBCeiling = 197
)

func TestWarmMaxQueryBytes(t *testing.T) { warmQ2Bytes(t, taupsm.Max, 30, q2MaxKiBCeiling) }

func TestWarmPerstQueryBytes(t *testing.T) {
	warmQ2Bytes(t, taupsm.PerStatement, 365, q2PerstKiBCeiling)
}

func warmQ2Bytes(t *testing.T, strategy taupsm.Strategy, days int, ceiling float64) {
	run := warmQ2(t, strategy, days)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024; got > ceiling {
		t.Fatalf("warm q2 under %s allocates %.0f KiB per execution, ceiling %.0f", strategy, got, ceiling)
	} else {
		t.Logf("warm q2 under %s: %.0f KiB per execution", strategy, got)
	}
}

// writtenLookupAllocCeiling bounds the heap allocations of one warm
// indexed point query on a 1,000-row table run right after a one-row
// UPDATE of it: ≈20 % above the 84 measured since a table keeps its
// indexes across its writes, on 1,000 rows as on 4,000. Before, the
// UPDATE discarded the hash index and the query re-hashed every row:
// 2,092 objects on 1,000 rows, 8,105 on 4,000. The ceiling is a
// constant, so a query that pays for the table's size fails it.
const writtenLookupAllocCeiling = 100

func TestWarmLookupAfterUpdateAllocations(t *testing.T) {
	db := taupsm.Open()
	db.MustExec(`CREATE TABLE acct (k INTEGER, v INTEGER)`)
	for i := 0; i < 1000; i += 100 {
		var b strings.Builder
		b.WriteString("INSERT INTO acct VALUES ")
		for k := i; k < i+100; k++ {
			if k > i {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, 0)", k)
		}
		db.MustExec(b.String())
	}
	update, query := `UPDATE acct SET v = v + 1 WHERE k = 7`, `SELECT v FROM acct WHERE k = 500`
	var mallocs uint64
	const runs = 5
	for i := -1; i < runs; i++ { // the first run warms the plans and builds the index
		db.MustExec(update)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := db.Query(query); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i >= 0 {
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	if got := float64(mallocs) / runs; got > writtenLookupAllocCeiling {
		t.Fatalf("a warm point query after an UPDATE allocates %.0f objects, ceiling %d", got, writtenLookupAllocCeiling)
	} else {
		t.Logf("a warm point query after an UPDATE: %.0f allocations", got)
	}
}

// A DELETE whose WHERE chooses no row leaves the table as it is and
// allocates nothing for its rows: the rows that stay are copied into a
// fresh slice only once a row goes. Before, every DELETE with a WHERE made
// that slice first, 24 bytes per row of the table. The bytes of a
// no-match DELETE on a 1,000-row table and on a 4,000-row one must be
// within noMatchDeleteSlack of each other.
const noMatchDeleteSlack = 2048

func TestNoMatchDeleteAllocations(t *testing.T) {
	bytes := func(rows int) float64 {
		db := taupsm.Open()
		db.MustExec(`CREATE TABLE acct (k INTEGER, v INTEGER)`)
		loadRows(db, "acct", rows, func(k int) string { return fmt.Sprintf("(%d, 0)", k) })
		del := `DELETE FROM acct WHERE v = 1`
		db.MustExec(del) // the statement's plans and caches
		return bytesPerRun(t, 5, func() { db.MustExec(del) })
	}
	small, large := bytes(1000), bytes(4000)
	if large-small > noMatchDeleteSlack {
		t.Fatalf("a DELETE that removes nothing allocates %.0f B on 1,000 rows and %.0f B on 4,000", small, large)
	}
	t.Logf("a DELETE that removes nothing: %.0f B on 1,000 rows, %.0f B on 4,000", small, large)
}

// A cold sequenced query — a text run once, as in cold-auto-1d — whose
// MAX translation joins taupsm_cp with a whole temporal table reads the
// table's rows in place: the build side is those rows, not a copy of
// them. Before, it was copied on every such statement, about 48 bytes a
// row. The bytes of a cold one-period count over 1,000 rows and over
// 4,000 must be within coldJoinSlack of each other.
const coldJoinSlack = 8192

func TestColdJoinBytesDoNotGrowWithTheTable(t *testing.T) {
	bytes := func(rows int) float64 {
		db := taupsm.Open()
		db.SetStrategy(taupsm.Max)
		db.MustExec(`CREATE TABLE pos (k INTEGER, v INTEGER) AS VALIDTIME`)
		loadRows(db, "pos", rows, func(k int) string {
			return fmt.Sprintf("(%d, %d, DATE '2000-01-01', DATE '2030-01-01')", k, k%7)
		})
		day := 0
		next := func() {
			day++ // a new text each time: nothing of it is cached
			q := fmt.Sprintf(`VALIDTIME (DATE '2010-01-01' + %d, DATE '2010-01-02' + %d) SELECT COUNT(*) FROM pos`, day, day)
			res := db.MustExec(q)
			if len(res.Rows) != 1 || res.Rows[0][2].Int() != int64(rows) {
				t.Fatalf("%s: %v", q, res.Rows)
			}
		}
		next() // the table's indexes and endpoints
		return bytesPerRun(t, 10, next)
	}
	small, large := bytes(1000), bytes(4000)
	if large-small > coldJoinSlack {
		t.Fatalf("a cold join allocates %.0f B over 1,000 rows and %.0f B over 4,000", small, large)
	}
	t.Logf("a cold join: %.0f B over 1,000 rows, %.0f B over 4,000", small, large)
}

// loadRows inserts rows values rows into table, made by row(k), k from 0,
// with a nonsequenced INSERT of 100 rows at a time.
func loadRows(db *taupsm.DB, table string, rows int, row func(k int) string) {
	for i := 0; i < rows; i += 100 {
		var b strings.Builder
		fmt.Fprintf(&b, "NONSEQUENCED VALIDTIME INSERT INTO %s VALUES ", table)
		for k := i; k < i+100 && k < rows; k++ {
			if k > i {
				b.WriteString(", ")
			}
			b.WriteString(row(k))
		}
		db.MustExec(b.String())
	}
}

// bytesPerRun is the heap bytes one run of f allocates, over runs runs.
func bytesPerRun(t *testing.T, runs int, f func()) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// A cold short-context statement under Auto — a text run once, as in
// cold-auto-1d — costs what it costs under MAX: clause (c) settles it
// before anything is translated, so no PERST translation is made, its
// routine clones included, and thrown away. The bytes of a cold,
// routine-calling 1-day q2 on the running example under Auto must be
// within autoColdSlack of those under MAX: the heuristic's own reads,
// the row count and the context: ≈0.5 KB measured. Before, Auto paid
// for the probe's clones and rewrites on top: 58.7 KB against MAX's
// 41.7 KB, which also built the Figure-8 script it never ran (36.0 KB
// without it).
const autoColdSlack = 2048

func TestColdShortContextAutoBytesAreMaxBytes(t *testing.T) {
	bytes := func(strategy taupsm.Strategy) float64 {
		db := taupsm.PaperDB(t)
		db.SetStrategy(strategy)
		day := 0
		next := func() {
			day++ // a new text each time: nothing of it is cached
			q := fmt.Sprintf(`VALIDTIME (DATE '2010-01-01' + %d, DATE '2010-01-02' + %d) SELECT i.title FROM item i, item_author ia
WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`, day, day)
			if res := db.MustExec(q); len(res.Rows) != 1 {
				t.Fatalf("%s under %s: %v", q, strategy, res.Rows)
			}
		}
		next()
		return bytesPerRun(t, 20, next)
	}
	auto, max := bytes(taupsm.Auto), bytes(taupsm.Max)
	if auto-max > autoColdSlack {
		t.Fatalf("a cold 1-day q2 allocates %.0f B under Auto and %.0f B under MAX", auto, max)
	}
	t.Logf("a cold 1-day q2: %.0f B under Auto, %.0f B under MAX", auto, max)
}
