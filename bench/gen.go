package main

import (
	"fmt"
	"math/rand"

	"taupsm"
	"taupsm/internal/taubench"
	"taupsm/internal/types"
)

// op is one generated statement. The program under test sees only sql;
// the rest tells the harness how to time, classify and check it.
type op struct {
	class int // index into workload.classes
	sql   string
	write bool
	// Sequenced queries carry their context [begin, end) in epoch days
	// and the stride at which their result is sampled into timeslices;
	// stride 0 marks a result digested as one sorted bag.
	begin, end, stride int64
}

// gridStride is the timeslice sampling step of sequenced results: every
// 30th day of the context, which is invariant under any fragmentation
// the strategies (or a later optimisation) choose.
const gridStride = 30

// workload is one named set of inputs. passes is the fixed size of a
// full run when no time budget is given; quick is the size of the
// -quick smoke, which is also the prefix the goldens cover.
type workload struct {
	name, why string
	spec      taubench.Spec
	strategy  taupsm.Strategy
	par       int
	passes    int
	quick     int
	persist   bool
	classes   []string
	// repeats reports that statement texts recur across passes, so
	// plans may be kept per text (as the stratum's own caches do).
	repeats bool
	gen     func(g *generator, pass int) []op
}

// The pass counts are sized on a 2-core box at HEAD so that each timed
// region stays well under 30 s (see README.md for the reference run).
func workloads() []workload {
	qs := taubench.Queries()
	all := make([]string, len(qs))
	var perst []string
	for i, q := range qs {
		all[i] = q.Name
		if q.PerstOK {
			perst = append(perst, q.Name)
		}
	}
	return []workload{
		{
			name: "seq-max-1y",
			why:  "warm MAX at a 1-year context: time is in engine expression/routine interpretation and allocation; the stratum front end does almost nothing",
			spec: taubench.DS1(taubench.Small), strategy: taupsm.Max, par: 1,
			passes: 30, quick: 1, classes: all, repeats: true,
			gen: func(g *generator, pass int) []op { return g.seqPass(all, 365, pass) },
		},
		{
			name: "seq-perst-1y",
			why:  "same queries under PERST: temp-table DML and journal inside routine loops dominate, so a MAX-only optimisation must not move it",
			spec: taubench.DS1(taubench.Small), strategy: taupsm.PerStatement, par: 1,
			passes: 24, quick: 1, classes: perst, repeats: true,
			gen: func(g *generator, pass int) []op { return g.seqPass(perst, 365, pass) },
		},
		{
			name: "par-max-ds3-1m",
			why:  "daily-change data (6.7x the slices) at a 1-month context on 2 workers: the only multi-core point and the many-small-fragments shape prepared plans and sweep joins must win on",
			spec: taubench.DS3(taubench.Small), strategy: taupsm.Max, par: 2,
			passes: 60, quick: 1, classes: all, repeats: true,
			gen: func(g *generator, pass int) []op { return g.seqPass(all, 30, pass) },
		},
		{
			name: "cold-auto-1d",
			why:  "no statement text repeats, so every parse, lint, translation and constant-period lookup misses; execution is small, so the front-end layers hold their largest share",
			spec: taubench.DS1(taubench.Small), strategy: taupsm.Auto, par: 1,
			passes: 600, quick: 1, classes: all,
			gen: func(g *generator, pass int) []op { return g.coldPass(all, pass) },
		},
		{
			name: "oltp-persist",
			why:  "writes beside reads on a WAL-backed database: each write bumps table versions, so caches and indexes are invalidated and rebuilt by the next read, and every commit pays an fsync",
			spec: taubench.DS1(taubench.Small), strategy: taupsm.Auto, par: 1,
			passes: 500, quick: 10, persist: true, classes: oltpClasses,
			gen: func(g *generator, pass int) []op { return g.oltpBlock(pass) },
		},
	}
}

// allocPasses is the number of leading passes the allocation metrics
// cover: two fifths of the fixed run, which a time-budgeted run reaches
// on any machine the budget was sized for.
func (w workload) allocPasses() int { return w.passes * 2 / 5 }

// distinct reports that every statement the workload issues has its own
// text (cold-auto-1d): neither repeated across passes nor, as the mix of
// oltp-persist, partly so.
func (w workload) distinct() bool { return !w.repeats && !w.persist }

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// warmupPass is the pass index set-up runs before timing starts; its
// statements come from the same generator but are never timed.
const warmupPass = -1

// generator turns (seed, pass) into statements. It holds only values
// derived from the seed, so the same seed always yields the same SQL.
type generator struct {
	seed    int64
	spec    taubench.Spec
	queries map[string]taubench.Query
	order   []int     // seeded permutation of class positions
	cold    [][]int32 // per query: seeded permutation of context codes
}

// coldSpan is the range of context start days cold-auto-1d draws from;
// contexts are 1 to 3 days long and stay inside the 2-year timeline.
var coldSpan = int(taubench.TimelineEnd()-taubench.TimelineStart()) - 3

func newGenerator(seed int64, w workload) *generator {
	g := &generator{seed: seed, spec: w.spec, queries: map[string]taubench.Query{}}
	for _, q := range taubench.Queries() {
		g.queries[q.Name] = q
	}
	rng := rand.New(rand.NewSource(seed))
	g.order = rng.Perm(len(w.classes))
	if w.distinct() {
		g.cold = make([][]int32, len(w.classes))
		for i := range g.cold {
			codes := make([]int32, coldSpan*3)
			for j, p := range rng.Perm(len(codes)) {
				codes[j] = int32(p)
			}
			g.cold[i] = codes
		}
	}
	return g
}

// maxPasses bounds a time-budgeted run: cold-auto-1d stops when a query
// would have to repeat a context (the last code is the warm-up's).
func (g *generator) maxPasses() int {
	if g.cold != nil {
		return len(g.cold[0]) - 1
	}
	return 1 << 30
}

// rotate returns the class positions of one pass: the seeded order,
// rotated by one position per pass so no statement always follows the
// same predecessor.
func (g *generator) rotate(pass int) []int {
	n := len(g.order)
	out := make([]int, n)
	shift := ((pass % n) + n) % n
	for i := range out {
		out[i] = g.order[(i+shift)%n]
	}
	return out
}

// seqPass is one pass of the warm sequenced workloads: every class once,
// identical text every pass, context anchored at the timeline start.
func (g *generator) seqPass(classes []string, days int, pass int) []op {
	begin := taubench.TimelineStart()
	ops := make([]op, 0, len(classes))
	for _, ci := range g.rotate(pass) {
		ops = append(ops, op{
			class: ci, sql: taubench.SequencedSQL(g.queries[classes[ci]], days),
			begin: begin, end: begin + int64(days), stride: gridStride,
		})
	}
	return ops
}

// coldPass is one pass of cold-auto-1d: every class once, each with a
// context no earlier pass of that class used.
func (g *generator) coldPass(classes []string, pass int) []op {
	ops := make([]op, 0, len(classes))
	for _, ci := range g.rotate(pass) {
		codes := g.cold[ci]
		idx := pass
		if pass == warmupPass {
			idx = len(codes) - 1
		}
		code := int64(codes[idx])
		begin := taubench.TimelineStart() + code/3
		end := begin + 1 + code%3
		ops = append(ops, op{
			class: ci, sql: sequenced(begin, end, g.queries[classes[ci]].Text),
			begin: begin, end: end, stride: 1,
		})
	}
	return ops
}

func sequenced(begin, end int64, body string) string {
	return fmt.Sprintf("VALIDTIME (DATE '%s', DATE '%s') %s",
		types.FormatDate(begin), types.FormatDate(end), body)
}

// The eight statement kinds of oltp-persist, in class order.
const (
	oltpCurQuery = iota
	oltpSeqQuery
	oltpBtAudit
	oltpCurUpdate
	oltpSeqUpdate
	oltpSeqDelete
	oltpNonseqInsert
	oltpBtCorrect
)

var oltpClasses = []string{
	"cur-query", "seq-query", "bt-audit", "cur-update",
	"seq-update", "seq-delete", "nonseq-insert", "bt-correct",
}

// Block structure of oltp-persist: 20 statements per block, the clock
// advances a day every 250 statements, a checkpoint every 1,000.
const (
	oltpBlockOps      = 20
	oltpClockEvery    = 250
	oltpCheckpointOps = 1000
)

// btEntities is the number of entities taubench.LoadBitemporal creates
// (ids e000 ... e039).
const btEntities = 40

var oltpTitles = []string{"engineer", "manager", "director", "analyst", "intern"}
var oltpCountries = []string{"USA", "Canada", "UK", "Germany", "France", "Japan", "Brazil", "India"}

// oltpBlock is one block of 20 statements: 8 current corpus queries, 2
// sequenced 1-month corpus queries, 1 bitemporal point audit, 3 current
// updates, 2 sequenced updates, 1 sequenced delete, 2 nonsequenced
// inserts and 1 sequenced bitemporal correction, in a seeded order. The
// block's own generator is seeded from (seed, block), so a block's text
// does not depend on how many blocks ran before it.
func (g *generator) oltpBlock(block int) []op {
	rng := rand.New(rand.NewSource(g.seed*1_000_003 + int64(block) + 7))
	qs := taubench.Queries()
	b := block
	if b < 0 {
		b += len(qs)
	}
	start := taubench.TimelineStart()
	item := func() string { return fmt.Sprintf("i%d", rng.Intn(g.spec.Items)) }
	author := func() string { return fmt.Sprintf("a%d", rng.Intn(g.spec.Authors)) }
	// period is a seeded valid-time period of 10 to 69 days inside the
	// two-year timeline.
	period := func() (int64, int64) {
		pb := start + int64(rng.Intn(600))
		return pb, pb + 10 + int64(rng.Intn(60))
	}
	day2011 := func() string { return types.FormatDate(types.MustDate(2011, 1, 1) + int64(rng.Intn(330))) }

	ops := make([]op, 0, oltpBlockOps)
	for i := 0; i < 8; i++ {
		ops = append(ops, op{class: oltpCurQuery, sql: qs[(8*b+i)%len(qs)].Text})
	}
	for i := 0; i < 2; i++ {
		qb := start + int64(rng.Intn(700))
		ops = append(ops, op{class: oltpSeqQuery, sql: sequenced(qb, qb+30, qs[(2*b+i)%len(qs)].Text),
			begin: qb, end: qb + 30, stride: gridStride})
	}
	ops = append(ops, op{class: oltpBtAudit, sql: fmt.Sprintf(
		"VALIDTIME (DATE '%s') AND TRANSACTIONTIME (DATE '%s') SELECT id, title FROM bt_position", day2011(), day2011())})
	ops = append(ops,
		op{class: oltpCurUpdate, write: true, sql: fmt.Sprintf(
			"UPDATE item SET price = price + 0.25 WHERE item_id = '%s'", item())},
		op{class: oltpCurUpdate, write: true, sql: fmt.Sprintf(
			"UPDATE author SET country = '%s' WHERE author_id = '%s'", oltpCountries[rng.Intn(len(oltpCountries))], author())},
		op{class: oltpCurUpdate, write: true, sql: fmt.Sprintf(
			"UPDATE publisher SET city = 'City %d' WHERE publisher_id = 'p%d'", rng.Intn(50), rng.Intn(g.spec.Publishers))},
	)
	pb, pe := period()
	ops = append(ops, op{class: oltpSeqUpdate, write: true, sql: sequenced(pb, pe, fmt.Sprintf(
		"UPDATE item SET number_of_pages = number_of_pages + 1 WHERE item_id = '%s'", item()))})
	pb, pe = period()
	ops = append(ops, op{class: oltpSeqUpdate, write: true, sql: sequenced(pb, pe, fmt.Sprintf(
		"UPDATE author SET last_name = 'Name%d' WHERE author_id = '%s'", rng.Intn(50), author()))})
	pb, pe = period()
	ops = append(ops, op{class: oltpSeqDelete, write: true, sql: sequenced(pb, pe, fmt.Sprintf(
		"DELETE FROM related_items WHERE item_id = '%s'", item()))})
	for i := 0; i < 2; i++ {
		pb, pe = period()
		ops = append(ops, op{class: oltpNonseqInsert, write: true, sql: fmt.Sprintf(
			"NONSEQUENCED VALIDTIME INSERT INTO related_items VALUES ('%s', '%s', DATE '%s', DATE '%s')",
			item(), item(), types.FormatDate(pb), types.FormatDate(pe))})
	}
	cb := types.MustDate(2011, 1, 1) + int64(rng.Intn(300))
	ops = append(ops, op{class: oltpBtCorrect, write: true, sql: sequenced(cb, cb+10+int64(rng.Intn(60)), fmt.Sprintf(
		"UPDATE bt_position SET title = '%s' WHERE id = 'e%03d'", oltpTitles[rng.Intn(len(oltpTitles))], rng.Intn(btEntities)))})

	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}
