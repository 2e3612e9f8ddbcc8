package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// selPlan is the cached, immutable, executable plan of one SELECT:
// everything about its evaluation that is a pure function of the
// statement and the schema. Built once, it holds the level's
// correlation entries; per FROM source the pushdown filters, the access
// path and how the source joins what precedes it; the cost-ordered
// residual; and the select list, grouping and ordering — every
// expression compiled (compile.go), with each column reference of this
// query level bound to an (entry, column) slot of the level's row scope.
// Under MAX slicing a routine-body SELECT runs once per (tuple, constant
// period) pair, so whatever is decided here is decided once instead of
// thousands of times per statement.
//
// A plan is valid while every name resolves the same way it did at
// build time: names that resolved to table-valued variables still do
// (with the same column list), names that resolved to catalog objects
// are not shadowed by a variable now, and names that resolved to
// catalog tables still reach a table with the same column list. Slots,
// index ordinals and join keys all derive from those column lists, so
// the same check covers them. The persistent catalog version serves as
// a fast path: while it matches, the recorded resolutions of durable
// objects cannot have changed. When it differs, the plan is not
// discarded outright — its inferred read set (the recorded resolutions)
// is revalidated name by name, and on success the plan re-pins to the
// new version. Unrelated DDL (a table or routine this statement never
// touches) therefore leaves warm plans warm. Plans are shared by
// concurrent evaluation sessions, so everything reachable from one is
// read-only except two atomics — the version pin here and each stored
// source's memo (srcMemo); per-execution state lives in the level (below)
// and the session.
type selPlan struct {
	catVersion atomic.Int64      // Catalog.PersistentVersion last validated at
	metas      []storage.Binding // the level's entries, in FROM order
	from       []*fromPlan
	pipePlan               // the FROM clause and the residual laid out for streaming (pipeline.go)
	residual   []*conjunct // conjuncts no source or join could take, cost-ordered
	items      []itemPlan
	cols       []string  // output column names
	aggs       []aggPlan // aggregate calls of the select list, HAVING and ORDER BY
	groupBy    []evalFn
	having     testFn
	order      []orderPlan
	varTables  map[string][]string    // lower var name -> column names at build
	catTables  map[string]catResolved // lower name -> catalog resolution at build
}

// fromPlan is the plan of one FROM source: the level entries it
// contributes, the conjuncts evaluated while loading it, and how it is
// accessed and joined.
type fromPlan struct {
	ref     sqlast.TableRef
	base, n int         // entries [base, base+n) of the level
	push    []*conjunct // pushdown filters (for a lateral table function: the conjuncts applicable once it is added)
	closed  bool        // push references nothing that changes between executions: memo may keep the relation
	ords    bool        // a stab join reads the scan's row ordinals
	join    *joinPlan   // how the source joins the sources before it (nil for the first)

	// Access path of a stored table: a hash-index lookup of column
	// idxCol for idxVal, answering push[idxSkip]; else an interval-index
	// stab at stab; else a full scan.
	idxVal          evalFn
	idxCol, idxSkip int
	stab            evalFn

	call *callSite // invocation of a table function

	// JOIN ... ON tree: sides, ON-clause join, and the pushdown conjuncts
	// neither side could take, applied after the join.
	l, r *fromPlan
	on   *joinPlan
	rest []*conjunct

	pipePlan // of a build side: how its relation is collected

	memo atomic.Pointer[srcMemo] // what a closed stored-table source remembers between loads
}

// srcMemo is the one thing the engine remembers about a source between
// executions. Under MAX slicing the main statement and every reachable
// routine body run once per constant period over the same closed sources
// — their filters reference nothing an execution can change, so the
// filtered relation is a pure function of table contents and clock. The
// memo holds the stamp of the last load (table object, its version, the
// clock: CURRENT_DATE can appear in a closed filter) and, from the second
// load under one stamp on, the filtered relation and the hash table the
// source's join built over it: every execution path is served — MAX
// fragments, PERST bodies, current statements, parallel workers — while a
// statement that runs once retains nothing. Safety is by validation, as
// for the storage indexes: DML (a version bump), SetNow, or a dropped and
// re-created table (a new object) fail the stamp and the next load
// rebuilds. Immutable once published; sessions sharing the plan replace
// it whole through fromPlan.memo.
type srcMemo struct {
	tab          *storage.Table
	version, now int64
	rel          *rel     // nil after the first load under this stamp
	hash         *hashIdx // over rel by the join's rkeys; nil until a join built it
}

// hashIndexFor returns the hash table over the right relation's rows
// keyed by jp.rkeys: the one the source's memo keeps, when right is the
// memo's relation (by identity) and every key is a plain column — then
// the table is a pure function of those, already validated, rows — else
// a new one, left on the memo under the same condition. A table the memo
// does not keep lives for the pipe that joins with it: it is the
// session's scratch, which the pipe pops when it returns (popHashes).
func (db *DB) hashIndexFor(ctx *execCtx, right *rel, jp *joinPlan) (*hashIdx, error) {
	m := jp.right.memo.Load()
	keep := jp.plain && m != nil && m.rel == right
	if keep && m.hash != nil {
		db.Stats.PlanReuseHits++
		return m.hash, nil
	}
	var index *hashIdx
	if keep {
		index = &hashIdx{ids: make(keyIDs, right.n)} // published on a shared plan: never scratch
	} else if index = db.hashes.push(); index.ids == nil {
		index.ids = keyIDs{}
	}
	start := len(db.keyBuf)
	for j := 0; j < right.n; j++ {
		ctx.scope.bind(right, j)
		null, err := db.keyOf(ctx, jp.rkeys)
		if !null && err == nil {
			id, fresh := index.ids.id(db.keyBuf[start:])
			if fresh {
				index.rows = slices.Grow(index.rows, 1)[:id+1]
				index.rows[id] = index.rows[id][:0]
			}
			index.rows[id] = append(index.rows[id], j)
		}
		db.keyBuf = db.keyBuf[:start]
		if err != nil {
			return nil, err
		}
	}
	ctx.scope.unbind(right)
	if keep {
		// Lost to a concurrent replacement, the table is simply rebuilt
		// by a later join.
		withHash := *m
		withHash.hash = index
		jp.right.memo.CompareAndSwap(m, &withHash)
	}
	return index, nil
}

// maxScratchKeys bounds the hash tables a session reuses: clearing a Go
// map costs as much as the largest it has been, so a table whose build
// held more keys is dropped when it is popped, lest it slow every small
// build after it.
const maxScratchKeys = 1024

// popHashes pops the hash-table stack down to height m, emptying each
// table it pops: its map cleared and its row lists truncated, their
// arrays kept — or, past maxScratchKeys, dropped.
func (db *DB) popHashes(m int) {
	for p := &db.hashes; p.n > m; p.n-- {
		if h := p.all[p.n-1]; len(h.ids) > maxScratchKeys {
			*h = hashIdx{}
		} else {
			clear(h.ids)
			h.rows = h.rows[:0]
		}
	}
}

// joinPlan partitions the conjuncts applicable at a join: equalities
// with one side over the left entries and the other over the right
// become hash keys; the rest are tested per candidate pair, cheap ones
// first.
type joinPlan struct {
	right        *fromPlan // the source joined in: its memo keeps the hash table
	lkeys, rkeys []operand
	plain        bool        // every rkey is a plain column: the hash table is a pure function of the right relation's rows
	rest         []*conjunct // cost-ordered
	stab         evalFn      // X of a point-overlap pair over the right table in rest, from the left side
}

// itemPlan is one select-list item: an expression, or (expr == nil) the
// expansion of * / t.* to whole entries.
type itemPlan struct {
	expr evalFn
	ents []int
}

// orderPlan is one ORDER BY key: select-list value pos (an ordinal, or
// the item a bare name aliases), or an expression over the row scope.
type orderPlan struct {
	pos  int
	expr evalFn
	err  error // out-of-range ordinal, reported when a row is ordered
}

// catResolved pins how a FROM name resolved through the catalog when
// the plan was built: to a table (with its column list), to a view
// (by identity), or to a system table (neither).
type catResolved struct {
	table bool
	cols  []string
	view  *storage.View // non-nil when the name resolved to a view
}

// planRecorder collects, during plan building, how each base-table
// name was resolved, for revalidation on reuse.
type planRecorder struct {
	varTables map[string][]string
	catTables map[string]catResolved
}

// planCache maps AST nodes (by identity) to what was compiled from them:
// a SELECT to its plan, and the root of an expression no SELECT plan
// holds to its compiled form (rootExpr). Entries are never deleted
// individually — a plan's staleness is detected by selPlan validation, a
// root expression binds nothing that could go stale — but the whole
// cache is wiped when it outgrows planCacheCap, bounding memory when
// many one-shot statements flow through (warm statements simply rebuild
// their entries once).
type planCache struct {
	m sync.Map // *sqlast.SelectStmt -> *selPlan, sqlast.Expr -> evalFn | testFn, ...
	n atomic.Int64
}

const planCacheCap = 8192

func newPlanCache() *planCache { return &planCache{} }

func (pc *planCache) get(node any) any {
	v, _ := pc.m.Load(node)
	return v
}

func (pc *planCache) put(node, p any) {
	if _, loaded := pc.m.Swap(node, p); !loaded {
		if pc.n.Add(1) > planCacheCap {
			pc.m.Range(func(k, _ any) bool {
				pc.m.Delete(k)
				return true
			})
			pc.n.Store(0)
		}
	}
}

// valid reports whether the plan's name resolution still holds in ctx.
// On a persistent-version mismatch the recorded resolutions are
// revalidated individually; if they all hold, the plan re-pins to the
// current version instead of rebuilding. The version is read before
// the checks, so a racing DDL can only leave the pin too old (a
// spurious revalidation next time), never too new.
func (p *selPlan) valid(db *DB, ctx *execCtx) bool {
	catV := db.Cat.PersistentVersion()
	repin := p.catVersion.Load() != catV
	for name, cols := range p.varTables {
		if rel := db.resolve(ctx.vars, name); rel.kind != relLocal || !sameCols(rel.tab.Schema.Names(), cols) {
			return false
		}
	}
	for name, res := range p.catTables {
		rel := db.resolve(ctx.vars, name)
		switch {
		case rel.kind == relLocal:
			return false // now shadowed by a table variable
		case res.table:
			// Column identity is the real validity condition; the
			// persistent version only fast-paths it. This covers
			// temporary tables on the fast path and every table under
			// revalidation.
			if rel.kind != relTable || !sameCols(rel.tab.Schema.Names(), res.cols) {
				return false
			}
		case rel.kind == relTable:
			// Resolved past the table map (to a view or system table):
			// any table carrying the name now — e.g. a freshly created
			// temp table — shadows that resolution.
			return false
		case repin && (res.view != nil || rel.kind == relView):
			// A view's output columns can depend on other objects (star
			// expansion), which identity alone doesn't pin: rebuild views
			// on any schema change. System tables (view == nil) have
			// code-defined schemas; just confirm no view took the name.
			return false
		}
	}
	if repin {
		p.catVersion.Store(catV)
	}
	return true
}

// sameCols compares column lists. A schema hands out one cached name
// slice, so the usual case — the table the plan was built against —
// is decided by the first element's address.
func sameCols(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	if len(got) == 0 || &got[0] == &want[0] {
		return true
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// selPlanFor returns the plan for sel, building (and caching) it when
// missing or stale.
func (db *DB) selPlanFor(ctx *execCtx, sel *sqlast.SelectStmt) (*selPlan, error) {
	if p, _ := db.plans.get(sel).(*selPlan); p != nil && p.valid(db, ctx) {
		return p, nil
	}
	p, err := db.buildSelPlan(ctx, sel)
	if err != nil {
		return nil, err
	}
	db.plans.put(sel, p)
	return p, nil
}

// enter pushes a query level of the given entries under ctx — the
// per-execution state of one SELECT: a copy of the caller's context whose
// scope is the level's row scope, in an activation — and returns its
// context. Plans are shared between sessions; everything an execution
// writes is here (or in the session's other stacks). The caller pops the
// level (popActs), on every path.
func (db *DB) enter(ctx *execCtx, metas []storage.Binding) *execCtx {
	return db.acts.push().level(ctx, metas)
}

// enterRow is enter for a level of one entry: a FOR loop's row, or the
// row an UPDATE or DELETE tests and writes.
func (db *DB) enterRow(ctx *execCtx, alias string, cols []string) *execCtx {
	a := db.acts.push()
	a.meta[0] = storage.Binding{Alias: alias, Cols: cols}
	return a.level(ctx, a.meta[:])
}

func (a *activation) level(ctx *execCtx, metas []storage.Binding) *execCtx {
	a.ctx = *ctx
	a.scope.parent, a.scope.metas = ctx.scope, metas
	a.scope.rows = slices.Grow(a.scope.rows, len(metas))[:len(metas)]
	a.ctx.scope = &a.scope
	return &a.ctx
}

// buildSelPlan plans sel: source metas for every FROM entry, conjunct
// decomposition of WHERE, the assignment of each conjunct to the first
// operator that has all the entries it reads, access paths and join
// partitions, and the bound select list.
func (db *DB) buildSelPlan(ctx *execCtx, sel *sqlast.SelectStmt) (*selPlan, error) {
	// Read the schema version before resolving, so a racing DDL can
	// only make the stamp too old (a spurious rebuild), never too new.
	catVersion := db.Cat.PersistentVersion()
	rec := &planRecorder{
		varTables: map[string][]string{},
		catTables: map[string]catResolved{},
	}
	rctx := *ctx
	rctx.planRec = rec
	p := &selPlan{varTables: rec.varTables, catTables: rec.catTables}
	p.catVersion.Store(catVersion)

	for _, fr := range sel.From {
		fp, err := db.planSource(&rctx, p, fr)
		if err != nil {
			return nil, err
		}
		p.from = append(p.from, fp)
	}
	all := &binder{metas: p.metas, hi: len(p.metas)}
	conjs := db.splitConjuncts(all, sel.Where)
	// take removes and returns the conjuncts ok accepts, in order.
	take := func(ok func(*conjunct) bool) (taken []*conjunct) {
		rest := conjs[:0]
		for _, c := range conjs {
			if ok(c) {
				taken = append(taken, c)
			} else {
				rest = append(rest, c)
			}
		}
		conjs = rest
		return taken
	}
	// Each source takes its conjuncts and its place in the pipeline: the
	// first streams, a later one is a step its predecessors' rows pass.
	p.steps = make([]step, 0, len(p.from)+1) // exact unless the first source is a JOIN tree
	for i, fp := range p.from {
		end := fp.base + fp.n
		upTo := func(c *conjunct) bool { return c.within(0, end) }
		if tf, ok := fp.ref.(*sqlast.TableFunc); ok {
			// Lateral: evaluated per accumulated row, seeing the
			// sources before it.
			fp.call = (&binder{metas: p.metas, hi: fp.base}).call(tf.Call, true)
			fp.push = orderByCost(take(upTo))
			p.steps = append(p.steps, step{kind: stepLateral, fp: fp, conds: fp.push})
			continue
		}
		db.planAccess(&rctx, p, fp, take(func(c *conjunct) bool { return c.ents != 0 && c.within(fp.base, end) }))
		if i == 0 {
			p.add(p.metas, fp)
			continue
		}
		fp.join = db.planJoin(&rctx, take(upTo), 0, fp)
		p.probe(p.metas, fp, fp.join, false)
	}
	// Cheap predicates run before stored-routine invocations so an
	// overlap or comparison can short-circuit an expensive call (simple
	// selectivity ordering).
	if p.residual = orderByCost(conjs); len(p.residual) > 0 {
		p.steps = append(p.steps, step{kind: stepFilter, conds: p.residual})
	}

	all.aggs = &p.aggs
	for i, it := range sel.Items {
		var ip itemPlan
		if it.Star || it.TableStar != "" {
			for e, m := range p.metas {
				if it.Star || strings.EqualFold(m.Alias, it.TableStar) {
					ip.ents = append(ip.ents, e)
					p.cols = append(p.cols, m.Cols...)
				}
			}
		} else {
			ip.expr = all.expr(it.Expr)
			p.cols = append(p.cols, storage.ItemName(it, i))
		}
		p.items = append(p.items, ip)
	}
	p.cols = p.cols[:len(p.cols):len(p.cols)] // results share it: appending must copy
	if sel.Having != nil {
		p.having = all.cond(sel.Having)
	}
	for _, o := range sel.OrderBy {
		p.order = append(p.order, all.orderKey(sel, o.Expr, len(p.cols)))
	}
	all.aggs = nil
	for _, g := range sel.GroupBy {
		p.groupBy = append(p.groupBy, all.expr(g))
	}
	return p, nil
}

// planSource appends the entries ref contributes to the level and
// returns its (still conjunct-less) plan.
func (db *DB) planSource(ctx *execCtx, p *selPlan, ref sqlast.TableRef) (*fromPlan, error) {
	fp := &fromPlan{ref: ref, base: len(p.metas)}
	if j, ok := ref.(*sqlast.JoinExpr); ok {
		var err error
		if fp.l, err = db.planSource(ctx, p, j.L); err != nil {
			return nil, err
		}
		if fp.r, err = db.planSource(ctx, p, j.R); err != nil {
			return nil, err
		}
	} else {
		ms, err := storage.Bindings(ctx, ref)
		if err != nil {
			return nil, err
		}
		p.metas = append(p.metas, ms...)
	}
	fp.n = len(p.metas) - fp.base
	return fp, nil
}

// tableOf resolves the stored table a base-table reference would scan
// right now, nil for views, derived tables and the like. Build-time
// only: plans keep column ordinals, never tables.
func (db *DB) tableOf(ctx *execCtx, ref sqlast.TableRef) *storage.Table {
	if bt, ok := ref.(*sqlast.BaseTable); ok {
		return db.resolve(ctx.vars, bt.Name).tab
	}
	return nil
}

// planAccess gives a source its pushdown conjuncts and decides how it
// is loaded: the access path of a stored table, or the distribution of
// the conjuncts over a JOIN tree.
func (db *DB) planAccess(ctx *execCtx, p *selPlan, fp *fromPlan, push []*conjunct) {
	fp.push = push
	fp.closed = true
	for _, c := range push {
		if c.hasSub || c.unresolved || c.external || c.expensive {
			fp.closed = false
		}
	}
	switch r := fp.ref.(type) {
	case *sqlast.BaseTable:
		t := db.tableOf(ctx, r)
		if t == nil {
			return
		}
		for i, c := range push {
			if col, val := c.indexable(fp.base); val != nil {
				fp.idxCol, fp.idxVal, fp.idxSkip = col, c.b.expr(val), i
				break
			}
		}
		fp.stab = findStab(push, t, fp.base)
	case *sqlast.JoinExpr:
		mid, end := fp.r.base, fp.base+fp.n
		var lpush, rpush []*conjunct
		fp.push = nil
		for _, c := range push {
			switch {
			case c.within(fp.base, mid):
				lpush = append(lpush, c)
			case c.within(mid, end) && r.Type == "INNER":
				rpush = append(rpush, c)
			default:
				fp.rest = append(fp.rest, c)
			}
		}
		db.planAccess(ctx, p, fp.l, lpush)
		db.planAccess(ctx, p, fp.r, rpush)
		// ON-clause names resolve against the join's own entries only.
		on := db.splitConjuncts(&binder{metas: p.metas, lo: fp.base, hi: end}, r.On)
		fp.on = db.planJoin(ctx, on, fp.base, fp.r)
	case *sqlast.TableFunc:
		// Inside a JOIN tree: not lateral, sees only the outer scope.
		fp.call = (&binder{}).call(r.Call, true)
	}
}

// planJoin partitions the conjuncts applicable when right joins the
// entries [lo, right.base).
func (db *DB) planJoin(ctx *execCtx, on []*conjunct, lo int, right *fromPlan) *joinPlan {
	jp := &joinPlan{right: right, plain: true}
	for _, c := range on {
		l, r, ok := c.equiSides(lo, right.base, right.base+right.n)
		if !ok {
			jp.rest = append(jp.rest, c)
			continue
		}
		jp.lkeys = append(jp.lkeys, c.b.operand(l))
		jp.rkeys = append(jp.rkeys, c.b.operand(r))
		if _, col := r.(*sqlast.ColumnRef); !col {
			jp.plain = false
		}
	}
	jp.rest = orderByCost(jp.rest)
	if t := db.tableOf(ctx, right.ref); t != nil && len(jp.lkeys) == 0 {
		jp.stab = findStab(jp.rest, t, right.base)
		right.ords = jp.stab != nil
	}
	return jp
}

// orderKey plans one ORDER BY key: an ordinal, a select-list alias, or
// an arbitrary expression over the row scope.
func (b *binder) orderKey(sel *sqlast.SelectStmt, e sqlast.Expr, width int) orderPlan {
	if lit, ok := e.(*sqlast.Literal); ok && lit.Val.Kind == types.KindInt {
		n := int(lit.Val.I)
		if n < 1 || n > width {
			return orderPlan{err: fmt.Errorf("ORDER BY ordinal %d out of range", n)}
		}
		return orderPlan{pos: n}
	}
	if cr, ok := e.(*sqlast.ColumnRef); ok && cr.Table == "" {
		for j, it := range sel.Items {
			if it.Alias != "" && strings.EqualFold(it.Alias, cr.Column) && j < width {
				return orderPlan{pos: j + 1}
			}
		}
	}
	return orderPlan{expr: b.expr(e)}
}
