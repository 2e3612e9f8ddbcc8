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
// build time: it runs in the scope it was built in, under enclosing
// levels of the same entries (the columns its names past its own level
// were bound to, or ruled out); names that resolved to table-valued
// variables still do (with the same column list), names that resolved to
// catalog objects are not shadowed by a variable now, and names that
// resolved to catalog tables still reach a table with the same column
// list. Slots, index ordinals and join keys all derive from those column
// lists, so the same check covers them. The persistent catalog version serves as
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
	tupleMajor *pipePlan   // the same, driven from the temporal table a tiling one is joined to; or nil
	residual   []*conjunct // conjuncts no source or join could take, cost-ordered
	items      []itemPlan
	cols       []string  // output column names
	aggs       []aggPlan // aggregate calls of the select list, HAVING and ORDER BY
	groupBy    []evalFn
	having     testFn
	order      []orderPlan
	env        *scope     // the scope its names were bound in
	up         levels     // the enclosing levels they were bound under
	rels       []resolved // what each relation name it reads resolved to at build
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

	rel  ref       // a base table's name, compiled in the plan's scope; unset for every other source
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
// routine body run once per constant period over the same closed sources —
// their filters reference nothing an execution can change, so the filtered
// relation is a pure function of table contents and clock. The memo holds
// the stamp of the last load (table object, its version, the clock:
// CURRENT_DATE can appear in a closed filter) and, from the second load
// under one stamp on, the filtered relation and the hash table the
// source's join built over it: every execution path is served — MAX
// fragments, PERST bodies, current statements — while a statement that
// runs once retains nothing. Safety is by validation, as for the storage
// indexes: DML (a version bump), SetNow, or a dropped and re-created table
// (a new object) fail the stamp and the next load rebuilds. Immutable once
// published; sessions sharing the plan replace it whole through
// fromPlan.memo.
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
	stabX        sqlast.Expr // that X as written
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

// resolved pins how a relation name resolved when the plan was built: to
// a table bound in a slot or frame or to a catalog table (with its column
// list), to a view (by identity), or to a system table.
type resolved struct {
	ref  ref
	kind relKind
	cols []string
	view *storage.View
}

// planRecorder collects, during plan building, how each relation name
// was resolved, for revalidation on reuse.
type planRecorder struct {
	rels []resolved
}

func (rec *planRecorder) note(r resolved) {
	for _, x := range rec.rels {
		if x.ref.key == r.ref.key {
			return
		}
	}
	rec.rels = append(rec.rels, r)
}

// planCache maps AST nodes (by identity) to what was compiled from them:
// a SELECT to its plan, the root of an expression no SELECT plan
// holds to its compiled form (rootExpr), an INSERT with a column list or
// an UPDATE to its ordinals and values (dmlPlan). Entries are never deleted
// individually — a stale one is detected by its validation and replaced —
// but by generation: when the current one outgrows planCacheCap it turns
// old and the old one is dropped; a hit in the old one moves the entry.
// So a statement run once in every planCacheCap new entries keeps its plan
// and its sources' memos, and at most 2 × planCacheCap entries are held.
type planCache struct {
	gens atomic.Pointer[[2]*generation] // the current one, the old one
}

type generation struct {
	m sync.Map // node -> *selPlan, *scoped[T], *dmlPlan, or a top-level block's layout
	n atomic.Int64
}

const planCacheCap = 8192

func newPlanCache() *planCache {
	pc := &planCache{}
	pc.gens.Store(&[2]*generation{{}, {}})
	return pc
}

func (pc *planCache) get(node any) any {
	gs := pc.gens.Load()
	if v, ok := gs[0].m.Load(node); ok {
		return v
	}
	v, ok := gs[1].m.Load(node)
	if ok {
		pc.put(node, v)
	}
	return v
}

func (pc *planCache) put(node, p any) {
	g := pc.gens.Load()[0]
	if _, loaded := g.m.Swap(node, p); !loaded && g.n.Add(1) == planCacheCap+1 {
		pc.gens.Store(&[2]*generation{{}, g}) // the entry past the cap turns g old, once
	}
}

// valid reports whether the plan's name resolution still holds in ctx.
// On a persistent-version mismatch the recorded resolutions are
// revalidated individually; if they all hold, the plan re-pins to the
// current version instead of rebuilding. The version is read before
// the checks, so a racing DDL can only leave the pin too old (a
// spurious revalidation next time), never too new.
func (p *selPlan) valid(db *DB, ctx *execCtx) bool {
	if p.env != ctx.env || !p.up.match(ctx.scope) {
		return false
	}
	catV := db.Cat.PersistentVersion()
	repin := p.catVersion.Load() != catV
	for _, res := range p.rels {
		rel := db.resolve(ctx, &res.ref)
		switch {
		case res.kind == relLocal:
			if rel.kind != relLocal || !sameCols(rel.tab.Schema.Names(), res.cols) {
				return false
			}
		case rel.kind == relLocal:
			return false // now shadowed by a table variable
		case res.kind == relTable:
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
	rec := &planRecorder{}
	rctx := *ctx
	rctx.planRec = rec
	p := &selPlan{env: ctx.env}
	p.catVersion.Store(catVersion)

	for _, fr := range sel.From {
		fp, err := db.planSource(&rctx, p, fr)
		if err != nil {
			return nil, err
		}
		p.from = append(p.from, fp)
	}
	all := levelIn(ctx, p.metas)
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
			fp.call = all.within(0, fp.base).call(tf.Call, true)
			fp.push = orderByCost(take(upTo))
			p.steps = append(p.steps, step{kind: stepLateral, fp: fp, conds: fp.push})
			continue
		}
		db.planAccess(&rctx, p, all, fp, take(func(c *conjunct) bool { return c.ents != 0 && c.within(fp.base, end) }))
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
	p.tupleMajor = db.planTupleMajor(&rctx, p, all)

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
	p.rels, p.up = rec.rels, all.levels()
	return p, nil
}

// planTupleMajor lays the FROM clause out a second way when it opens
// with a table variable and a stored temporal table T joined to it by
// the pair T.begin_time <= v.c AND v.c < T.end_time on the variable's
// first column c — MAX's constant periods and the table they slice; b,
// the level's binder, reads the pair the join found (findStab).
// When the variable is bound to a tiling relation (the native cp) T
// streams, restricted to the span of the periods, and each of its rows
// range-probes the periods inside its own: a tuple meets its periods in
// order, consecutive calls share their arguments, and one routine
// answer's window covers a run of them (DESIGN §5). T's join conjuncts
// become the range step's, and the variable's pushdown conjuncts are
// tested once per period, as in FROM order; every later step is the
// FROM-order layout's own, since the entries bound before it are the
// same. nil when the shape is absent.
func (db *DB) planTupleMajor(ctx *execCtx, p *selPlan, b *binder) *pipePlan {
	if len(p.from) < 2 || len(p.steps) == 0 {
		return nil
	}
	v, t := p.from[0], p.from[1]
	// The join's point-overlap pair (findStab) must stab at v's first column.
	if v.rel.name == "" || v.n != 1 || t.n != 1 || db.resolve(ctx, &v.rel).kind != relLocal ||
		t.join == nil || b.slotOf(t.join.stabX, v.base) != 0 {
		return nil
	}
	tab := db.tableOf(ctx, t)
	rs := step{kind: stepRange, fp: v, conds: t.join.rest, period: [3]int{t.base, tab.BeginCol(), tab.EndCol()}}
	return &pipePlan{first: t, steps: append([]step{rs}, p.steps[1:]...), drive: true}
}

// layout returns the layout an execution of the plan takes: tuple-major
// when the plan has one, the table variable is bound to a tiling
// relation of more than one period and the caller wants every row (no
// limit); else FROM order.
func (p *selPlan) layout(db *DB, ctx *execCtx, limit int) pipePlan {
	if tm := p.tupleMajor; tm != nil && limit == 0 && !db.DisableIndexes {
		if t := db.resolve(ctx, &tm.steps[0].fp.rel).tab; t != nil && t.Tiling && len(t.Rows) > 1 {
			return *tm
		}
	}
	return p.pipePlan
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
		if bt, ok := ref.(*sqlast.BaseTable); ok {
			fp.rel = ctx.env.ref(bt.Name, bindTable)
		}
	}
	fp.n = len(p.metas) - fp.base
	return fp, nil
}

// tableOf resolves the stored table a base-table source would scan right
// now, nil for views, derived tables and the like. Build-time only:
// plans keep column ordinals, never tables.
func (db *DB) tableOf(ctx *execCtx, fp *fromPlan) *storage.Table {
	if fp.rel.name != "" {
		return db.resolve(ctx, &fp.rel).tab
	}
	return nil
}

// planAccess gives a source its pushdown conjuncts and decides how it
// is loaded: the access path of a stored table, or the distribution of
// the conjuncts over a JOIN tree.
func (db *DB) planAccess(ctx *execCtx, p *selPlan, b *binder, fp *fromPlan, push []*conjunct) {
	fp.push = push
	fp.closed = true
	for _, c := range push {
		if c.hasSub || c.unresolved || c.external || c.expensive {
			fp.closed = false
		}
	}
	switch r := fp.ref.(type) {
	case *sqlast.BaseTable:
		t := db.tableOf(ctx, fp)
		if t == nil {
			return
		}
		for i, c := range push {
			if col, val := c.indexable(fp.base); val != nil {
				fp.idxCol, fp.idxVal, fp.idxSkip = col, c.b.expr(val), i
				break
			}
		}
		fp.stab, _ = findStab(push, t, fp.base)
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
		db.planAccess(ctx, p, b, fp.l, lpush)
		db.planAccess(ctx, p, b, fp.r, rpush)
		// ON-clause names resolve against the join's own entries only.
		on := db.splitConjuncts(b.within(fp.base, end), r.On)
		fp.on = db.planJoin(ctx, on, fp.base, fp.r)
	case *sqlast.TableFunc:
		// Inside a JOIN tree: not lateral, sees only the outer scope.
		fp.call = b.within(0, 0).call(r.Call, true)
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
	if t := db.tableOf(ctx, right); t != nil && len(jp.lkeys) == 0 {
		jp.stab, jp.stabX = findStab(jp.rest, t, right.base)
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
