package engine

import (
	"sync"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
)

// Prepared is the shared execution state of a fragment batch: the
// per-statement structures that are identical for every fragment —
// materialized source relations whose pushdown filters are closed
// (reference nothing that changes between executions) and the hash
// tables joinRels builds over them — cached once and reused by every
// execution that runs with the same Prepared attached.
//
// The stratum creates one Prepared per cached translation and passes
// it to ExecPreparedWithTables for the serial path and to every worker
// session of a parallel MAX run, so the batch plans once and executes
// many times: across the constant periods of one statement, across
// repeated executions of the same statement text, and across workers.
//
// Safety is by validation, like the stratum's statement-plan cache:
// every cached relation is stamped with its table's identity, version,
// and the clock (CURRENT_DATE can appear in a closed filter), and the
// exact pushdown conjunct set it was filtered by, all re-checked on
// every consult. A mid-batch DML bumps the table version and the next
// consult rebuilds. Entries are immutable once published; the mutex
// only guards the maps.
type Prepared struct {
	mu   sync.Mutex
	rels map[*sqlast.BaseTable]*prepRel
}

// NewPrepared returns an empty prepared-plan cache.
func NewPrepared() *Prepared {
	return &Prepared{rels: map[*sqlast.BaseTable]*prepRel{}}
}

// prepRel is one cached source relation, keyed by the FROM-clause node
// that produced it. tab/version/now/fp are the validity stamp; rel
// is served to evalSelect as a shallow struct copy (its rows are never
// mutated in place by the evaluator — filters reallocate). The join
// hash tables, by key signature, are built on demand under mu.
type prepRel struct {
	tab     *storage.Table
	version int64
	now     int64
	fp      *fromPlan // the source's plan, and with it its pushdown set, by identity

	rel *rel

	mu     sync.Mutex
	hashes map[string]*hashIdx
}

// valid reports whether the entry still describes table t filtered by
// exactly fp's pushdown conjuncts under the current clock.
func (e *prepRel) valid(t *storage.Table, now int64, fp *fromPlan) bool {
	return e.tab == t && e.version == t.Version() && e.now == now && e.fp == fp
}

// loadSourcePrepared is loadSource behind the batch's prepared-plan
// cache. Only plain catalog-table references with closed pushdown (no
// subqueries, no unresolved or outer/parameter references, no routine
// calls — then the filtered relation is a pure function of table
// contents and clock) take the cached path; everything else (views,
// derived tables, table-valued variables, parameter-dependent filters)
// falls through to a fresh load.
func (db *DB) loadSourcePrepared(ctx *execCtx, fp *fromPlan) (*rel, error) {
	p := ctx.prep
	bt, ok := fp.ref.(*sqlast.BaseTable)
	if p == nil || !ok || !fp.closed {
		return db.loadSource(ctx, fp)
	}
	if ctx.vars != nil && ctx.vars.getTable(bt.Name) != nil {
		// Shadowed by a table-valued variable (the cp relation, a
		// collection parameter): contents are per-execution.
		return db.loadSource(ctx, fp)
	}
	t := db.Cat.Table(bt.Name)
	if t == nil {
		return db.loadSource(ctx, fp)
	}

	p.mu.Lock()
	if ent := p.rels[bt]; ent != nil && ent.valid(t, db.Now, fp) {
		cp := *ent.rel
		cp.prepEnt = ent
		p.mu.Unlock()
		ctx.window().source(t, false, nil) // as the scan that built it would have, at the least
		db.Stats.PlanReuseHits++
		return &cp, nil
	}
	p.mu.Unlock()

	// Read the version before scanning so a racing bump can only make
	// the stamp too old (a spurious rebuild), never too new.
	version := t.Version()
	loaded, err := db.loadSource(ctx, fp)
	if err != nil {
		return nil, err
	}
	if loaded.tab != t {
		// Resolved to something other than the stored table's scan
		// (e.g. a view of the same name): don't cache.
		return loaded, nil
	}
	ent := &prepRel{tab: t, version: version, now: db.Now, fp: fp, rel: loaded}
	p.mu.Lock()
	p.rels[bt] = ent
	p.mu.Unlock()
	cp := *loaded
	cp.prepEnt = ent
	return &cp, nil
}

// hashFor returns the cached join hash table for the rendered key
// signature.
func (e *prepRel) hashFor(sig string) (*hashIdx, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	idx, ok := e.hashes[sig]
	return idx, ok
}

func (e *prepRel) putHash(sig string, idx *hashIdx) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.hashes == nil {
		e.hashes = map[string]*hashIdx{}
	}
	e.hashes[sig] = idx
}

// hashIndexFor builds (or serves from the prepared plan) the hash
// table over the right relation's rows keyed by jp.rkeys. Only cached
// when the right side came out of the prepared cache and every key is
// a plain column reference (jp.sig is their rendering, "" otherwise) —
// then the table is a pure function of the (already version-validated)
// cached rows.
func (db *DB) hashIndexFor(ctx *execCtx, right *rel, jp *joinPlan) (*hashIdx, error) {
	cacheable := right.prepEnt != nil && jp.sig != ""
	if cacheable {
		if idx, ok := right.prepEnt.hashFor(jp.sig); ok {
			db.Stats.PlanReuseHits++
			return idx, nil
		}
	}
	index := &hashIdx{ids: make(keyIDs, right.n)}
	start := len(db.keyBuf)
	for j := 0; j < right.n; j++ {
		ctx.scope.bind(right, j)
		null, err := db.keyOf(ctx, jp.rkeys)
		if !null && err == nil {
			id, fresh := index.ids.id(db.keyBuf[start:])
			if fresh {
				index.rows = append(index.rows, nil)
			}
			index.rows[id] = append(index.rows[id], j)
		}
		db.keyBuf = db.keyBuf[:start]
		if err != nil {
			return nil, err
		}
	}
	if cacheable {
		right.prepEnt.putHash(jp.sig, index)
	}
	return index, nil
}
