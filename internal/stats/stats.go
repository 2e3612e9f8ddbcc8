// Package stats keeps the statistics of a database that cannot be read
// off its rows: per table, the DML history and the facts of the last
// ANALYZE; per stored routine and per statement digest, a workload
// profile folded in from the observability plumbing. What can be read
// off the rows — row counts, endpoints, constant periods, the rows a
// context overlaps — is read off them, through the table's endpoint
// view (storage.Endpoints).
//
// The table history changes only by Fold, at statement commit and in
// WAL replay alike, so a live database and one recovered from its log
// hold the same statistics.
package stats

import (
	"sort"
	"strings"
	"sync"

	"taupsm/internal/storage"
)

// table is one table's history. All access goes through a Registry,
// which serializes it.
type table struct {
	// DML history since creation, counted per committed row effect.
	Inserts int64
	Updates int64
	Deletes int64

	analysis
}

// analysis is what the last ANALYZE saw; a table's schema change
// clears it.
type analysis struct {
	Analyzed     bool
	AnalyzedRows int64
	MaxOverlap   int64 // peak overlap depth
}

// Registry is the statistics store shared by every engine session of
// one database: table entries keyed by lowercase table name, plus the
// workload profiles. All methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	tables     map[string]*table
	routines   map[string]*RoutineProfile
	statements map[string]*StatementProfile
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		tables:     map[string]*table{},
		routines:   map[string]*RoutineProfile{},
		statements: map[string]*StatementProfile{},
	}
}

func key(name string) string { return strings.ToLower(name) }

// entryLocked returns the named entry, creating an empty one on first
// sight.
func (r *Registry) entryLocked(k string) *table {
	e, ok := r.tables[k]
	if !ok {
		e = &table{}
		r.tables[k] = e
	}
	return e
}

// Fold folds one committed effect batch, which each visits in commit
// order, into the table histories. It is the one place they change:
// the stratum calls it when a statement commits, WAL replay once per
// replayed commit, after applying it to cat. The rules:
//
//   - a row effect counts one insert, update or delete — unless a
//     put-table effect of the same batch created the table first, in
//     which case the rows arrived whole with it (CREATE TABLE ... AS
//     ... WITH DATA, ALTER TABLE ... ADD VALIDTIME) and are not DML;
//   - a put-table keeps the counters and clears the ANALYZE facts (the
//     rows ANALYZE saw were replaced);
//   - a drop discards the entry;
//   - an analyze effect runs ANALYZE over the table's rows as cat
//     holds them — the batch of an ANALYZE statement holds nothing else.
func (r *Registry) Fold(cat *storage.Catalog, each func(func(*storage.Effect))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var loaded map[string]bool
	each(func(e *storage.Effect) {
		k := key(e.Name)
		switch e.Kind {
		case storage.EffInsert, storage.EffUpdate, storage.EffDelete:
			if loaded[k] {
				return
			}
			ent := r.entryLocked(k)
			switch e.Kind {
			case storage.EffInsert:
				ent.Inserts++
			case storage.EffUpdate:
				ent.Updates++
			default:
				ent.Deletes++
			}
		case storage.EffPutTable:
			if loaded == nil {
				loaded = map[string]bool{}
			}
			loaded[k] = true
			if ent := r.tables[k]; ent != nil {
				ent.analysis = analysis{}
			}
		case storage.EffDropTable:
			delete(r.tables, k)
		case storage.EffAnalyze:
			if t := cat.Table(e.Name); t != nil {
				r.entryLocked(k).analyze(t)
			}
		}
	})
}

// FoldAll is Fold over a batch held in a slice.
func (r *Registry) FoldAll(cat *storage.Catalog, effects []storage.Effect) {
	r.Fold(cat, func(visit func(*storage.Effect)) {
		for i := range effects {
			visit(&effects[i])
		}
	})
}

// primary returns the endpoint view of a temporal table's primary
// period, or nil.
func primary(t *storage.Table) *storage.Endpoints {
	if !t.ValidTime && !t.TransactionTime {
		return nil
	}
	return t.Endpoints(t.BeginCol(), t.EndCol())
}

// analyze records the facts ANALYZE computes: the rows it saw and the
// peak overlap depth, from a sweep over the primary period's endpoints.
func (e *table) analyze(t *storage.Table) {
	e.analysis = analysis{Analyzed: true, AnalyzedRows: int64(len(t.Rows))}
	if v := primary(t); v != nil && len(v.Points) >= 2 {
		v.Sweep(func(depth int64) { e.MaxOverlap = max(e.MaxOverlap, depth) })
	}
}

// HasAnalyzed reports whether the table has been ANALYZEd (this run or
// a recovered one). The stratum's estimate layer activates only then:
// statistics-informed decisions are an opt-in the user makes by running
// ANALYZE, exactly as with conventional optimizer statistics.
func (r *Registry) HasAnalyzed(t *storage.Table) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ent, ok := r.tables[key(t.Name)]
	return ok && ent.Analyzed
}

// TableSnapshot is one table's statistics as exposed by the
// tau_stat_tables system table and the /statistics endpoint.
type TableSnapshot struct {
	Name            string  `json:"name"`
	Temporal        bool    `json:"temporal"`
	RowCount        int64   `json:"row_count"`
	Inserts         int64   `json:"inserts"`
	Updates         int64   `json:"updates"`
	Deletes         int64   `json:"deletes"`
	DistinctPoints  int64   `json:"distinct_points"`
	ConstantPeriods int64   `json:"constant_periods"`
	PeriodDensity   float64 `json:"period_density"`
	AvgIntervalDays float64 `json:"avg_interval_days"`
	Analyzed        bool    `json:"analyzed"`
	AnalyzedRows    int64   `json:"analyzed_rows,omitempty"`
	MaxOverlap      int64   `json:"max_overlap,omitempty"`
}

// Snapshot renders one table's statistics: its history from the
// registry, the rest read off its rows.
func (r *Registry) Snapshot(t *storage.Table) TableSnapshot {
	r.mu.Lock()
	var e table
	if ent := r.tables[key(t.Name)]; ent != nil {
		e = *ent
	}
	r.mu.Unlock()
	s := TableSnapshot{
		Name:     t.Name,
		Temporal: t.ValidTime || t.TransactionTime,
		RowCount: int64(len(t.Rows)),
		Inserts:  e.Inserts,
		Updates:  e.Updates,
		Deletes:  e.Deletes,
		Analyzed: e.Analyzed,
	}
	if v := primary(t); v != nil {
		s.DistinctPoints = int64(len(v.Points))
		s.ConstantPeriods = max(s.DistinctPoints-1, 0)
		if s.RowCount > 0 {
			s.PeriodDensity = float64(s.ConstantPeriods) / float64(s.RowCount)
			s.AvgIntervalDays = float64(v.LenSum) / float64(s.RowCount)
		}
	}
	if e.Analyzed {
		s.AnalyzedRows = e.AnalyzedRows
		s.MaxOverlap = e.MaxOverlap
	}
	return s
}

// TableSnapshots renders every non-temporary catalog table's
// statistics, sorted by name. Entries without a catalog table are
// invisible.
func (r *Registry) TableSnapshots(cat *storage.Catalog) []TableSnapshot {
	names := cat.TableNames()
	sort.Strings(names)
	out := make([]TableSnapshot, 0, len(names))
	for _, name := range names {
		t := cat.Table(name)
		if t == nil || t.Temporary {
			continue
		}
		out = append(out, r.Snapshot(t))
	}
	return out
}

// ---------- checkpoint persistence ----------

// TablePersist is one table's entry as a checkpoint stores it.
type TablePersist struct {
	Name         string
	Inserts      int64
	Updates      int64
	Deletes      int64
	Analyzed     bool
	AnalyzedRows int64
	MaxOverlap   int64
}

// Persist renders every table entry, sorted by name for deterministic
// snapshots.
func (r *Registry) Persist() []TablePersist {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.tables))
	for n := range r.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]TablePersist, 0, len(names))
	for _, n := range names {
		e := r.tables[n]
		out = append(out, TablePersist{
			Name: n, Inserts: e.Inserts, Updates: e.Updates, Deletes: e.Deletes,
			Analyzed: e.Analyzed, AnalyzedRows: e.AnalyzedRows, MaxOverlap: e.MaxOverlap,
		})
	}
	return out
}

// Install seeds the registry from a checkpoint's entries.
func (r *Registry) Install(ps []TablePersist) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range ps {
		r.tables[key(p.Name)] = &table{
			Inserts: p.Inserts, Updates: p.Updates, Deletes: p.Deletes,
			analysis: analysis{Analyzed: p.Analyzed, AnalyzedRows: p.AnalyzedRows, MaxOverlap: p.MaxOverlap},
		}
	}
}
