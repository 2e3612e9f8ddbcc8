package taupsm

import (
	"fmt"
	"math"
	"sort"

	"taupsm/internal/engine"
	"taupsm/internal/proc"
	"taupsm/internal/sqlast"
	"taupsm/internal/stats"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// This file is the stratum half of the statistics subsystem: the
// ANALYZE statement, the estimate helper feeding the §VII-F heuristic
// and EXPLAIN, and the snapshot document served by the /statistics
// telemetry endpoint. The registry itself (internal/stats) keeps only
// what the rows cannot tell — DML history and ANALYZE facts — and
// changes only when a committed statement is folded into it.

// execAnalyze runs ANALYZE [table] over the named table (or every stored
// table) and reports one summary row per table. It commits one analyze
// effect per table, and folding that batch into the registry is what
// sweeps the rows for the ANALYZE-only facts (overlap-depth histogram,
// maximum overlap) — the same fold that replays the effect after a
// restart.
func (db *DB) execAnalyze(pr *proc.Process, s *sqlast.AnalyzeStmt) (*Result, error) {
	cat := db.eng.Cat
	var names []string
	if s.Table != "" {
		t := cat.Table(s.Table)
		if t == nil || t.Temporary {
			return nil, fmt.Errorf("table %s does not exist", s.Table)
		}
		names = []string{t.Name}
	} else {
		for _, n := range cat.TableNames() {
			if t := cat.Table(n); t != nil && !t.Temporary {
				names = append(names, n)
			}
		}
		sort.Strings(names)
	}
	effects := make([]storage.Effect, len(names))
	for i, n := range names {
		effects[i] = storage.Effect{Kind: storage.EffAnalyze, Name: n}
	}
	if err := db.appendCommit(pr, effects); err != nil {
		return nil, err
	}
	sc := db.enter(pr, "execute")
	reg := db.eng.TabStats
	reg.FoldAll(cat, effects)
	res := &engine.Result{Cols: []string{
		"table_name", "rows", "distinct_points", "constant_periods", "max_overlap",
	}}
	for _, n := range names {
		snap := reg.Snapshot(cat.Table(n))
		res.Rows = append(res.Rows, []types.Value{
			types.NewString(snap.Name),
			types.NewInt(snap.AnalyzedRows),
			types.NewInt(snap.DistinctPoints),
			types.NewInt(snap.ConstantPeriods),
			types.NewInt(snap.MaxOverlap),
		})
	}
	db.leave(pr, sc, nil, nil)
	return wrapResult(res), nil
}

// statsEstimate is what the statistics predict for one statement's
// temporal context; see statsEstimates.
type statsEstimate struct {
	// ConstantPeriods estimates how many constant periods MAX slicing
	// evaluates: stored endpoints strictly inside the context, plus
	// one. Exact for single-table statements (the common case); across
	// tables, endpoints shared between tables are counted per table, so
	// the estimate is an upper bound.
	ConstantPeriods int64
	// Rows is the number of stored fragments overlapping the context.
	Rows int64
}

// statsEstimates predicts a sequenced statement's slicing cost from the
// endpoint views of the tables it reaches, sliced along dim. whole marks
// an unbounded context (no period clause). Estimates exist only when
// every reachable table has been ANALYZEd — statistics-informed
// behavior is opted into per table, so a database that never runs
// ANALYZE decides exactly as before.
func (db *DB) statsEstimates(tables []string, dim sqlast.TemporalDimension, whole bool, b, e int64) (statsEstimate, bool) {
	if len(tables) == 0 {
		return statsEstimate{}, false
	}
	for _, name := range tables {
		if t := db.eng.Cat.Table(name); t == nil || !db.eng.TabStats.HasAnalyzed(t) {
			return statsEstimate{}, false
		}
	}
	if whole {
		b, e = math.MinInt64, math.MaxInt64
	}
	points, rows := db.contextCounts(tables, dim, b, e)
	return statsEstimate{ConstantPeriods: points + 1, Rows: rows}, true
}

// StatisticsSnapshot is the self-describing statistics document the
// /statistics telemetry endpoint serves and the REPL's \stats renders:
// per-table temporal statistics plus the workload profiles.
type StatisticsSnapshot struct {
	Tables     []stats.TableSnapshot     `json:"tables"`
	Routines   []stats.RoutineSnapshot   `json:"routines"`
	Statements []stats.StatementSnapshot `json:"statements"`
}

// Statistics returns a point-in-time snapshot of everything the
// statistics registry knows. The same data is queryable in SQL through
// the tau_stat_tables, tau_stat_routines, and tau_stat_statements
// system tables.
func (db *DB) Statistics() StatisticsSnapshot {
	reg := db.eng.TabStats
	return StatisticsSnapshot{
		Tables:     reg.TableSnapshots(db.eng.Cat),
		Routines:   reg.RoutineSnapshots(),
		Statements: reg.StatementSnapshots(),
	}
}
