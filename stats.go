package taupsm

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"taupsm/internal/engine"
	"taupsm/internal/sqlast"
	"taupsm/internal/stats"
	"taupsm/internal/types"
)

// This file is the stratum half of the statistics subsystem: the
// ANALYZE statement, the estimate helper feeding the §VII-F heuristic
// and EXPLAIN, and the snapshot document served by the /statistics
// telemetry endpoint. The registry itself (internal/stats) is
// maintained incrementally by the engine's DML hooks and persisted
// through WAL checkpoints.

// execAnalyze runs ANALYZE [table]: it recomputes the named table's
// (or every stored table's) statistics from the stored rows, including
// the ANALYZE-only extras — overlap-depth histogram and maximum
// overlap — and reports one summary row per table.
func (db *DB) execAnalyze(s *sqlast.AnalyzeStmt) (*Result, error) {
	reg := db.eng.TabStats
	if reg == nil {
		return nil, errors.New("taupsm: statistics are disabled")
	}
	var names []string
	if s.Table != "" {
		t := db.eng.Cat.Table(s.Table)
		if t == nil || t.Temporary {
			return nil, fmt.Errorf("table %s does not exist", s.Table)
		}
		names = []string{t.Name}
	} else {
		for _, n := range db.eng.Cat.TableNames() {
			if t := db.eng.Cat.Table(n); t != nil && !t.Temporary {
				names = append(names, n)
			}
		}
		sort.Strings(names)
	}
	res := &engine.Result{Cols: []string{
		"table_name", "rows", "distinct_points", "constant_periods", "max_overlap",
	}}
	for _, n := range names {
		t := db.eng.Cat.Table(n)
		if t == nil {
			continue
		}
		snap := reg.Analyze(t)
		res.Rows = append(res.Rows, []types.Value{
			types.NewString(snap.Name),
			types.NewInt(snap.AnalyzedRows),
			types.NewInt(snap.DistinctPoints),
			types.NewInt(snap.ConstantPeriods),
			types.NewInt(snap.MaxOverlap),
		})
	}
	return wrapResult(res), nil
}

// statsEstimate is what the registry predicts for one statement's
// temporal context; see statsEstimates.
type statsEstimate struct {
	// ConstantPeriods estimates how many constant periods MAX slicing
	// evaluates: stored endpoints strictly inside the context, plus
	// one. Exact for single-table statements (the common case); across
	// tables, endpoints shared between tables are counted per table, so
	// the estimate is an upper bound.
	ConstantPeriods int64
	// Rows estimates the stored fragments overlapping the context.
	Rows int64
}

// statsEstimates predicts a sequenced statement's slicing cost from
// the statistics registry without touching row data beyond a possible
// first-read recompute. whole marks an unbounded context (no period
// clause). Estimates exist only when every reachable table has been
// ANALYZEd — statistics-informed behavior is opted into per table, so
// a database that never runs ANALYZE decides exactly as before.
func (db *DB) statsEstimates(tables []string, whole bool, b, e int64) (statsEstimate, bool) {
	reg := db.eng.TabStats
	if reg == nil || len(tables) == 0 {
		return statsEstimate{}, false
	}
	if whole {
		b, e = math.MinInt64, math.MaxInt64
	}
	var est statsEstimate
	for _, name := range tables {
		t := db.eng.Cat.Table(name)
		if t == nil || !reg.HasAnalyzed(t) {
			return statsEstimate{}, false
		}
		est.ConstantPeriods += reg.InteriorPoints(t, b, e)
		est.Rows += reg.RowsOverlapping(t, b, e)
	}
	est.ConstantPeriods++
	return est, true
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
