package engine

import (
	"strings"

	"taupsm/internal/proc"
	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// Read-only system introspection tables, materialized on demand from
// the statistics registry so ordinary SELECTs (and therefore the REPL
// and any tool speaking SQL) can query what the database knows about
// itself:
//
//	tau_stat_tables      per-table temporal statistics
//	tau_stat_routines    per-routine workload profile
//	tau_stat_statements  per-statement-digest workload profile
//	tau_stat_activity    in-flight statements (the process list)
//
// The names resolve only after real tables and views miss, so a user
// table named tau_stat_tables shadows the system one, and nothing
// changes for existing schemas.

// systemTable materializes the named system table, or returns nil when
// name is not a system table or its backing registry is absent (only
// the process registry behind tau_stat_activity can be).
func (db *DB) systemTable(name string) *storage.Table {
	switch strings.ToLower(name) {
	case "tau_stat_activity":
		if db.Procs == nil {
			return nil
		}
		return db.statActivityTable()
	case "tau_stat_tables":
		return db.statTablesTable()
	case "tau_stat_routines":
		return db.statRoutinesTable()
	case "tau_stat_statements":
		return db.statStatementsTable()
	}
	return nil
}

func sysCol(name, base string) storage.Column {
	return storage.Column{Name: name, Type: sqlast.TypeName{Base: base}}
}

func newSystemTable(name string, cols []storage.Column) *storage.Table {
	t := storage.NewTable(name, storage.NewSchema(cols))
	t.Temporary = true // session-transient: never journaled or persisted
	return t
}

// ActivityColumns is the tau_stat_activity schema, shared with the
// stratum's SHOW PROCESSLIST result so both surfaces stay aligned.
var ActivityColumns = []string{
	"pid", "session", "kind", "strategy", "stage", "elapsed_ms",
	"cp_done", "cp_total", "fragments_done", "fragments_total",
	"rows", "rows_scanned", "routine_calls", "wal_pending", "workers",
	"killed", "trace_id", "digest", "statement",
}

// ActivityRow renders the identity, stage and progress fields of one
// statement record's snapshot in ActivityColumns order.
func ActivityRow(s proc.Snapshot) []types.Value {
	return []types.Value{
		types.NewInt(s.ID),
		types.NewString(s.Session),
		types.NewString(s.Kind),
		types.NewString(s.Strategy),
		types.NewString(s.Stage),
		types.NewFloat(float64(s.ElapsedNS) / 1e6),
		types.NewInt(s.CPDone),
		types.NewInt(s.CPTotal),
		types.NewInt(s.FragsDone),
		types.NewInt(s.FragsTotal),
		types.NewInt(s.Rows),
		types.NewInt(s.RowsScanned),
		types.NewInt(s.RoutineCalls),
		types.NewInt(s.WALPending),
		types.NewInt(s.Workers),
		types.NewBool(s.Killed),
		types.NewString(s.TraceID),
		types.NewString(s.Digest),
		types.NewString(s.SQL),
	}
}

func (db *DB) statActivityTable() *storage.Table {
	cols := make([]storage.Column, len(ActivityColumns))
	for i, name := range ActivityColumns {
		base := "VARCHAR"
		switch name {
		case "pid", "cp_done", "cp_total", "fragments_done", "fragments_total",
			"rows", "rows_scanned", "routine_calls", "wal_pending", "workers":
			base = "INTEGER"
		case "elapsed_ms":
			base = "FLOAT"
		case "killed":
			base = "BOOLEAN"
		}
		cols[i] = sysCol(name, base)
	}
	t := newSystemTable("tau_stat_activity", cols)
	for _, s := range db.Procs.List() {
		t.Rows = append(t.Rows, ActivityRow(s))
	}
	return t
}

func (db *DB) statTablesTable() *storage.Table {
	t := newSystemTable("tau_stat_tables", []storage.Column{
		sysCol("table_name", "VARCHAR"),
		sysCol("temporal", "BOOLEAN"),
		sysCol("row_count", "INTEGER"),
		sysCol("inserts", "INTEGER"),
		sysCol("updates", "INTEGER"),
		sysCol("deletes", "INTEGER"),
		sysCol("distinct_points", "INTEGER"),
		sysCol("constant_periods", "INTEGER"),
		sysCol("period_density", "FLOAT"),
		sysCol("avg_interval_days", "FLOAT"),
		sysCol("analyzed", "BOOLEAN"),
		sysCol("analyzed_rows", "INTEGER"),
		sysCol("max_overlap", "INTEGER"),
	})
	for _, s := range db.TabStats.TableSnapshots(db.Cat) {
		t.Rows = append(t.Rows, []types.Value{
			types.NewString(s.Name),
			types.NewBool(s.Temporal),
			types.NewInt(s.RowCount),
			types.NewInt(s.Inserts),
			types.NewInt(s.Updates),
			types.NewInt(s.Deletes),
			types.NewInt(s.DistinctPoints),
			types.NewInt(s.ConstantPeriods),
			types.NewFloat(s.PeriodDensity),
			types.NewFloat(s.AvgIntervalDays),
			types.NewBool(s.Analyzed),
			types.NewInt(s.AnalyzedRows),
			types.NewInt(s.MaxOverlap),
		})
	}
	return t
}

func (db *DB) statRoutinesTable() *storage.Table {
	t := newSystemTable("tau_stat_routines", []storage.Column{
		sysCol("routine_name", "VARCHAR"),
		sysCol("calls", "INTEGER"),
		sysCol("traced_calls", "INTEGER"),
		sysCol("traced_ns", "INTEGER"),
		sysCol("traced_mean_ns", "INTEGER"),
	})
	for _, s := range db.TabStats.RoutineSnapshots() {
		t.Rows = append(t.Rows, []types.Value{
			types.NewString(s.Name),
			types.NewInt(s.Calls),
			types.NewInt(s.TracedCalls),
			types.NewInt(s.TracedNS),
			types.NewInt(s.TracedMeanNS),
		})
	}
	return t
}

func (db *DB) statStatementsTable() *storage.Table {
	t := newSystemTable("tau_stat_statements", []storage.Column{
		sysCol("digest", "VARCHAR"),
		sysCol("kind", "VARCHAR"),
		sysCol("calls", "INTEGER"),
		sysCol("errors", "INTEGER"),
		sysCol("total_ns", "INTEGER"),
		sysCol("mean_ns", "INTEGER"),
		sysCol("max_ns", "INTEGER"),
		sysCol("last_strategy", "VARCHAR"),
		sysCol("statement", "VARCHAR"),
	})
	for _, s := range db.TabStats.StatementSnapshots() {
		t.Rows = append(t.Rows, []types.Value{
			types.NewString(s.Digest),
			types.NewString(s.Kind),
			types.NewInt(s.Calls),
			types.NewInt(s.Errors),
			types.NewInt(s.TotalNS),
			types.NewInt(s.MeanNS),
			types.NewInt(s.MaxNS),
			types.NewString(s.LastStrategy),
			types.NewString(s.Text),
		})
	}
	return t
}
