package engine

import (
	"strings"

	"taupsm/internal/proc"
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

// systemTable materializes the named system table, its schema the
// catalog's (storage.SystemSchema), or returns nil when name is not a
// system table or its backing registry is absent (only the process
// registry behind tau_stat_activity can be).
func (db *DB) systemTable(name string) *storage.Table {
	var rows [][]types.Value
	switch name = strings.ToLower(name); name {
	case "tau_stat_activity":
		if db.Procs == nil {
			return nil
		}
		for _, s := range db.Procs.List() {
			rows = append(rows, ActivityRow(s))
		}
	case "tau_stat_tables":
		for _, s := range db.TabStats.TableSnapshots(db.Cat) {
			rows = append(rows, []types.Value{
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
	case "tau_stat_routines":
		for _, s := range db.TabStats.RoutineSnapshots() {
			rows = append(rows, []types.Value{
				types.NewString(s.Name),
				types.NewInt(s.Calls),
				types.NewInt(s.TracedCalls),
				types.NewInt(s.TracedNS),
				types.NewInt(s.TracedMeanNS),
			})
		}
	case "tau_stat_statements":
		for _, s := range db.TabStats.StatementSnapshots() {
			rows = append(rows, []types.Value{
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
	default:
		return nil
	}
	t := storage.NewTable(name, storage.SystemSchema(name))
	t.Temporary = true // session-transient: never journaled or persisted
	t.Rows = rows
	return t
}

// ActivityColumns is the tau_stat_activity schema, shared with the
// stratum's SHOW PROCESSLIST result so both surfaces stay aligned.
var ActivityColumns = storage.SystemSchema("tau_stat_activity").Names()

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
		types.NewBool(s.Killed),
		types.NewString(s.TraceID),
		types.NewString(s.Digest),
		types.NewString(s.SQL),
	}
}
