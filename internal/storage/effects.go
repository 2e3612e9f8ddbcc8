package storage

import "taupsm/internal/types"

// EffectKind enumerates the durable mutation types the engine emits
// while executing statements. Row effects are physical (exact rows and
// ordinals); schema effects are structural (object definitions), so a
// log replay reconstructs the catalog without re-running any query —
// replay is therefore independent of CURRENT_DATE and of the data
// visible at replay time.
type EffectKind uint8

// Effect kinds.
const (
	// EffInsert appends Row to table Name.
	EffInsert EffectKind = iota + 1
	// EffUpdate replaces the row at Index of table Name with Row.
	EffUpdate
	// EffDelete removes the row at Index of table Name. A statement
	// deleting several rows logs them in descending index order, so
	// applying the effects one by one reproduces the original state.
	EffDelete
	// EffPutTable creates (or replaces with) an empty table named Name
	// with schema Cols and the given temporal flags; the table's rows
	// follow as EffInsert effects.
	EffPutTable
	// EffDropTable removes table Name.
	EffDropTable
	// EffPutView registers the view defined by SQL (a CREATE VIEW
	// statement).
	EffPutView
	// EffDropView removes view Name.
	EffDropView
	// EffPutRoutine registers the routine defined by SQL (a CREATE
	// FUNCTION or CREATE PROCEDURE statement).
	EffPutRoutine
	// EffDropRoutine removes routine Name.
	EffDropRoutine
	// EffAnalyze records that ANALYZE ran over table Name. It changes
	// no stored data; replaying it recomputes the table's ANALYZE
	// statistics from the rows as they stand at that point of the log.
	EffAnalyze
)

// String names the kind for diagnostics.
func (k EffectKind) String() string {
	switch k {
	case EffInsert:
		return "insert"
	case EffUpdate:
		return "update"
	case EffDelete:
		return "delete"
	case EffPutTable:
		return "put-table"
	case EffDropTable:
		return "drop-table"
	case EffPutView:
		return "put-view"
	case EffDropView:
		return "drop-view"
	case EffPutRoutine:
		return "put-routine"
	case EffDropRoutine:
		return "drop-routine"
	case EffAnalyze:
		return "analyze"
	}
	return "unknown"
}

// EffectColumn is one column of a put-table effect. Table columns are
// always scalar (collection types exist only in PSM variables), so
// Base/Length/Scale describe the type completely.
type EffectColumn struct {
	Name   string
	Base   string
	Length int
	Scale  int
}

// Effect is one physical change to stored state — the unit the
// write-ahead log records and recovery replays. The engine emits a
// batch of effects per committed statement; internal/wal frames each
// batch as one checksummed record, so a statement is either fully
// replayed or (torn tail) fully absent after a crash.
type Effect struct {
	Kind EffectKind
	// Name is the affected object: the table of a row effect, or the
	// object a schema effect creates or drops.
	Name string
	// Index is the row ordinal for update and delete effects.
	Index int
	// Row is the inserted row, or the full new row of an update.
	Row []types.Value
	// Cols is the schema of a put-table effect.
	Cols            []EffectColumn
	ValidTime       bool
	TransactionTime bool
	// SQL is the rendered definition for put-view and put-routine.
	SQL string
}

// TableEffect renders a table's schema as a put-table effect (schema
// only — its rows follow as insert effects): what the engine journals at
// CREATE TABLE and ALTER TABLE, and what a checkpoint snapshots.
func TableEffect(t *Table) Effect {
	eff := Effect{Kind: EffPutTable, Name: t.Name, ValidTime: t.ValidTime, TransactionTime: t.TransactionTime}
	for _, c := range t.Schema.Cols {
		eff.Cols = append(eff.Cols, EffectColumn{Name: c.Name, Base: c.Type.Base, Length: c.Type.Length, Scale: c.Type.Scale})
	}
	return eff
}
