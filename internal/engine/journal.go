package engine

import (
	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// Journal is the engine's statement-effect journal. Every catalog
// mutation a statement makes is recorded twice: as an undo (so a failed
// statement rolls back cleanly instead of leaking partial writes) and,
// for durable objects, as a redo storage.Effect (the record the
// write-ahead log persists and recovery replays).
//
// The stratum attaches one Journal to the engine session that executes
// a user statement, so a sequenced DML translation — which expands to
// several engine statements — still commits or rolls back as a unit:
// the WAL sees one effect batch per user statement, never a torn half
// of a translation.
type Journal struct {
	entries []journalEntry
}

// journalEntry is one journaled change. A catalog change undoes by
// closure; a row change is typed. A modification journals one entry that
// puts tab's row slice back to rows, the slice before the statement, and
// bumps tab's version; an UPDATE adds one per row, with no tab, whose
// rows are the row and its old values, copied back.
type journalEntry struct {
	undo func()
	tab  *storage.Table
	rows [][]types.Value
	redo *storage.Effect
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{} }

// mark returns a savepoint for rollbackTo.
func (j *Journal) mark() int {
	if j == nil {
		return 0
	}
	return len(j.entries)
}

// rollbackTo undoes every change journaled after the savepoint, newest
// first, and discards the undone entries (their redo effects must not
// reach the log).
func (j *Journal) rollbackTo(n int) {
	if j == nil {
		return
	}
	for i := len(j.entries) - 1; i >= n; i-- {
		switch e := &j.entries[i]; {
		case e.undo != nil:
			e.undo()
		case e.tab != nil:
			e.tab.Rows = e.rows
			e.tab.Bump()
		case e.rows != nil:
			copy(e.rows[0], e.rows[1])
		}
	}
	j.entries = j.entries[:n]
}

// RollbackAll undoes everything the journal recorded. The stratum calls
// it when the write-ahead log rejects the statement's effect batch:
// memory reverts to the pre-statement state, so the image on disk and
// the image in memory never diverge.
func (j *Journal) RollbackAll() { j.rollbackTo(0) }

// Len reports the number of journaled changes.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return len(j.entries)
}

// Effects returns the redo records of the journaled changes in commit
// order; changes to non-durable state (table variables, temporary
// tables) journal undo only and contribute nothing here.
func (j *Journal) Effects() []storage.Effect {
	if j == nil {
		return nil
	}
	out := make([]storage.Effect, 0, len(j.entries))
	for _, e := range j.entries {
		if e.redo != nil {
			out = append(out, *e.redo)
		}
	}
	return out
}

// EachEffect calls visit with the redo record of every journaled change
// that has one, in commit order, without copying them.
func (j *Journal) EachEffect(visit func(*storage.Effect)) {
	if j == nil {
		return
	}
	for _, e := range j.entries {
		if e.redo != nil {
			visit(e.redo)
		}
	}
}

// record appends one change; nil-receiver safe so call sites need no
// guard on contexts without a journal (EvalConstExpr).
func (j *Journal) record(undo func(), redo *storage.Effect) {
	if j == nil {
		return
	}
	j.entries = append(j.entries, journalEntry{undo: undo, redo: redo})
}

// dmlLog scopes journaling to one DML statement's target table. Redo
// effects are emitted only for durable targets — tables resolved from
// the catalog that are not temporary; table variables and temp tables
// roll back via undo but never reach the log. The redo effects are also
// what the statistics count once the statement commits.
type dmlLog struct {
	j      *Journal
	t      *storage.Table
	shared bool // the target is a table of the catalog, not a variable or frame-local table
	redo   bool
}

// dmlLogFor classifies the statement's target once; it changes nothing.
func (db *DB) dmlLogFor(ctx *execCtx, t *storage.Table) dmlLog {
	l := dmlLog{j: ctx.journal, t: t, shared: db.Cat.Table(t.Name) == t}
	l.redo = l.j != nil && l.shared && !t.Temporary
	return l
}

// wrote advances the session's write generation when the target is
// shared state. Every DML site calls it right after it has changed the
// target's rows — per row where expressions are evaluated between the
// changes (UPDATE) — so whatever is evaluated next, in this statement or
// a later one, on the normal or the error path, finds the generation
// ahead of every memo entry computed before the change. A collection
// variable or frame-local temporary table is visible to its own
// invocation only and does not count.
func (db *DB) wrote(l dmlLog) {
	if l.shared {
		db.writeGen++
	}
}

// statement journals the modification about to change the target's
// rows, before its first change: one undo puts back the row slice as it
// is now. Undo runs newest first, so by then every later change to the
// rows has been undone — an INSERT appends past the slice, a DELETE
// replaces it with a fresh one, an UPDATE's rows are copied back — and
// the slice holds them as they were.
func (l dmlLog) statement() {
	if l.j != nil {
		l.j.entries = append(l.j.entries, journalEntry{tab: l.t, rows: l.t.Rows})
	}
}

// inserted journals the redo of a row the statement appended.
func (l dmlLog) inserted(row []types.Value) {
	if l.redo {
		l.j.record(nil, &storage.Effect{Kind: storage.EffInsert, Name: l.t.Name, Row: cloneRow(row)})
	}
}

// update journals an in-place row mutation. old is a pre-mutation copy;
// the undo writes it back into the row slice itself (not the table
// slot), so every alias of the row — scopes, snapshots of t.Rows taken
// by later statements — sees the restoration. By then row holds this
// update's new values again: any later update of it was undone first.
func (l dmlLog) update(idx int, row, old []types.Value) {
	if l.j == nil {
		return
	}
	e := journalEntry{rows: [][]types.Value{row, old}}
	if l.redo {
		e.redo = &storage.Effect{Kind: storage.EffUpdate, Name: l.t.Name, Index: idx, Row: cloneRow(row)}
	}
	l.j.entries = append(l.j.entries, e)
}

// deleted journals the redo of a deletion whose undo statement
// journaled: removed holds the deleted ordinals ascending (none for a
// target that is not durable), logged DESCENDING, so a replay that
// splices one row at a time reproduces the deletion exactly.
func (l dmlLog) deleted(removed []int) {
	for i := len(removed) - 1; i >= 0; i-- {
		l.j.record(nil, &storage.Effect{Kind: storage.EffDelete, Name: l.t.Name, Index: removed[i]})
	}
}

// cloneRow copies a row's value slice (values themselves are immutable
// scalars in stored tables).
func cloneRow(row []types.Value) []types.Value {
	out := make([]types.Value, len(row))
	copy(out, row)
	return out
}

// journalPutTable journals a table creation or replacement: undo
// restores the previous binding (or drops), redo re-creates the schema
// and re-inserts the rows the table already carries (CREATE TABLE AS
// ... WITH DATA, ALTER ADD VALIDTIME). Row values are logged as
// computed, so replay never re-evaluates the defining query.
func journalPutTable(j *Journal, cat *storage.Catalog, old, t *storage.Table) {
	if j == nil {
		return
	}
	j.record(func() {
		if old != nil {
			cat.PutTable(old)
		} else {
			cat.DropTable(t.Name)
		}
	}, nil)
	if t.Temporary {
		return
	}
	eff := storage.TableEffect(t)
	j.record(nil, &eff)
	for _, row := range t.Rows {
		j.record(nil, &storage.Effect{Kind: storage.EffInsert, Name: t.Name, Row: cloneRow(row)})
	}
}

// journalDropTable journals a table drop.
func journalDropTable(j *Journal, cat *storage.Catalog, old *storage.Table) {
	if j == nil || old == nil {
		return
	}
	var redo *storage.Effect
	if !old.Temporary {
		redo = &storage.Effect{Kind: storage.EffDropTable, Name: old.Name}
	}
	j.record(func() { cat.PutTable(old) }, redo)
}

// journalPutView journals a view registration; the redo carries the
// rendered CREATE VIEW source, parsed back on replay.
func journalPutView(j *Journal, cat *storage.Catalog, old *storage.View, s *sqlast.CreateViewStmt) {
	if j == nil {
		return
	}
	name := s.Name
	j.record(func() {
		if old != nil {
			cat.PutView(old)
		} else {
			cat.DropView(name)
		}
	}, &storage.Effect{Kind: storage.EffPutView, Name: name, SQL: s.SQL()})
}

// journalDropView journals a view drop.
func journalDropView(j *Journal, cat *storage.Catalog, old *storage.View) {
	if j == nil || old == nil {
		return
	}
	j.record(func() { cat.PutView(old) },
		&storage.Effect{Kind: storage.EffDropView, Name: old.Name})
}

// journalPutRoutine journals a routine registration; the redo carries
// the rendered definition.
func journalPutRoutine(j *Journal, cat *storage.Catalog, old *storage.Routine, name, sql string) {
	if j == nil {
		return
	}
	j.record(func() {
		if old != nil {
			cat.PutRoutine(old)
		} else {
			cat.DropRoutine(name)
		}
	}, &storage.Effect{Kind: storage.EffPutRoutine, Name: name, SQL: sql})
}

// journalDropRoutine journals a routine drop.
func journalDropRoutine(j *Journal, cat *storage.Catalog, old *storage.Routine) {
	if j == nil || old == nil {
		return
	}
	j.record(func() { cat.PutRoutine(old) },
		&storage.Effect{Kind: storage.EffDropRoutine, Name: old.Name})
}
