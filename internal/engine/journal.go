package engine

import (
	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// Journal is the engine's statement-effect journal. Every catalog
// mutation a statement makes is recorded twice: as an undo closure
// (so a failed statement rolls back cleanly instead of leaking partial
// writes) and, for durable objects, as a redo storage.Effect (the
// record the write-ahead log persists and recovery replays).
//
// The stratum attaches one Journal to the engine session that executes
// a user statement, so a sequenced DML translation — which expands to
// several engine statements — still commits or rolls back as a unit:
// the WAL sees one effect batch per user statement, never a torn half
// of a translation.
type Journal struct {
	entries []journalEntry
}

type journalEntry struct {
	undo func()
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
		if u := j.entries[i].undo; u != nil {
			u()
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

// insert journals a row just appended by Table.Insert (it must be the
// last row).
func (l dmlLog) insert(row []types.Value) {
	if l.j == nil {
		return
	}
	t := l.t
	idx := len(t.Rows) - 1
	var redo *storage.Effect
	if l.redo {
		redo = &storage.Effect{Kind: storage.EffInsert, Name: t.Name, Row: cloneRow(row)}
	}
	l.j.record(func() {
		// row is the stored slice itself; any later same-statement update
		// has already been copied back (undo runs newest-first), so it
		// holds the as-inserted values again.
		t.Rows = append(t.Rows[:idx], t.Rows[idx+1:]...)
		t.Bump()
	}, redo)
}

// update journals an in-place row mutation. old is a pre-mutation copy;
// the undo writes it back into the row slice itself (not the table
// slot), so every alias of the row — scopes, snapshots of t.Rows taken
// by later statements — sees the restoration.
func (l dmlLog) update(idx int, row, old []types.Value) {
	if l.j == nil {
		return
	}
	t := l.t
	var redo *storage.Effect
	if l.redo {
		redo = &storage.Effect{Kind: storage.EffUpdate, Name: t.Name, Index: idx, Row: cloneRow(row)}
	}
	l.j.record(func() {
		// row still holds this update's new values here: undo entries run
		// newest-first, so any later update of the same row has already
		// been copied back.
		copy(row, old)
		t.Bump()
	}, redo)
}

// deleteRows journals a whole-statement deletion: oldRows is the
// pre-statement row slice (restored wholesale on undo — the kept slice
// is freshly built, so the original backing array is intact), and
// removed holds the deleted ordinals in ascending order. Redo effects
// are logged in DESCENDING index order, so a replay that splices one
// row at a time reproduces the deletion exactly.
func (l dmlLog) deleteRows(oldRows [][]types.Value, removed []int) {
	if len(removed) == 0 || l.j == nil {
		return
	}
	t := l.t
	l.j.record(func() {
		t.Rows = oldRows
		t.Bump()
	}, nil)
	if !l.redo {
		return
	}
	for i := len(removed) - 1; i >= 0; i-- {
		l.j.record(nil, &storage.Effect{Kind: storage.EffDelete, Name: t.Name, Index: removed[i]})
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
