package taupsm

import (
	"errors"
	"fmt"

	"taupsm/internal/engine"
	"taupsm/internal/obs"
	"taupsm/internal/proc"
	"taupsm/internal/storage"
	"taupsm/internal/wal"
)

// OpenDir opens a persistent temporal database backed by the data
// directory at path, creating it if necessary. State is recovered from
// the newest valid snapshot plus its write-ahead-log tail, then
// checkpointed into a fresh epoch, so every successful OpenDir leaves
// the directory in a clean single-epoch layout. Close the returned
// database to release the log file; call Checkpoint to compact it.
func OpenDir(path string) (*DB, error) {
	fs, err := wal.NewDirFS(path)
	if err != nil {
		return nil, err
	}
	return OpenFS(fs)
}

// OpenFS is OpenDir over an explicit wal.FS. The fault-injection
// harness uses it with wal.MemFS to crash the database at every I/O
// operation; production code wants OpenDir.
func OpenFS(fs wal.FS) (*DB, error) {
	metrics := obs.NewMetrics()
	store, cat, info, err := wal.Open(fs, metrics)
	if err != nil {
		return nil, err
	}
	eng := engine.New()
	eng.Cat = cat
	// Adopt the store's registry: it carries the statistics recovered
	// from the snapshot plus the replayed log, and the store persists the
	// same registry at every checkpoint.
	eng.TabStats = store.Stats()
	db := newDB(eng, metrics)
	db.dur = store
	db.recovery = info
	return db, nil
}

// Persistent reports whether the database is backed by a write-ahead
// log (opened with OpenDir/OpenFS rather than Open).
func (db *DB) Persistent() bool { return db.dur != nil }

// RecoveryInfo describes what opening this database recovered: the
// snapshot epoch loaded, the log tail replayed, whether a torn tail
// was truncated. Nil for in-memory databases.
func (db *DB) RecoveryInfo() *wal.RecoveryInfo { return db.recovery }

// Checkpoint compacts the database's durable state: the current
// catalog becomes a fresh snapshot epoch and the write-ahead log
// restarts empty. Recovery time is proportional to the log tail, so
// checkpoint after bulk loads. Errors for in-memory databases.
func (db *DB) Checkpoint() error {
	if db.dur == nil {
		return errors.New("taupsm: in-memory database has no checkpoint")
	}
	return db.dur.Checkpoint()
}

// Close releases the database's durable resources (the open log
// file). Committed statements are already on disk — every statement's
// effect batch is fsynced before its result returns — so Close is not
// a flush, just a release. In-memory databases close trivially.
func (db *DB) Close() error {
	if db.dur == nil {
		return nil
	}
	return db.dur.Close()
}

// commitJournal commits a user statement: its journaled effects are
// appended to the write-ahead log, then folded into the statistics. If
// the log rejects the batch, the statement is rolled back in memory
// too: a persistent database's memory image and disk image never
// diverge, whichever side fails first.
func (db *DB) commitJournal(pr *proc.Process, j *engine.Journal) error {
	if db.dur != nil {
		if err := db.appendCommit(pr, j.Effects()); err != nil {
			j.RollbackAll()
			return err
		}
	}
	db.eng.TabStats.Fold(db.eng.Cat, j.EachEffect)
	return nil
}

// appendCommit makes one statement's effect batch durable on a
// persistent database. The append is the statement's commit stage;
// under tracing the log itself records the wal.fsync child of the
// stratum.commit span.
func (db *DB) appendCommit(pr *proc.Process, effects []storage.Effect) error {
	if db.dur == nil || len(effects) == 0 {
		return nil
	}
	sc := db.enter(pr, "commit")
	stats, err := db.dur.AppendTraced(effects, pr.Tracer, obs.SpanContext{Trace: pr.Root.Trace, Span: sc})
	pr.Note(func(rec *proc.Snapshot) {
		rec.FsyncNS, rec.WALBytes = int64(stats.Fsync), stats.Bytes
		if err == nil {
			rec.WALFsyncs = 1
		}
	})
	db.leave(pr, sc, nil, err)
	if err != nil {
		return fmt.Errorf("taupsm: durable commit: %w", err)
	}
	return nil
}

// durabilityNote renders the one-line durability summary EXPLAIN
// shows for persistent databases.
func (db *DB) durabilityNote() string {
	if db.dur == nil {
		return ""
	}
	return fmt.Sprintf("wal epoch %d, %d bytes; recovered %s",
		db.dur.Epoch(), db.dur.Bytes(), db.recovery)
}
