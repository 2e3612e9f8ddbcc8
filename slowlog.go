package taupsm

import (
	"encoding/json"
	"io"
	"time"

	"taupsm/internal/proc"
)

// The structured slow-query log: one JSON object per line for every
// statement whose total duration meets the configured threshold. The
// line is the statement's record (proc.Snapshot) as it stood at the
// finish — the object /processlist served while the statement ran, now
// complete: pid, trace ID (when traced), digest and bounded text, kind
// and strategy, the stage list, counts, cache outcomes and commit
// cost. It reads the same whether or not the statement was sampled.

// SetSlowLog arms the slow-query log: statements taking min or longer
// are logged to w as one JSON line each. min <= 0 (or a nil w)
// disarms. The log does not require tracing — the record is kept
// either way — but entries of traced statements carry their trace ID.
func (db *DB) SetSlowLog(w io.Writer, min time.Duration) {
	db.slowMu.Lock()
	if w == nil || min <= 0 {
		db.slowW, db.slowMin = nil, 0
	} else {
		db.slowW, db.slowMin = w, min
	}
	db.slowMu.Unlock()
}

// SlowLogThreshold returns the current slow-query threshold (0 when
// the log is disarmed).
func (db *DB) SlowLogThreshold() time.Duration {
	db.slowMu.Lock()
	defer db.slowMu.Unlock()
	return db.slowMin
}

// slowLogArmed reports whether a slow log is listening — one of the two
// consumers (with a trace) that make a statement count its fragments.
func (db *DB) slowLogArmed() bool {
	db.slowMu.Lock()
	defer db.slowMu.Unlock()
	return db.slowW != nil
}

// maybeSlowLog writes the finished record when it meets the threshold.
// Serialization under slowMu keeps concurrent statements' JSON lines
// whole.
func (db *DB) maybeSlowLog(snap *proc.Snapshot) {
	db.slowMu.Lock()
	defer db.slowMu.Unlock()
	if db.slowW == nil || time.Duration(snap.ElapsedNS) < db.slowMin {
		return
	}
	b, err := json.Marshal(snap)
	if err != nil {
		return
	}
	db.slowW.Write(append(b, '\n'))
}
