package taupsm

import (
	"errors"
	"fmt"

	"taupsm/internal/engine"
	"taupsm/internal/proc"
)

// Live query introspection: the stratum half of the in-flight process
// registry (internal/proc). Every user statement's record is
// registered by begin (trace.go); the engine session and the parallel
// MAX workers update its progress counters; SHOW PROCESSLIST, the
// tau_stat_activity system table, the REPL's \processlist and the
// telemetry server's /processlist endpoint all read the same
// snapshots; KILL <pid> (and client context cancellation) flips its
// cooperative kill switch.

// ErrQueryKilled is the sentinel a KILL-cancelled statement's error
// wraps; test with errors.Is. Client context cancellation surfaces
// the context's cause instead.
var ErrQueryKilled = proc.ErrQueryKilled

// ProcessSnapshot is a detached copy of one statement's record: an
// entry of ProcessList while the statement runs, a slow-query log line
// and Explain.Analyzed once it has finished.
type ProcessSnapshot = proc.Snapshot

// ProcessList snapshots every in-flight statement, ordered by process
// ID — the API behind SHOW PROCESSLIST, tau_stat_activity, the REPL
// and /processlist. Note that a statement querying the list through
// SQL observes itself; this method does not register one.
func (db *DB) ProcessList() []proc.Snapshot {
	return db.procs.List()
}

// Kill requests cooperative cancellation of the in-flight statement
// with the given process ID. The statement stops at its next
// fragment, scan, or routine boundary, rolls back its journal (so
// storage is as if it never ran), and returns an error wrapping
// ErrQueryKilled. Killing an unknown or already-finished PID is an
// error.
func (db *DB) Kill(pid int64) error {
	if !db.procs.Kill(pid, nil) {
		return fmt.Errorf("kill %d: no such process", pid)
	}
	return nil
}

// processListResult renders the process list as a statement result
// with the tau_stat_activity schema.
func (db *DB) processListResult() *Result {
	res := &engine.Result{Cols: engine.ActivityColumns}
	for _, s := range db.ProcessList() {
		res.Rows = append(res.Rows, engine.ActivityRow(s))
	}
	return wrapResult(res)
}

// Health reports the database's liveness: nil when healthy, an error
// naming the reason otherwise. Today the one unhealthy state is a
// poisoned WAL — a failed checkpoint left the store refusing appends
// until a checkpoint succeeds — which the telemetry server surfaces
// as HTTP 503 on /healthz.
func (db *DB) Health() error {
	if db.dur != nil && db.dur.Failed() {
		return errors.New("wal poisoned: a checkpoint failed; writes are refused until a checkpoint succeeds")
	}
	return nil
}
