// Package proc holds the statement record: every statement entering
// the stratum registers one Process, which is at once its entry in the
// in-flight registry and the only per-statement account there is. The
// statement spine writes identity, stages, cache outcomes and commit
// cost into it; the engine hot path mirrors progress counters into it;
// and every surface — SHOW PROCESSLIST, the tau_stat_activity system
// table, the REPL, the /processlist endpoint, the slow-query log,
// EXPLAIN ANALYZE and the statement's root span — renders the same
// detached Snapshot of it. A Process also carries the
// cooperative-cancellation switch: KILL (or a cancelled client context)
// stores a cause, and the execution layers poll Killed at statement,
// scan and routine-call boundaries.
//
// The engine's update path is lock-free — counter mirrors are single
// atomic adds and the kill check is one atomic pointer load. The
// spine's writes (a handful per statement) take the process mutex.
package proc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"taupsm/internal/obs"
)

// ErrQueryKilled is the sentinel wrapped by every KILL-statement
// cancellation cause, so callers can distinguish an administrative
// kill (errors.Is(err, ErrQueryKilled)) from a client context
// cancellation (which surfaces the context's own cause).
var ErrQueryKilled = errors.New("query killed")

// sqlMax bounds the statement text a record carries to its surfaces.
const sqlMax = 240

// StageElapsed is one entry of a statement's stage list. Stages are
// exclusive — a statement is in at most one at a time, so the entries
// never overlap and sum to no more than the statement's elapsed time —
// and are listed in entry order. The vocabulary is lint, translate, cp
// (a constant-period cache miss), execute, commit and rollback. While
// the statement runs, the last entry is the stage in progress.
type StageElapsed struct {
	Name string `json:"stage"`
	NS   int64  `json:"elapsed_ns"`
}

// Snapshot is a point-in-time copy of one statement record, safe to
// render or serialize after the statement has finished: a row of the
// process list while the statement runs, and its slow-query log line
// and EXPLAIN ANALYZE profile once it has. Fraction fields are -1 when
// the corresponding total is not yet known.
type Snapshot struct {
	ID          int64  `json:"pid"`
	Session     string `json:"session"`
	TraceID     string `json:"trace_id,omitempty"`
	Digest      string `json:"digest"`
	SQL         string `json:"statement"`
	Kind        string `json:"kind"`
	Strategy    string `json:"strategy,omitempty"`
	Stage       string `json:"stage"`
	StartUnixNS int64  `json:"start_unix_ns"`
	ElapsedNS   int64  `json:"elapsed_ns"`

	// Progress. CPTotal is the statement's constant-period count (MAX);
	// rows, rows scanned and routine calls are the engine's live mirrors,
	// and Rows becomes the size of the returned result at the finish.
	CPDone        int64   `json:"cp_done"`
	CPTotal       int64   `json:"cp_total"`
	CPFraction    float64 `json:"cp_fraction"`
	FragsDone     int64   `json:"fragments_done"`
	FragsTotal    int64   `json:"fragments_total"`
	FragsFraction float64 `json:"fragments_fraction"`
	Rows          int64   `json:"rows"`
	RowsScanned   int64   `json:"rows_scanned"`
	RoutineCalls  int64   `json:"routine_calls"`
	WALPending    int64   `json:"wal_pending"`
	Killed        bool    `json:"killed"`

	Stages []StageElapsed `json:"stages,omitempty"`

	// Facts the statement spine establishes once. Fragments counts the
	// stored row fragments overlapping the context, and is counted only
	// while a consumer is armed (slow log or trace): it walks the data.
	// The cache fields read "hit" or "miss" when the cache was consulted.
	// FsyncNS is the share of the commit stage spent in fsync.
	Affected         int64  `json:"affected,omitempty"`
	MemoHits         int64  `json:"memo_hits,omitempty"`
	ReusedCalls      int64  `json:"reused_calls,omitempty"` // of the memo hits, those a shared conjunct verdict answered
	PlanReuseHits    int64  `json:"plan_reuse_hits,omitempty"`
	Fragments        int64  `json:"fragments,omitempty"`
	TranslationCache string `json:"translation_cache,omitempty"`
	CPCache          string `json:"cp_cache,omitempty"`
	WALBytes         int64  `json:"wal_bytes,omitempty"`
	WALFsyncs        int64  `json:"wal_fsyncs,omitempty"`
	FsyncNS          int64  `json:"fsync_ns,omitempty"`
	Error            string `json:"error,omitempty"`
}

// StageNS returns the time the statement spent in the named stage (0
// when it never entered it).
func (s *Snapshot) StageNS(name string) int64 {
	var ns int64
	for _, st := range s.Stages {
		if st.Name == name {
			ns += st.NS
		}
	}
	return ns
}

// Process is one statement's record. The caller fills the identity
// fields and hands it to Registry.Begin. The methods the engine calls
// (Killed, KilledBy, the Add mirrors, SetWALPending) are nil-receiver
// safe, so a session of an engine used without the stratum needs no
// record; the rest belong to the stratum, which always has one.
type Process struct {
	ID      int64
	Session string
	Kind    string
	// Text is the statement rendered back to SQL — once, at entry — SQL
	// its bounded form for the surfaces, Digest its stable hash.
	Text, SQL, Digest string
	Start             time.Time

	// Tracer receives the statement's spans under Root (the
	// stratum.statement span); nil and zero when it is not traced.
	Tracer obs.Tracer
	Root   obs.SpanContext

	cpDone       atomic.Int64
	cpTotal      atomic.Int64
	rows         atomic.Int64
	rowsScanned  atomic.Int64
	routineCalls atomic.Int64
	walPending   atomic.Int64

	killed atomic.Pointer[error]

	done chan struct{}

	mu       sync.Mutex
	rec      Snapshot // the spine's facts and the closed stages; see Note
	stageBuf [4]StageElapsed
	stage    string // last stage entered
	since    time.Time
	running  bool      // stage is in progress
	end      time.Time // set by Registry.Finish; freezes ElapsedNS
}

// Killed returns the cancellation cause if this process has been
// killed, nil otherwise. This is the hot-path check — one nil test
// plus one atomic load — polled at statement, scan and routine-call
// boundaries.
func (p *Process) Killed() error {
	if p == nil {
		return nil
	}
	if e := p.killed.Load(); e != nil {
		return *e
	}
	return nil
}

// Kill requests cooperative cancellation with the given cause (nil
// defaults to ErrQueryKilled). Only the first kill wins; the stored
// cause is exactly the error the execution layers return, so callers
// can match it with errors.Is.
func (p *Process) Kill(cause error) {
	if cause == nil {
		cause = fmt.Errorf("%w (pid %d)", ErrQueryKilled, p.ID)
	}
	p.killed.CompareAndSwap(nil, &cause)
}

// KilledBy reports whether err is (or wraps) this process's stored
// kill cause — the test execution layers use to tell a cancellation
// apart from an ordinary execution error carrying similar text.
func (p *Process) KilledBy(err error) bool {
	if p == nil || err == nil {
		return false
	}
	cause := p.Killed()
	return cause != nil && errors.Is(err, cause)
}

// Done is closed when the process is finished (deregistered), letting
// context watchers exit without leaking.
func (p *Process) Done() <-chan struct{} { return p.done }

// WatchContext kills the process when ctx is cancelled before the
// process finishes, propagating the context's cause. Run it in its own
// goroutine; it exits as soon as either side resolves.
func (p *Process) WatchContext(ctx context.Context) {
	select {
	case <-ctx.Done():
		p.Kill(context.Cause(ctx))
	case <-p.done:
	}
}

// Enter marks name as the stage in progress. Called a handful of times
// per statement, never per row.
func (p *Process) Enter(name string) {
	now := time.Now()
	p.mu.Lock()
	p.stage, p.since, p.running = name, now, true
	p.mu.Unlock()
}

// Leave closes the stage in progress, appending it to the stage list,
// and returns its name, when it began and how long it ran — the one
// measurement its histogram, its span and the record all carry.
func (p *Process) Leave() (name string, start time.Time, d time.Duration) {
	now := time.Now()
	p.mu.Lock()
	name, start, d = p.stage, p.since, now.Sub(p.since)
	p.rec.Stages = append(p.rec.Stages, StageElapsed{Name: name, NS: d.Nanoseconds()})
	p.running = false
	p.mu.Unlock()
	return name, start, d
}

// Note records facts the statement spine establishes once — strategy,
// cache outcomes, commit cost, the final counts — by letting f write
// the record's own Snapshot under the process lock. Identity, progress
// counters and the stage list are not f's to set: Snapshot overlays
// them.
func (p *Process) Note(f func(rec *Snapshot)) {
	p.mu.Lock()
	f(&p.rec)
	p.mu.Unlock()
}

// Counter mirrors: single atomic adds/stores. The adds are batched at
// the call sites (whole scan, whole statement) rather than per row.

func (p *Process) AddRows(n int64) {
	if p != nil {
		p.rows.Add(n)
	}
}

func (p *Process) AddRowsScanned(n int64) {
	if p != nil {
		p.rowsScanned.Add(n)
	}
}

func (p *Process) AddRoutineCalls(n int64) {
	if p != nil {
		p.routineCalls.Add(n)
	}
}

func (p *Process) SetWALPending(n int64) {
	if p != nil {
		p.walPending.Store(n)
	}
}

// SetRows replaces the live rows mirror with the size of the result
// the statement returns.
func (p *Process) SetRows(n int64) { p.rows.Store(n) }

// SetPeriods publishes the statement's constant-period count, which is
// also the number of fragments it evaluates; AddPeriodsDone advances
// the progress through them.
func (p *Process) SetPeriods(n int64)     { p.cpTotal.Store(n) }
func (p *Process) AddPeriodsDone(n int64) { p.cpDone.Add(n) }

// Snapshot copies the record at this instant. The returned value is
// detached: safe to hold, render and serialize after the statement
// finishes.
func (p *Process) Snapshot() Snapshot {
	now := time.Now()
	p.mu.Lock()
	s := p.rec
	s.Stages = append([]StageElapsed(nil), p.rec.Stages...)
	s.Stage = p.stage
	if p.running {
		s.Stages = append(s.Stages, StageElapsed{Name: p.stage, NS: now.Sub(p.since).Nanoseconds()})
	}
	if !p.end.IsZero() {
		now = p.end
	}
	p.mu.Unlock()

	s.ID, s.Session, s.Digest, s.SQL, s.Kind = p.ID, p.Session, p.Digest, p.SQL, p.Kind
	if p.Root.Trace != 0 {
		s.TraceID = p.Root.Trace.String()
	}
	s.StartUnixNS = p.Start.UnixNano()
	s.ElapsedNS = now.Sub(p.Start).Nanoseconds()
	// One evaluation of the main statement per constant period: periods
	// and fragments progress together.
	s.CPDone, s.CPTotal = p.cpDone.Load(), p.cpTotal.Load()
	s.FragsDone, s.FragsTotal = s.CPDone, s.CPTotal
	s.CPFraction = fraction(s.CPDone, s.CPTotal)
	s.FragsFraction = s.CPFraction
	s.Rows = p.rows.Load()
	s.RowsScanned = p.rowsScanned.Load()
	s.RoutineCalls = p.routineCalls.Load()
	s.WALPending = p.walPending.Load()
	s.Killed = p.killed.Load() != nil
	return s
}

func fraction(done, total int64) float64 {
	if total <= 0 {
		return -1
	}
	f := float64(done) / float64(total)
	if f > 1 {
		f = 1
	}
	return f
}

// Registry is the shared table of in-flight statement records.
type Registry struct {
	mu    sync.Mutex
	next  int64
	procs map[int64]*Process
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{procs: make(map[int64]*Process)}
}

// Begin registers p — whose identity fields the caller has filled —
// under a fresh process ID and starts its clock.
func (r *Registry) Begin(p *Process) *Process {
	p.SQL = p.Text
	if len(p.SQL) > sqlMax {
		p.SQL = p.SQL[:sqlMax] + "..."
	}
	p.rec.Stages = p.stageBuf[:0]
	p.done = make(chan struct{})
	p.Start = time.Now()
	r.mu.Lock()
	r.next++
	p.ID = r.next
	r.procs[p.ID] = p
	r.mu.Unlock()
	return p
}

// Finish deregisters the process, stops its clock and releases any
// context watcher. Idempotent per process.
func (r *Registry) Finish(p *Process) {
	r.mu.Lock()
	_, live := r.procs[p.ID]
	delete(r.procs, p.ID)
	r.mu.Unlock()
	if live {
		p.mu.Lock()
		p.end = time.Now()
		p.mu.Unlock()
		close(p.done)
	}
}

// Kill requests cancellation of the process with the given ID,
// wrapping ErrQueryKilled (plus cause detail when provided). It
// reports whether such a process was in flight.
func (r *Registry) Kill(id int64, cause error) bool {
	r.mu.Lock()
	p := r.procs[id]
	r.mu.Unlock()
	if p == nil {
		return false
	}
	if cause == nil {
		cause = fmt.Errorf("%w (pid %d)", ErrQueryKilled, id)
	} else if !errors.Is(cause, ErrQueryKilled) {
		cause = fmt.Errorf("%w (pid %d): %w", ErrQueryKilled, id, cause)
	}
	p.Kill(cause)
	return true
}

// List snapshots every in-flight process, ordered by process ID.
func (r *Registry) List() []Snapshot {
	r.mu.Lock()
	procs := make([]*Process, 0, len(r.procs))
	for _, p := range r.procs {
		procs = append(procs, p)
	}
	r.mu.Unlock()
	sort.Slice(procs, func(i, j int) bool { return procs[i].ID < procs[j].ID })
	out := make([]Snapshot, len(procs))
	for i, p := range procs {
		out[i] = p.Snapshot()
	}
	return out
}

// Len reports the number of in-flight processes.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.procs)
}
