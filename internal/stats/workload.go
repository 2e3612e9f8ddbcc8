package stats

import (
	"sort"
	"sync/atomic"
	"time"
)

// RoutineProfile aggregates one stored routine's workload: every
// logical invocation counts (memo hits included — they answer a call),
// while the timing aggregates cover only traced executions, folded in
// from the engine's routine spans so the untraced hot path stays one
// atomic increment.
type RoutineProfile struct {
	calls       atomic.Int64
	tracedCalls atomic.Int64
	tracedNS    atomic.Int64
}

// RoutineSnapshot is one routine's profile as exposed by the
// tau_stat_routines system table and the /statistics endpoint.
type RoutineSnapshot struct {
	Name         string `json:"name"`
	Calls        int64  `json:"calls"`
	TracedCalls  int64  `json:"traced_calls,omitempty"`
	TracedNS     int64  `json:"traced_ns,omitempty"`
	TracedMeanNS int64  `json:"traced_mean_ns,omitempty"`
}

// routineEntry returns the named profile, creating it on first call.
// The read-path fast case is a map lookup under the registry lock; the
// returned counters are lock-free.
func (r *Registry) routineEntry(name string) *RoutineProfile {
	r.mu.Lock()
	p, ok := r.routines[key(name)]
	if !ok {
		p = &RoutineProfile{}
		r.routines[key(name)] = p
	}
	r.mu.Unlock()
	return p
}

// NoteRoutineCalls counts n logical routine invocations.
func (r *Registry) NoteRoutineCalls(name string, n int64) {
	r.routineEntry(name).calls.Add(n)
}

// NoteRoutineTime folds one traced routine execution's duration in.
func (r *Registry) NoteRoutineTime(name string, d time.Duration) {
	p := r.routineEntry(name)
	p.tracedCalls.Add(1)
	p.tracedNS.Add(int64(d))
}

// RoutineSnapshots lists every profiled routine sorted by name.
func (r *Registry) RoutineSnapshots() []RoutineSnapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.routines))
	for n := range r.routines {
		names = append(names, n)
	}
	ps := make(map[string]*RoutineProfile, len(r.routines))
	for n, p := range r.routines {
		ps[n] = p
	}
	r.mu.Unlock()
	sort.Strings(names)
	out := make([]RoutineSnapshot, 0, len(names))
	for _, n := range names {
		p := ps[n]
		s := RoutineSnapshot{
			Name:        n,
			Calls:       p.calls.Load(),
			TracedCalls: p.tracedCalls.Load(),
			TracedNS:    p.tracedNS.Load(),
		}
		if s.TracedCalls > 0 {
			s.TracedMeanNS = s.TracedNS / s.TracedCalls
		}
		out = append(out, s)
	}
	return out
}

// StatementProfile aggregates every execution of one statement digest
// (the FNV-1a of the statement's rendered SQL — stable across restarts
// and parameter-free rewrites).
type StatementProfile struct {
	Digest       string
	Text         string // first-seen statement text, bounded by the caller
	Kind         string
	Calls        int64
	Errors       int64
	TotalNS      int64
	MaxNS        int64
	ReusedCalls  int64 // routine calls answered by a shared conjunct verdict (engine.Stats.ReusedCalls)
	LastStrategy string
}

// StatementSnapshot is one digest's profile as exposed by the
// tau_stat_statements system table and the /statistics endpoint.
type StatementSnapshot struct {
	Digest       string `json:"digest"`
	Kind         string `json:"kind"`
	Calls        int64  `json:"calls"`
	Errors       int64  `json:"errors,omitempty"`
	TotalNS      int64  `json:"total_ns"`
	MeanNS       int64  `json:"mean_ns"`
	MaxNS        int64  `json:"max_ns"`
	ReusedCalls  int64  `json:"reused_calls,omitempty"`
	LastStrategy string `json:"last_strategy,omitempty"`
	Text         string `json:"text"`
}

// statementProfileCap bounds the number of digests profiled at once: a
// constant, like the caps of the stratum's caches.
const statementProfileCap = 1024

// NoteStatement folds one finished top-level statement into its digest
// profile. text is the statement record's bounded text, reused the
// routine calls a shared conjunct verdict answered.
func (r *Registry) NoteStatement(digest, text, kind, strategy string, d time.Duration, reused int64, failed bool) {
	if digest == "" {
		return
	}
	r.mu.Lock()
	p, ok := r.statements[digest]
	if !ok {
		if len(r.statements) >= statementProfileCap {
			r.evictStatements()
		}
		p = &StatementProfile{Digest: digest, Text: text, Kind: kind}
		r.statements[digest] = p
	}
	p.Calls++
	if failed {
		p.Errors++
	}
	p.TotalNS += int64(d)
	p.ReusedCalls += reused
	if int64(d) > p.MaxNS {
		p.MaxNS = int64(d)
	}
	if strategy != "" {
		p.LastStrategy = strategy
	}
	r.mu.Unlock()
}

// evictStatements makes room in a full profile table. Digests seen once
// go first — traffic whose text never repeats would otherwise grow the
// table without bound while pushing out nothing worth keeping — so a
// hot digest keeps its history; only when every profile has repeated is
// the table wiped wholesale. Caller holds r.mu.
func (r *Registry) evictStatements() {
	for digest, p := range r.statements {
		if p.Calls <= 1 {
			delete(r.statements, digest)
		}
	}
	if len(r.statements) >= statementProfileCap {
		r.statements = map[string]*StatementProfile{}
	}
}

// StatementSnapshots lists every statement profile, most total time
// first (ties broken by digest for determinism).
func (r *Registry) StatementSnapshots() []StatementSnapshot {
	r.mu.Lock()
	out := make([]StatementSnapshot, 0, len(r.statements))
	for _, p := range r.statements {
		s := StatementSnapshot{
			Digest: p.Digest, Kind: p.Kind, Calls: p.Calls, Errors: p.Errors,
			TotalNS: p.TotalNS, MaxNS: p.MaxNS, ReusedCalls: p.ReusedCalls, LastStrategy: p.LastStrategy,
			Text: p.Text,
		}
		if p.Calls > 0 {
			s.MeanNS = p.TotalNS / p.Calls
		}
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNS != out[j].TotalNS {
			return out[i].TotalNS > out[j].TotalNS
		}
		return out[i].Digest < out[j].Digest
	})
	return out
}
