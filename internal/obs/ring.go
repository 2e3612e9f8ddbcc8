package obs

import (
	"sort"
	"sync"
)

// Ring is a bounded in-memory span buffer: the sink behind the
// /traces telemetry endpoint and the REPL's \trace. It keeps the most
// recent Cap spans (older spans of a still-referenced trace fall off —
// memory stays bounded no matter how many spans a statement emits) and
// serves them back grouped by trace. Safe for concurrent use:
// concurrent statements record into one Ring.
type Ring struct {
	mu    sync.Mutex
	cap   int
	spans []Span // ring storage, len grows to cap then stays
	next  int    // next write position once len == cap
	total uint64 // spans ever recorded (monotonic)
}

// DefaultRingCap bounds the span buffer when the caller does not pick
// a capacity: at ~100 bytes a span this is well under a megabyte.
const DefaultRingCap = 4096

// NewRing returns a ring holding at most cap spans (DefaultRingCap
// when cap <= 0).
func NewRing(cap int) *Ring {
	if cap <= 0 {
		cap = DefaultRingCap
	}
	return &Ring{cap: cap}
}

// Span records s, evicting the oldest span when full.
func (r *Ring) Span(s Span) {
	r.mu.Lock()
	if len(r.spans) < r.cap {
		r.spans = append(r.spans, s)
	} else {
		r.spans[r.next] = s
		r.next = (r.next + 1) % r.cap
	}
	r.total++
	r.mu.Unlock()
}

// Event is a no-op: the ring keeps spans only (events carry no
// duration and the decisions they record ride on span attributes).
func (r *Ring) Event(Event) {}

// Len returns the number of spans currently buffered (<= Cap).
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Total returns the number of spans ever recorded, including evicted
// ones.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Reset discards every buffered span.
func (r *Ring) Reset() {
	r.mu.Lock()
	r.spans, r.next, r.total = nil, 0, 0
	r.mu.Unlock()
}

// snapshot copies the buffered spans oldest-first.
func (r *Ring) snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	out = append(out, r.spans[r.next:]...)
	out = append(out, r.spans[:r.next]...)
	return out
}

// Spans returns a copy of the buffered spans, oldest first.
func (r *Ring) Spans() []Span { return r.snapshot() }

// TraceSpans returns the buffered spans belonging to the given trace,
// oldest first. Empty when the trace was never sampled or has been
// fully evicted.
func (r *Ring) TraceSpans(id TraceID) []Span {
	var out []Span
	for _, s := range r.snapshot() {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	return out
}

// TraceSummary describes one buffered trace for the /traces listing.
type TraceSummary struct {
	Trace TraceID
	Root  string // name of the root span, "" when evicted
	Spans int
}

// Traces lists the distinct traces currently buffered, newest first.
func (r *Ring) Traces() []TraceSummary {
	type agg struct {
		sum  TraceSummary
		last int // highest buffer position, for recency ordering
	}
	byID := map[TraceID]*agg{}
	for i, s := range r.snapshot() {
		if s.Trace == 0 {
			continue
		}
		a := byID[s.Trace]
		if a == nil {
			a = &agg{sum: TraceSummary{Trace: s.Trace}}
			byID[s.Trace] = a
		}
		a.sum.Spans++
		a.last = i
		if s.Parent == 0 {
			a.sum.Root = s.Name
		}
	}
	out := make([]*agg, 0, len(byID))
	for _, a := range byID {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].last > out[j].last })
	sums := make([]TraceSummary, len(out))
	for i, a := range out {
		sums[i] = a.sum
	}
	return sums
}
