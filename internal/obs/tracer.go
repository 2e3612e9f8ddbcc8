// Package obs is the observability layer of the stratum: a Tracer hook
// interface that receives spans (timed operations) and events
// (instantaneous occurrences) from every layer of the stack, plus an
// in-process Metrics registry of atomic counters, gauges, and
// lightweight latency histograms with an expvar-style text exposition.
//
// Design constraints, in order:
//
//  1. Zero overhead when disabled. Instrumentation sites nil-check the
//     tracer before touching the clock; with no tracer attached the
//     cost is one pointer comparison.
//  2. No allocation bookkeeping on the caller. Spans are delivered
//     complete (name, start, duration, attributes) in a single call
//     rather than as begin/end pairs the caller must pair up.
//  3. Race-free by construction. Counters, gauges and histogram
//     buckets are atomics, so concurrent sessions can share one
//     registry; `go test -race` covers them.
package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value attribute attached to a span or event.
type Attr struct {
	Key string
	Val string
}

// A builds a string attribute.
func A(key, val string) Attr { return Attr{Key: key, Val: val} }

// AInt builds an integer attribute.
func AInt(key string, v int64) Attr { return Attr{Key: key, Val: fmt.Sprintf("%d", v)} }

// Span is one completed, timed operation: a statement phase in the
// stratum (parse, translate, execute) or a unit of engine work (a
// query evaluation, a routine invocation — one per evaluated fragment
// under MAX slicing).
//
// Trace, ID, and Parent place the span in a trace tree. They are
// optional: instrumentation that predates tracing (or runs outside a
// traced statement) delivers spans with the zero values, and every
// sink must accept them.
type Span struct {
	Name  string
	Start time.Time
	Dur   time.Duration
	Attrs []Attr

	// Trace is the trace this span belongs to (0 = untraced).
	Trace TraceID
	// ID is the span's own identity within the process (0 = anonymous).
	ID SpanID
	// Parent is the enclosing span (0 = a trace root).
	Parent SpanID
}

// Event is one instantaneous occurrence, e.g. a strategy decision of
// the §VII-F heuristic or a PERST fallback to MAX.
type Event struct {
	Name  string
	Attrs []Attr
}

// Tracer receives spans and events. Implementations must be safe for
// use from the goroutine executing statements; they should return
// quickly (expensive sinks should buffer).
type Tracer interface {
	Span(s Span)
	Event(e Event)
}

// ---------- fan-out ----------

// multiTracer forwards every span and event to each member.
type multiTracer []Tracer

func (m multiTracer) Span(s Span) {
	for _, t := range m {
		t.Span(s)
	}
}

func (m multiTracer) Event(e Event) {
	for _, t := range m {
		t.Event(e)
	}
}

// MultiTracer fans spans and events out to every non-nil tracer in ts.
// It returns nil when no tracer remains, preserving the nil fast path.
func MultiTracer(ts ...Tracer) Tracer {
	var out multiTracer
	for _, t := range ts {
		if t != nil {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return nil
	}
	if len(out) == 1 {
		return out[0]
	}
	return out
}

// ---------- collecting tracer ----------

// Collector is a Tracer that records everything it receives, for tests
// and for interactive inspection (the REPL's \timing uses one). Safe
// for concurrent use.
type Collector struct {
	mu     sync.Mutex
	spans  []Span
	events []Event
}

// Span records s.
func (c *Collector) Span(s Span) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

// Event records e.
func (c *Collector) Event(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Span(nil), c.spans...)
}

// Events returns a copy of the recorded events.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// SpansNamed returns the recorded spans with the given name.
func (c *Collector) SpansNamed(name string) []Span {
	var out []Span
	for _, s := range c.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Reset discards everything recorded so far.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.spans, c.events = nil, nil
	c.mu.Unlock()
}

// ---------- writer tracer ----------

// WriterTracer renders each span and event as one line on w — the
// slow-query-log and debug sink. MinDur, when non-zero, suppresses
// spans shorter than the threshold (events always print).
type WriterTracer struct {
	mu     sync.Mutex
	W      io.Writer
	MinDur time.Duration
}

// Span prints the span as a single line when it meets MinDur. Traced
// spans carry their trace ID so lines from one statement correlate.
func (t *WriterTracer) Span(s Span) {
	if s.Dur < t.MinDur {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.Trace != 0 {
		fmt.Fprintf(t.W, "span %s %s trace=%s%s\n", s.Name, s.Dur, s.Trace, formatAttrs(s.Attrs))
		return
	}
	fmt.Fprintf(t.W, "span %s %s%s\n", s.Name, s.Dur, formatAttrs(s.Attrs))
}

// Event prints the event as a single line.
func (t *WriterTracer) Event(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintf(t.W, "event %s%s\n", e.Name, formatAttrs(e.Attrs))
}

func formatAttrs(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	for _, a := range attrs {
		fmt.Fprintf(&b, " %s=%s", a.Key, a.Val)
	}
	return b.String()
}
