package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// TraceID identifies one traced unit of work — in the stratum, one
// top-level user statement (or one script, when the caller groups a
// script under a single trace). IDs are process-unique: an atomic
// counter, never reused within a process. The zero value means
// "untraced".
type TraceID uint64

// String renders the ID as 16 hex digits, the form logs, /traces, and
// the REPL print.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// ParseTraceID parses the String form back into an ID.
func ParseTraceID(s string) (TraceID, error) {
	var v uint64
	if _, err := fmt.Sscanf(s, "%x", &v); err != nil {
		return 0, fmt.Errorf("obs: bad trace id %q: %w", s, err)
	}
	return TraceID(v), nil
}

// SpanID identifies one span within the process. Like TraceID it is a
// process-unique atomic counter; zero means "no span" (a root).
type SpanID uint64

var traceCtr, spanCtr atomic.Uint64

// NewTraceID allocates a process-unique trace ID.
func NewTraceID() TraceID { return TraceID(traceCtr.Add(1)) }

// NewSpanID allocates a process-unique span ID.
func NewSpanID() SpanID { return SpanID(spanCtr.Add(1)) }

// SpanContext names the position in a trace that new work should
// attach under: spans emitted "inside" it carry Trace and use Span as
// their Parent. The zero value means untraced; instrumentation sites
// may still emit spans (they form their own roots).
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Traced reports whether the context belongs to a live trace.
func (sc SpanContext) Traced() bool { return sc.Trace != 0 }

// ---------- span trees ----------

// TraceNode is one span with its children resolved, for rendering and
// JSON export of a trace.
type TraceNode struct {
	Span
	Children []*TraceNode
}

// BuildTree arranges the spans of one trace into forest form: children
// under their parents, siblings ordered by start time. Spans whose
// parent is absent (or zero) become roots. The input order does not
// matter — spans are delivered as they complete, children first.
func BuildTree(spans []Span) []*TraceNode {
	nodes := make(map[SpanID]*TraceNode, len(spans))
	ordered := make([]*TraceNode, 0, len(spans))
	for _, s := range spans {
		n := &TraceNode{Span: s}
		if s.ID != 0 {
			nodes[s.ID] = n
		}
		ordered = append(ordered, n)
	}
	var roots []*TraceNode
	for _, n := range ordered {
		if p, ok := nodes[n.Parent]; ok && n.Parent != 0 && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortKids func(ns []*TraceNode)
	sortKids = func(ns []*TraceNode) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].Start.Before(ns[j].Start) })
		for _, n := range ns {
			sortKids(n.Children)
		}
	}
	sortKids(roots)
	return roots
}

// FormatTree renders the spans of one trace as an indented stage tree,
// one line per span: name, duration, attributes. The REPL's \trace
// prints it after each statement.
func FormatTree(spans []Span) string {
	var b strings.Builder
	var walk func(ns []*TraceNode, depth int)
	walk = func(ns []*TraceNode, depth int) {
		for _, n := range ns {
			fmt.Fprintf(&b, "%s%s %s%s\n",
				strings.Repeat("  ", depth), n.Name, fmtDur(n.Dur), formatAttrs(n.Attrs))
			walk(n.Children, depth+1)
		}
	}
	walk(BuildTree(spans), 0)
	return b.String()
}

// fmtDur rounds a duration for display so trees stay aligned-ish
// without drowning in nanosecond noise.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}
