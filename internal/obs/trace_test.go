package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceAndSpanIDsUnique(t *testing.T) {
	const goroutines, perG = 8, 500
	var mu sync.Mutex
	traces := map[TraceID]bool{}
	spans := map[SpanID]bool{}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			localT := make([]TraceID, 0, perG)
			localS := make([]SpanID, 0, perG)
			for i := 0; i < perG; i++ {
				localT = append(localT, NewTraceID())
				localS = append(localS, NewSpanID())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range localT {
				if id == 0 || traces[id] {
					t.Errorf("trace ID %v zero or duplicated", id)
				}
				traces[id] = true
			}
			for _, id := range localS {
				if id == 0 || spans[id] {
					t.Errorf("span ID %v zero or duplicated", id)
				}
				spans[id] = true
			}
		}()
	}
	wg.Wait()
	if len(traces) != goroutines*perG || len(spans) != goroutines*perG {
		t.Fatalf("got %d traces, %d spans, want %d each", len(traces), len(spans), goroutines*perG)
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	s := id.String()
	if len(s) != 16 {
		t.Fatalf("String() = %q, want 16 hex digits", s)
	}
	back, err := ParseTraceID(s)
	if err != nil || back != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v, want %v", s, back, err, id)
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Fatal("ParseTraceID accepted garbage")
	}
}

func TestSpanContextChild(t *testing.T) {
	var zero SpanContext
	if zero.Traced() {
		t.Fatal("zero SpanContext claims to be traced")
	}
	root := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	child, id := root.Child()
	if child.Trace != root.Trace {
		t.Fatal("child lost the trace")
	}
	if child.Span != id || id == root.Span || id == 0 {
		t.Fatalf("Child() = %+v, %v: want a fresh span ID", child, id)
	}
}

// TestBuildTreeOutOfOrder feeds a two-level tree in delivery order
// (children complete before parents) and checks the forest comes back
// parent-first with siblings in start order.
func TestBuildTreeOutOfOrder(t *testing.T) {
	tr := NewTraceID()
	root := NewSpanID()
	childA, childB, grand := NewSpanID(), NewSpanID(), NewSpanID()
	t0 := time.Now()
	spans := []Span{
		{Name: "grand", Trace: tr, ID: grand, Parent: childB, Start: t0.Add(3 * time.Millisecond)},
		{Name: "childB", Trace: tr, ID: childB, Parent: root, Start: t0.Add(2 * time.Millisecond)},
		{Name: "childA", Trace: tr, ID: childA, Parent: root, Start: t0.Add(1 * time.Millisecond)},
		{Name: "root", Trace: tr, ID: root, Start: t0},
	}
	roots := BuildTree(spans)
	if len(roots) != 1 || roots[0].Name != "root" {
		t.Fatalf("roots = %+v, want single root", roots)
	}
	kids := roots[0].Children
	if len(kids) != 2 || kids[0].Name != "childA" || kids[1].Name != "childB" {
		t.Fatalf("children out of order: %+v", kids)
	}
	if len(kids[1].Children) != 1 || kids[1].Children[0].Name != "grand" {
		t.Fatalf("grandchild misplaced: %+v", kids[1].Children)
	}

	// A span whose parent never arrived becomes its own root.
	orphan := Span{Name: "orphan", Trace: tr, ID: NewSpanID(), Parent: NewSpanID()}
	roots = BuildTree(append(spans, orphan))
	if len(roots) != 2 {
		t.Fatalf("expected orphan to surface as a second root, got %d roots", len(roots))
	}
}

func TestFormatTreeIndentation(t *testing.T) {
	tr := NewTraceID()
	root, child := NewSpanID(), NewSpanID()
	out := FormatTree([]Span{
		{Name: "stratum.statement", Trace: tr, ID: root, Dur: 2 * time.Millisecond},
		{Name: "stratum.execute", Trace: tr, ID: child, Parent: root, Dur: time.Millisecond,
			Attrs: []Attr{AInt("rows", 3)}},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("FormatTree output:\n%s", out)
	}
	if !strings.HasPrefix(lines[0], "stratum.statement ") {
		t.Errorf("root line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  stratum.execute ") || !strings.Contains(lines[1], "rows=3") {
		t.Errorf("child line = %q", lines[1])
	}
}

func TestRingEvictionAndBounds(t *testing.T) {
	r := NewRing(4)
	if r.Cap() != 4 {
		t.Fatalf("Cap() = %d", r.Cap())
	}
	tr := NewTraceID()
	for i := 0; i < 6; i++ {
		r.Span(Span{Name: "s", Trace: tr, ID: NewSpanID(), Dur: time.Duration(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len() = %d, want capacity 4", r.Len())
	}
	if r.Total() != 6 {
		t.Fatalf("Total() = %d, want 6", r.Total())
	}
	got := r.Spans()
	if len(got) != 4 || got[0].Dur != 2 || got[3].Dur != 5 {
		t.Fatalf("expected the two oldest spans evicted, got %+v", got)
	}
	if n := len(r.TraceSpans(tr)); n != 4 {
		t.Fatalf("TraceSpans kept %d spans", n)
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 || len(r.TraceSpans(tr)) != 0 {
		t.Fatal("Reset did not clear the ring")
	}
}

func TestRingTracesNewestFirst(t *testing.T) {
	r := NewRing(16)
	old, new := NewTraceID(), NewTraceID()
	oldRoot, newRoot := NewSpanID(), NewSpanID()
	r.Span(Span{Name: "old.stmt", Trace: old, ID: oldRoot})
	r.Span(Span{Name: "old.child", Trace: old, ID: NewSpanID(), Parent: oldRoot})
	r.Span(Span{Name: "new.stmt", Trace: new, ID: newRoot})
	r.Span(Span{Name: "untraced", ID: NewSpanID()}) // must not be listed

	sums := r.Traces()
	if len(sums) != 2 {
		t.Fatalf("Traces() = %+v, want 2 traces", sums)
	}
	if sums[0].Trace != new || sums[0].Root != "new.stmt" || sums[0].Spans != 1 {
		t.Fatalf("newest trace wrong: %+v", sums[0])
	}
	if sums[1].Trace != old || sums[1].Root != "old.stmt" || sums[1].Spans != 2 {
		t.Fatalf("older trace wrong: %+v", sums[1])
	}
}

// TestQuantileInterpolation pins the within-bucket linear interpolation:
// the estimator must land between bucket bounds in proportion to the
// requested rank, not snap to the bucket's upper bound as the old
// estimator did.
func TestQuantileInterpolation(t *testing.T) {
	us := time.Microsecond
	cases := []struct {
		name string
		fill func(h *Histogram)
		q    float64
		want time.Duration
	}{
		// 100 observations in bucket (2µs, 4µs]: p50 sits at rank 50 of
		// 100, half-way through the bucket.
		{"mid-bucket", func(h *Histogram) {
			for i := 0; i < 100; i++ {
				h.Record(3 * us)
			}
		}, 0.50, 3 * us},
		// Same bucket, p100: the full bucket width.
		{"bucket-top", func(h *Histogram) {
			for i := 0; i < 100; i++ {
				h.Record(3 * us)
			}
		}, 1.00, 4 * us},
		// 50 in bucket 0 (<=1µs), 50 in (4µs, 8µs]: p25 is half-way
		// through the first bucket, p75 half-way through the second.
		{"two-buckets-low", func(h *Histogram) {
			for i := 0; i < 50; i++ {
				h.Record(us)
				h.Record(8 * us)
			}
		}, 0.25, 500 * time.Nanosecond},
		{"two-buckets-high", func(h *Histogram) {
			for i := 0; i < 50; i++ {
				h.Record(us)
				h.Record(8 * us)
			}
		}, 0.75, 6 * us},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := &Histogram{}
			tc.fill(h)
			if got := h.Quantile(tc.q); got != tc.want {
				t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}

	// Overflow bucket: no finite upper bound, so the estimator returns
	// the histogram's nominal ceiling rather than interpolating.
	h := &Histogram{}
	h.Record(100 * time.Hour)
	if got := h.Quantile(0.5); got != bucketUpper(histOverflow) {
		t.Errorf("overflow Quantile = %v, want %v", got, bucketUpper(histOverflow))
	}
}

// Child returns a context for work nested under a freshly allocated
// span ID, plus that ID (the caller emits the span with it when the
// work completes — span IDs are allocated at start so children can
// reference their parent before the parent span is delivered).
func (sc SpanContext) Child() (SpanContext, SpanID) {
	id := NewSpanID()
	return SpanContext{Trace: sc.Trace, Span: id}, id
}
