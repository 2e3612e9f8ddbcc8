package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1 * time.Nanosecond, 0},
		{1 * time.Microsecond, 0},
		{1*time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{2*time.Microsecond + 1, 2},
		{4 * time.Microsecond, 2},
		{1 * time.Millisecond, 10},   // 1µs·2^10 = 1.024ms
		{100 * time.Millisecond, 17}, // 1µs·2^17 ≈ 131ms
		{1 * time.Second, 20},        // 1µs·2^20 ≈ 1.05s
		{24 * time.Hour, histOverflow},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every bucket's upper bound must map back into that bucket.
	for i := 0; i < histBuckets; i++ {
		if got := bucketIndex(bucketUpper(i)); got != i {
			t.Errorf("bucketIndex(bucketUpper(%d)) = %d", i, got)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	// 90 fast observations, 10 slow ones: p50 small, p95 large.
	for i := 0; i < 90; i++ {
		h.Record(10 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(50 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if p50 := h.Quantile(0.50); p50 > time.Millisecond {
		t.Errorf("p50 = %v, want <= 1ms", p50)
	}
	if p95 := h.Quantile(0.95); p95 < 10*time.Millisecond {
		t.Errorf("p95 = %v, want >= 10ms", p95)
	}
	if h.Quantile(1.0) < h.Quantile(0.5) {
		t.Error("quantiles not monotone")
	}
}

func TestConcurrentCounters(t *testing.T) {
	m := NewMetrics()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := m.Counter("test.ops_total")
			h := m.Histogram("test.ns")
			ga := m.Gauge("test.last")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Record(time.Duration(i) * time.Microsecond)
				ga.Set(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("test.ops_total").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := m.Histogram("test.ns").Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestMetricsResetAndString(t *testing.T) {
	m := NewMetrics()
	m.Counter("b.counter").Add(7)
	m.Gauge("a.gauge").Set(42)
	m.Histogram("c.hist").Record(3 * time.Millisecond)
	out := m.String()
	if !strings.Contains(out, "b.counter 7") || !strings.Contains(out, "a.gauge 42") {
		t.Fatalf("exposition missing values:\n%s", out)
	}
	// Sorted by name: a.gauge before b.counter before c.hist.
	if ai, bi := strings.Index(out, "a.gauge"), strings.Index(out, "b.counter"); ai > bi {
		t.Fatalf("exposition not sorted:\n%s", out)
	}
	if m.Value("b.counter") != 7 || m.Value("a.gauge") != 42 || m.Value("nope") != 0 {
		t.Fatal("Value lookups wrong")
	}
	m.Reset()
	if m.Value("b.counter") != 0 || m.Histogram("c.hist").Count() != 0 {
		t.Fatal("Reset did not zero metrics")
	}
}

func TestMultiTracerFanOut(t *testing.T) {
	var a, b Collector
	tr := MultiTracer(&a, nil, &b)
	tr.Span(Span{Name: "x", Dur: time.Millisecond})
	tr.Event(Event{Name: "y", Attrs: []Attr{A("k", "v")}})
	for _, c := range []*Collector{&a, &b} {
		if len(c.Spans()) != 1 || len(c.Events()) != 1 {
			t.Fatalf("collector did not receive fan-out: %d spans, %d events",
				len(c.Spans()), len(c.Events()))
		}
	}
	if got := attr(b.Events()[0].Attrs, "k"); got != "v" {
		t.Fatalf("attr k = %q", got)
	}
	if MultiTracer(nil, nil) != nil {
		t.Fatal("MultiTracer of nils should be nil")
	}
	if MultiTracer(&a) != Tracer(&a) {
		t.Fatal("MultiTracer of one tracer should return it unwrapped")
	}
}

func TestCollectorFilters(t *testing.T) {
	var c Collector
	c.Span(Span{Name: "engine.routine"})
	c.Span(Span{Name: "stratum.translate"})
	c.Event(Event{Name: "stratum.auto"})
	if got := len(c.SpansNamed("engine.routine")); got != 1 {
		t.Fatalf("SpansNamed = %d", got)
	}
	if got := len(c.EventsNamed("stratum.auto")); got != 1 {
		t.Fatalf("EventsNamed = %d", got)
	}
	c.Reset()
	if len(c.Spans()) != 0 || len(c.Events()) != 0 {
		t.Fatal("Reset did not clear collector")
	}
}

func TestWriterTracer(t *testing.T) {
	var buf bytes.Buffer
	wt := &WriterTracer{W: &buf, MinDur: 10 * time.Millisecond}
	wt.Span(Span{Name: "fast", Dur: time.Millisecond})
	wt.Span(Span{Name: "slow", Dur: 20 * time.Millisecond, Attrs: []Attr{A("q", "q2")}})
	wt.Event(Event{Name: "decided", Attrs: []Attr{A("strategy", "MAX")}})
	out := buf.String()
	if strings.Contains(out, "fast") {
		t.Fatalf("MinDur did not suppress fast span:\n%s", out)
	}
	if !strings.Contains(out, "span slow 20ms q=q2") {
		t.Fatalf("slow span not rendered:\n%s", out)
	}
	if !strings.Contains(out, "event decided strategy=MAX") {
		t.Fatalf("event not rendered:\n%s", out)
	}
}

// attr returns the value of the named attribute, or "".
func attr(attrs []Attr, key string) string {
	for _, a := range attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// EventsNamed returns the recorded events with the given name.
func (c *Collector) EventsNamed(name string) []Event {
	var out []Event
	for _, e := range c.Events() {
		if e.Name == name {
			out = append(out, e)
		}
	}
	return out
}
