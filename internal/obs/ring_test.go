package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestRingConcurrentEviction hammers one ring far past capacity from
// many writers at once. Afterwards the ring must hold exactly cap
// spans, every buffered span must be one that was actually written
// (no torn or zeroed slots), and the total must count every write.
func TestRingConcurrentEviction(t *testing.T) {
	const (
		writers   = 8
		perWriter = 5000
		cap       = 64
	)
	r := NewRing(cap)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Span(Span{
					Name:  fmt.Sprintf("w%d", w),
					Trace: TraceID(w + 1),
					ID:    SpanID(i + 1),
				})
			}
		}(w)
	}
	wg.Wait()

	if got := r.Len(); got != cap {
		t.Fatalf("Len = %d, want the capacity %d", got, cap)
	}
	if got := r.Total(); got != writers*perWriter {
		t.Fatalf("Total = %d, want %d", got, writers*perWriter)
	}
	for i, s := range r.Spans() {
		if s.Trace < 1 || s.Trace > writers || s.ID < 1 || s.ID > perWriter {
			t.Fatalf("span %d is not a recorded write: %+v", i, s)
		}
		if want := fmt.Sprintf("w%d", s.Trace-1); s.Name != want {
			t.Fatalf("span %d torn: name %q with trace %d", i, s.Name, s.Trace)
		}
	}
	// The summaries must agree with the buffer contents.
	total := 0
	for _, sum := range r.Traces() {
		total += sum.Spans
	}
	if total != cap {
		t.Fatalf("trace summaries cover %d spans, want %d", total, cap)
	}
}

// TestRingConcurrentReaders interleaves writers with snapshot readers:
// the race detector guards the locking, the assertions guard that a
// mid-eviction snapshot never exposes more than cap spans.
func TestRingConcurrentReaders(t *testing.T) {
	r := NewRing(32)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Span(Span{Name: "s", Trace: TraceID(w + 1), ID: SpanID(i + 1)})
			}
		}(w)
	}
	var rerr error
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := len(r.Spans()); n > r.Cap() {
				rerr = fmt.Errorf("snapshot of %d spans exceeds cap %d", n, r.Cap())
				return
			}
			r.Traces()
			r.TraceSpans(TraceID(1))
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()
	if rerr != nil {
		t.Fatal(rerr)
	}
}

// Cap returns the ring's capacity in spans.
func (r *Ring) Cap() int { return r.cap }
