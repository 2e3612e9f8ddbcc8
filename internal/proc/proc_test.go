package proc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"taupsm/internal/obs"
)

// begin registers a process with the given identity, the way the
// stratum's statement entry does.
func begin(r *Registry, kind, text, digest string) *Process {
	return r.Begin(&Process{Session: "embedded", Kind: kind, Text: text, Digest: digest})
}

func TestNilSafety(t *testing.T) {
	// The methods an engine session calls tolerate a session without a
	// record (the engine used without the stratum).
	var p *Process
	if err := p.Killed(); err != nil {
		t.Fatalf("nil Killed = %v", err)
	}
	p.AddRows(1)
	p.AddRowsScanned(1)
	p.AddRoutineCalls(1)
	p.SetWALPending(1)
	if p.KilledBy(errors.New("x")) {
		t.Fatal("nil KilledBy = true")
	}
}

func TestBeginFinishList(t *testing.T) {
	r := NewRegistry()
	a := r.Begin(&Process{Session: "embedded", Kind: "sequenced", Text: "SELECT 1", Digest: "abc",
		Root: obs.SpanContext{Trace: 0x1f, Span: 1}})
	b := begin(r, "current", "SELECT 2", "def")
	if a.ID == b.ID || a.ID <= 0 || b.ID <= a.ID {
		t.Fatalf("IDs not increasing: %d %d", a.ID, b.ID)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	ls := r.List()
	if len(ls) != 2 || ls[0].ID != a.ID || ls[1].ID != b.ID {
		t.Fatalf("List = %+v", ls)
	}
	if ls[0].SQL != "SELECT 1" || ls[0].Digest != "abc" || ls[0].TraceID != "000000000000001f" || ls[1].TraceID != "" {
		t.Fatalf("snapshot fields = %+v", ls[0])
	}
	r.Finish(a)
	r.Finish(a) // idempotent
	if r.Len() != 1 {
		t.Fatalf("Len after finish = %d", r.Len())
	}
	select {
	case <-a.Done():
	default:
		t.Fatal("Done not closed after Finish")
	}
	r.Finish(b)
	if r.Len() != 0 {
		t.Fatal("registry not empty after finishing all")
	}
}

func TestKill(t *testing.T) {
	r := NewRegistry()
	p := begin(r, "sequenced", "UPDATE ...", "d")
	if err := p.Killed(); err != nil {
		t.Fatalf("fresh process killed: %v", err)
	}
	if r.Kill(p.ID+100, nil) {
		t.Fatal("Kill of unknown pid = true")
	}
	if !r.Kill(p.ID, nil) {
		t.Fatal("Kill of live pid = false")
	}
	cause := p.Killed()
	if cause == nil || !errors.Is(cause, ErrQueryKilled) {
		t.Fatalf("cause = %v, want ErrQueryKilled", cause)
	}
	// Wrapping the cause through frames must stay recognizable.
	wrapped := fmt.Errorf("routine f: %w", fmt.Errorf("statement 3: %w", cause))
	if !p.KilledBy(wrapped) {
		t.Fatal("KilledBy(wrapped cause) = false")
	}
	if p.KilledBy(errors.New("unrelated")) {
		t.Fatal("KilledBy(unrelated) = true")
	}
	// First kill wins.
	p.Kill(errors.New("second"))
	if got := p.Killed(); !errors.Is(got, ErrQueryKilled) {
		t.Fatalf("second kill replaced cause: %v", got)
	}
	if !p.Snapshot().Killed {
		t.Fatal("snapshot not marked killed")
	}
	r.Finish(p)
}

func TestKillCustomCauseWrapped(t *testing.T) {
	r := NewRegistry()
	p := begin(r, "k", "sql", "d")
	custom := errors.New("deadline")
	r.Kill(p.ID, custom)
	got := p.Killed()
	if !errors.Is(got, ErrQueryKilled) || !errors.Is(got, custom) {
		t.Fatalf("cause = %v, want both ErrQueryKilled and custom", got)
	}
}

func TestWatchContext(t *testing.T) {
	r := NewRegistry()
	p := begin(r, "k", "sql", "d")
	ctx, cancel := context.WithCancelCause(context.Background())
	done := make(chan struct{})
	go func() { p.WatchContext(ctx); close(done) }()
	cause := errors.New("client went away")
	cancel(cause)
	<-done
	got := p.Killed()
	if !errors.Is(got, cause) {
		t.Fatalf("Killed = %v, want context cause", got)
	}
	if !p.KilledBy(fmt.Errorf("wrap: %w", got)) {
		t.Fatal("KilledBy(context cause) = false")
	}
	r.Finish(p)
}

func TestWatchContextExitsOnFinish(t *testing.T) {
	r := NewRegistry()
	p := begin(r, "k", "sql", "d")
	ctx := context.Background() // never cancelled
	done := make(chan struct{})
	go func() { p.WatchContext(ctx); close(done) }()
	r.Finish(p)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("watcher leaked past Finish")
	}
	if p.Killed() != nil {
		t.Fatal("finish killed the process")
	}
}

func TestSnapshotFractionsAndStages(t *testing.T) {
	r := NewRegistry()
	p := begin(r, "sequenced", "sql", "d")
	s := p.Snapshot()
	if s.CPFraction != -1 || s.FragsFraction != -1 {
		t.Fatalf("fractions before totals: %v %v", s.CPFraction, s.FragsFraction)
	}
	p.SetPeriods(4)
	p.AddPeriodsDone(1)
	s = p.Snapshot()
	if s.CPFraction != 0.25 || s.FragsFraction != 0.25 || s.FragsDone != 1 || s.FragsTotal != 4 {
		t.Fatalf("progress = %+v", s)
	}
	p.AddPeriodsDone(100) // over-counting clamps at 1
	if f := p.Snapshot().CPFraction; f != 1 {
		t.Fatalf("clamped fraction = %v", f)
	}

	// Stages are exclusive and listed in entry order; the one in
	// progress is the last entry, and a detached snapshot does not see
	// later stages.
	p.Enter("translate")
	_, _, d := p.Leave()
	p.Enter("execute")
	s = p.Snapshot()
	if s.Stage != "execute" {
		t.Fatalf("Stage = %q", s.Stage)
	}
	if len(s.Stages) != 2 || s.Stages[0].Name != "translate" || s.Stages[1].Name != "execute" {
		t.Fatalf("Stages = %+v", s.Stages)
	}
	if s.Stages[0].NS != d.Nanoseconds() || s.StageNS("translate") != d.Nanoseconds() {
		t.Fatalf("translate = %d ns in the record, Leave returned %v", s.Stages[0].NS, d)
	}
	p.Leave()
	p.Enter("commit")
	p.Leave()
	if len(s.Stages) != 2 {
		t.Fatalf("snapshot not detached: %+v", s.Stages)
	}
	p.Note(func(rec *Snapshot) { rec.Strategy, rec.WALBytes = "MAX", 12 })
	r.Finish(p)
	s = p.Snapshot()
	var sum int64
	for _, st := range s.Stages {
		sum += st.NS
	}
	if len(s.Stages) != 3 || sum > s.ElapsedNS || s.Strategy != "MAX" || s.WALBytes != 12 {
		t.Fatalf("finished record = %+v", s)
	}
	if again := p.Snapshot(); again.ElapsedNS != s.ElapsedNS {
		t.Fatalf("elapsed moved after Finish: %d then %d", s.ElapsedNS, again.ElapsedNS)
	}
}

// TestConcurrentMirrors hammers one process from parallel workers while
// a reader snapshots, checking counter totals and that snapshots only
// ever see monotonically non-decreasing values.
func TestConcurrentMirrors(t *testing.T) {
	r := NewRegistry()
	p := begin(r, "k", "sql", "d")
	const workers, per = 8, 1000
	stop := make(chan struct{})
	var prev Snapshot
	var monErr error
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := p.Snapshot()
			if s.Rows < prev.Rows || s.CPDone < prev.CPDone || s.RowsScanned < prev.RowsScanned {
				monErr = fmt.Errorf("counters regressed: %+v -> %+v", prev, s)
				return
			}
			prev = s
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p.AddRows(1)
				p.AddRowsScanned(2)
				p.AddPeriodsDone(1)
				p.AddRoutineCalls(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if monErr != nil {
		t.Fatal(monErr)
	}
	s := p.Snapshot()
	if s.Rows != workers*per || s.RowsScanned != 2*workers*per || s.CPDone != workers*per {
		t.Fatalf("totals = %+v", s)
	}
	r.Finish(p)
}
