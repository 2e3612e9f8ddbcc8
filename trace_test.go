package taupsm

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"taupsm/internal/obs"
)

// fig3SQL is the paper's Figure-3 sequenced query, the standard
// tracing subject: under MAX it slices into constant periods and
// evaluates per-fragment.
const fig3SQL = `VALIDTIME SELECT i.title FROM item i, item_author ia
	WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`

// spanByName returns the single span with the given name, failing the
// test on zero or multiple matches.
func spanByName(t *testing.T, spans []obs.Span, name string) obs.Span {
	t.Helper()
	var out []obs.Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	if len(out) != 1 {
		t.Fatalf("want exactly one %q span, got %d", name, len(out))
	}
	return out[0]
}

func TestWithTraceSpanTree(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	ctx, id := db.WithTrace(context.Background())
	if id == 0 {
		t.Fatal("WithTrace allocated no trace ID")
	}
	if _, err := db.QueryContext(ctx, fig3SQL); err != nil {
		t.Fatal(err)
	}

	spans := db.TraceBuffer().TraceSpans(id)
	if len(spans) == 0 {
		t.Fatal("no spans buffered for the trace")
	}
	for _, s := range spans {
		if s.Trace != id {
			t.Fatalf("span %q carries trace %v, want %v", s.Name, s.Trace, id)
		}
		if s.ID == 0 {
			t.Fatalf("span %q has no span ID", s.Name)
		}
	}

	root := spanByName(t, spans, "stratum.statement")
	if root.Parent != 0 {
		t.Fatalf("stratum.statement is not a root (parent %v)", root.Parent)
	}
	translate := spanByName(t, spans, "stratum.translate")
	execute := spanByName(t, spans, "stratum.execute")
	if translate.Parent != root.ID || execute.Parent != root.ID {
		t.Fatalf("translate/execute not children of the statement root")
	}
	// Stage spans mirror the record's stage list: disjoint siblings under
	// the statement root, cp (a cache miss here) before execute.
	cp := spanByName(t, spans, "stratum.cp")
	if cp.Parent != root.ID || cp.Start.After(execute.Start) {
		t.Fatalf("stratum.cp parent = %v at %v, want a child of the root %v before execute (%v)",
			cp.Parent, cp.Start, root.ID, execute.Start)
	}
	spanByName(t, spans, "stratum.parse") // the script's parse joins the trace

	// The tree renders every span: no orphans hiding at the root level
	// besides statement and parse.
	roots := obs.BuildTree(spans)
	if len(roots) != 2 {
		t.Fatalf("expected 2 root spans (parse, statement), got %d", len(roots))
	}
}

// Every Query(src) parses its text — there is no parse cache, so each
// forced trace carries its own stratum.parse span — and the second call
// still finds the first one's statement plan, which is keyed by rendered
// text: translation_cache "hit" under the same digest.
func TestEveryQueryParsesAndTheSecondHitsThePlan(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	var buf bytes.Buffer
	db.SetSlowLog(&buf, time.Nanosecond)
	defer db.SetSlowLog(nil, 0)

	parses := db.Metrics().Histogram("stratum.parse_ns")
	before := parses.Count()
	var recs [2]ProcessSnapshot
	for i := range recs {
		buf.Reset()
		ctx, id := db.WithTrace(context.Background())
		if _, err := db.QueryContext(ctx, fig3SQL); err != nil {
			t.Fatal(err)
		}
		parse := spanByName(t, db.TraceBuffer().TraceSpans(id), "stratum.parse") // exactly one
		if parse.Dur <= 0 {
			t.Errorf("call %d: stratum.parse span has no duration", i)
		}
		if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &recs[i]); err != nil {
			t.Fatalf("call %d: slow log line is not one JSON record: %v\n%s", i, err, buf.String())
		}
	}
	if got := parses.Count() - before; got != 2 {
		t.Errorf("stratum.parse_ns recorded %d parses over two calls, want one per call", got)
	}
	if recs[0].TranslationCache != "miss" || recs[1].TranslationCache != "hit" {
		t.Errorf("translation_cache = %q then %q, want miss then hit", recs[0].TranslationCache, recs[1].TranslationCache)
	}
	if recs[0].Digest == "" || recs[0].Digest != recs[1].Digest {
		t.Errorf("digests %q and %q, want one non-empty digest", recs[0].Digest, recs[1].Digest)
	}
}

func TestTraceSamplingEveryNth(t *testing.T) {
	db := paperDB(t)
	db.TraceBuffer().Reset()

	// Sampling off: statements leave nothing in the ring.
	if n := db.TraceSampling(); n != 0 {
		t.Fatalf("default sampling = %d, want off", n)
	}
	db.MustExec(`SELECT title FROM item`)
	if db.TraceBuffer().Len() != 0 {
		t.Fatalf("ring has %d spans with sampling off", db.TraceBuffer().Len())
	}

	// Every 2nd statement sampled: 4 scripts leave exactly 2 traces.
	db.SetTraceSampling(2)
	for i := 0; i < 4; i++ {
		db.MustExec(`SELECT title FROM item`)
	}
	if got := len(db.TraceBuffer().Traces()); got != 2 {
		t.Fatalf("sampled %d traces of 4 statements at 1-in-2, want 2", got)
	}

	// WithTrace forces capture regardless of sampling.
	db.SetTraceSampling(0)
	db.TraceBuffer().Reset()
	ctx, id := db.WithTrace(context.Background())
	if _, err := db.ExecContext(ctx, `SELECT title FROM item`); err != nil {
		t.Fatal(err)
	}
	if len(db.TraceBuffer().TraceSpans(id)) == 0 {
		t.Fatal("WithTrace did not capture spans with sampling off")
	}
}

// TestExplainAnalyzeSequencedMax is the acceptance check: EXPLAIN
// ANALYZE of a sequenced MAX query reports the actual fragment count
// and per-stage durations, and on a persistent database the WAL fsync
// count of a DML statement matches the metrics delta.
func TestExplainAnalyzeSequencedMax(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	e, err := db.ExplainAnalyze(fig3SQL)
	if err != nil {
		t.Fatal(err)
	}
	a := e.Analyzed
	if a == nil {
		t.Fatal("ExplainAnalyze returned no profile")
	}
	if a.TraceID == "" {
		t.Error("no trace ID")
	}
	if a.ElapsedNS <= 0 || a.StageNS("execute") <= 0 || a.StageNS("translate") <= 0 {
		t.Errorf("stage durations not observed: %+v", a)
	}
	if a.StageNS("execute") >= a.ElapsedNS {
		t.Errorf("execute (%d) should be under the total (%d)", a.StageNS("execute"), a.ElapsedNS)
	}
	if a.Fragments <= 0 {
		t.Errorf("fragments = %d, want > 0 for a MAX-sliced query", a.Fragments)
	}
	if a.CPTotal <= 0 {
		t.Errorf("constant periods = %d, want > 0", a.CPTotal)
	}
	if a.Rows == 0 || a.RoutineCalls == 0 {
		t.Errorf("rows=%d routine_calls=%d, want > 0", a.Rows, a.RoutineCalls)
	}
	// The plan's predicted fragment count and the observed one measure
	// the same slicing.
	if e.Fragments > 0 && int64(e.Fragments) != a.Fragments {
		t.Errorf("plan predicted %d fragments, execution observed %d", e.Fragments, a.Fragments)
	}
	// The rendered plan carries the actual_* rows.
	text := e.Result().String()
	for _, want := range []string{"actual_time", "trace_id", "actual_fragments", "actual_rows"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered plan missing %q:\n%s", want, text)
		}
	}

	// The trace is retrievable from the buffer by the reported ID.
	if id, _ := obs.ParseTraceID(a.TraceID); len(db.TraceBuffer().TraceSpans(id)) == 0 {
		t.Error("EXPLAIN ANALYZE trace not in the buffer")
	}
}

func TestExplainAnalyzeWALFsyncsMatchMetrics(t *testing.T) {
	db, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(`CREATE TABLE item (id CHAR(10), title CHAR(100)) AS VALIDTIME;`)

	before := db.Metrics().Value("wal.fsyncs_total")
	e, err := db.ExplainAnalyze(`NONSEQUENCED VALIDTIME INSERT INTO item VALUES
		('i1', 'SQL Basics', DATE '2010-01-01', DATE '2011-01-01')`)
	if err != nil {
		t.Fatal(err)
	}
	delta := db.Metrics().Value("wal.fsyncs_total") - before
	a := e.Analyzed
	if a.WALFsyncs == 0 {
		t.Fatal("durable INSERT reported no WAL fsyncs")
	}
	if a.WALFsyncs != delta {
		t.Fatalf("profile says %d fsyncs, metrics delta is %d", a.WALFsyncs, delta)
	}
	if a.WALBytes <= 0 {
		t.Errorf("wal_bytes = %d, want > 0", a.WALBytes)
	}
	if commit := a.StageNS("commit"); commit <= 0 || a.FsyncNS <= 0 || a.FsyncNS > commit {
		t.Errorf("commit=%d fsync=%d, want 0 < fsync <= commit on a persistent database", commit, a.FsyncNS)
	}
}

func TestSlowLogJSON(t *testing.T) {
	db := paperDB(t)
	var buf bytes.Buffer
	db.SetSlowLog(&buf, time.Nanosecond) // everything is slow
	defer db.SetSlowLog(nil, 0)
	db.SetStrategy(Max)
	if _, err := db.Query(fig3SQL); err != nil {
		t.Fatal(err)
	}
	db.SetSlowLog(nil, 0)
	if db.SlowLogThreshold() != 0 {
		t.Fatal("SetSlowLog(nil, 0) did not disarm")
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var ent ProcessSnapshot
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ent); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, buf.String())
	}
	if ent.Kind != "sequenced" {
		t.Errorf("kind = %q", ent.Kind)
	}
	if ent.Strategy != "MAX" {
		t.Errorf("strategy = %q", ent.Strategy)
	}
	if ent.ElapsedNS <= 0 || ent.StageNS("execute") <= 0 || ent.StageNS("translate") <= 0 {
		t.Errorf("durations not recorded: %+v", ent)
	}
	if ent.Digest == "" || len(ent.Digest) != 16 {
		t.Errorf("digest = %q, want 16 hex chars", ent.Digest)
	}
	if !strings.Contains(ent.SQL, "VALIDTIME SELECT") || ent.ID == 0 {
		t.Errorf("statement = %q, pid = %d", ent.SQL, ent.ID)
	}
	if ent.Rows == 0 || ent.RoutineCalls == 0 {
		t.Errorf("counts not recorded: %+v", ent)
	}
	if ent.TraceID != "" {
		t.Errorf("untraced statement carries trace ID %q", ent.TraceID)
	}

	// A traced statement's entry carries its trace ID.
	buf.Reset()
	db.SetSlowLog(&buf, time.Nanosecond)
	ctx, id := db.WithTrace(context.Background())
	if _, err := db.ExecContext(ctx, `SELECT title FROM item`); err != nil {
		t.Fatal(err)
	}
	var traced ProcessSnapshot
	line := strings.Split(strings.TrimSpace(buf.String()), "\n")[0]
	if err := json.Unmarshal([]byte(line), &traced); err != nil {
		t.Fatal(err)
	}
	if traced.TraceID != id.String() {
		t.Errorf("trace_id = %q, want %q", traced.TraceID, id)
	}
}

// TestParallelWorkerSpans is the worker-span race check: parallel MAX
// fragment workers emit spans concurrently into the shared sinks (run
// under -race via `make verify`). Every worker span must arrive
// exactly once, correctly parented, and the ring must stay bounded.
func TestParallelWorkerSpans(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	db.SetParallelism(4)

	const stmts = 8
	var wg sync.WaitGroup
	ids := make([]obs.TraceID, stmts)
	errs := make([]error, stmts)
	for i := 0; i < stmts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, id := db.WithTrace(context.Background())
			ids[i] = id
			_, errs[i] = db.QueryContext(ctx, fig3SQL)
		}(i)
	}
	wg.Wait()

	ring := db.TraceBuffer()
	if ring.Len() > ring.Cap() {
		t.Fatalf("ring exceeded its bound: %d > %d", ring.Len(), ring.Cap())
	}
	seen := map[obs.SpanID]bool{}
	for i := 0; i < stmts; i++ {
		if errs[i] != nil {
			t.Fatalf("statement %d: %v", i, errs[i])
		}
		spans := ring.TraceSpans(ids[i])
		execute := spanByName(t, spans, "stratum.execute")
		var workers int
		for _, s := range spans {
			if seen[s.ID] {
				t.Fatalf("span ID %v delivered twice", s.ID)
			}
			seen[s.ID] = true
			if s.Name == "stratum.worker" {
				workers++
				if s.Parent != execute.ID {
					t.Fatalf("worker span parent = %v, want execute %v", s.Parent, execute.ID)
				}
			}
		}
		if workers < 2 {
			t.Fatalf("trace %v recorded %d worker spans, want >= 2 (parallel MAX under tracing)", ids[i], workers)
		}
	}
}

func TestLastStatementSpanClock(t *testing.T) {
	db := paperDB(t)
	ctx, id := db.WithTrace(context.Background())
	if _, err := db.ExecContext(ctx, `SELECT title FROM item`); err != nil {
		t.Fatal(err)
	}
	lastID, elapsed := db.LastStatement()
	if lastID != id {
		t.Fatalf("LastStatement trace = %v, want %v", lastID, id)
	}
	if elapsed <= 0 {
		t.Fatalf("elapsed = %v", elapsed)
	}
	root := spanByName(t, db.TraceBuffer().TraceSpans(id), "stratum.statement")
	if root.Dur != elapsed {
		t.Fatalf("\\timing clock (%v) disagrees with the root span (%v)", elapsed, root.Dur)
	}
}

// ANALYZE and EXPLAIN are statements like any other: they have a record,
// so a slow one reaches the slow log (and, while it runs, the process
// list). EXPLAIN ANALYZE's record is that of the body it executes.
func TestSlowLogCoversAnalyzeAndExplain(t *testing.T) {
	db := paperDB(t)
	var buf bytes.Buffer
	db.SetSlowLog(&buf, time.Nanosecond)
	defer db.SetSlowLog(nil, 0)
	db.MustExec(`ANALYZE item`)
	db.MustExec(`EXPLAIN VALIDTIME SELECT title FROM item`)
	db.MustExec(`EXPLAIN ANALYZE VALIDTIME SELECT title FROM item`)
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ent ProcessSnapshot
		if err := json.Unmarshal([]byte(line), &ent); err != nil {
			t.Fatalf("slow log line is not JSON: %v\n%s", err, line)
		}
		if ent.ID == 0 || ent.Digest == "" || ent.ElapsedNS < ent.StageNS("execute") || ent.StageNS("execute") <= 0 {
			t.Errorf("incomplete record: %s", line)
		}
		got = append(got, ent.Kind+" "+strings.Fields(ent.SQL)[0])
	}
	want := []string{"current ANALYZE", "explain EXPLAIN", "sequenced VALIDTIME"}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Errorf("slow log recorded %q, want %q", got, want)
	}
	if _, d := db.LastStatement(); d <= 0 {
		t.Errorf("LastStatement after EXPLAIN ANALYZE = %v", d)
	}
}
