package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"taupsm"
	"taupsm/internal/types"
	"taupsm/internal/wal"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {0.01, 1}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1,100) = %v", got)
	}
	// A class without samples has median 0 and must not drag the mean to 0.
	if got := geomean([]float64{4, 0, 9}); math.Abs(got-6) > 1e-9 {
		t.Errorf("geomean skipping zero = %v", got)
	}
	if got := classGeomean([][]float64{{1, 2, 3}, {8}}); math.Abs(got-4) > 1e-9 {
		t.Errorf("classGeomean = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "statement", Parent: -1, Start: 0, End: 100},
		{Name: "parse", Parent: 0, Start: 10, End: 30},
		{Name: "exec", Parent: 0, Start: 40, End: 90},
		{Name: "worker-a", Parent: 2, Start: 45, End: 70}, // overlapping children:
		{Name: "worker-b", Parent: 2, Start: 60, End: 85}, // their union is [45, 85)
		{Name: "late", Parent: 0, Start: 95, End: 120},    // clipped to the parent's end
	}
	want := []int64{100 - 20 - 50 - 5, 20, 50 - 40, 25, 25, 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func sqlOf(w workload, seed int64, passes int) []string {
	g := newGenerator(seed, w)
	var out []string
	for p := warmupPass; p < passes; p++ {
		for _, o := range w.gen(g, p) {
			out = append(out, o.sql)
		}
	}
	return out
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads() {
		a, b := sqlOf(w, 5, 12), sqlOf(w, 5, 12)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed generated different SQL", w.name)
		}
		if c := sqlOf(w, 6, 12); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 5 and 6 generated identical SQL", w.name)
		}
	}
}

func TestColdTextNeverRepeats(t *testing.T) {
	w, _ := workloadByName("cold-auto-1d")
	seen := map[string]bool{}
	for _, s := range sqlOf(w, 5, 300) {
		if seen[s] {
			t.Fatalf("statement repeats: %s", s)
		}
		seen[s] = true
	}
	// The warm sequenced workloads, by contrast, repeat every text.
	warm, _ := workloadByName("seq-max-1y")
	if got := len(uniq(sqlOf(warm, 5, 4))); got != len(warm.classes) {
		t.Errorf("seq-max-1y: %d distinct statements, want %d", got, len(warm.classes))
	}
}

func uniq(ss []string) map[string]bool {
	m := map[string]bool{}
	for _, s := range ss {
		m[s] = true
	}
	return m
}

func TestOltpBlockMix(t *testing.T) {
	w, _ := workloadByName("oltp-persist")
	g := newGenerator(3, w)
	want := []int{8, 2, 1, 3, 2, 1, 2, 1}
	for _, block := range []int{warmupPass, 0, 17} {
		got := make([]int, len(oltpClasses))
		writes := 0
		ops := w.gen(g, block)
		for _, o := range ops {
			got[o.class]++
			if o.write {
				writes++
			}
		}
		if !reflect.DeepEqual(got, want) || len(ops) != oltpBlockOps || writes != 9 {
			t.Errorf("block %d: class mix %v (%d statements, %d writes), want %v", block, got, len(ops), writes, want)
		}
	}
}

// TestTimingFSAccounting drives the wrapper directly over wal.MemFS and
// then under a real database, where the bytes it saw written to the log
// must equal the log's size in the filesystem below.
func TestTimingFSAccounting(t *testing.T) {
	mem := wal.NewMemFS()
	fs := newTimingFS(mem)
	lf, err := fs.Create("wal-00000001.log")
	if err != nil {
		t.Fatal(err)
	}
	lf.Write(make([]byte, 10))
	lf.Write(make([]byte, 5))
	lf.Sync()
	lf.Close()
	sf, _ := fs.Create("snapshot-00000002.tmp")
	sf.Write(make([]byte, 100))
	sf.Sync()
	sf.Close()
	fs.Rename("snapshot-00000002.tmp", "snapshot-00000002.snap")
	fs.SyncDir()
	rf, _ := fs.Open("snapshot-00000002.snap")
	io.ReadAll(rf)
	rf.Close()
	c := fs.counts()
	if c.LogWrite.Calls != 2 || c.LogWrite.Bytes != 15 || c.LogSync.Calls != 1 {
		t.Errorf("log accounting: %+v %+v", c.LogWrite, c.LogSync)
	}
	if c.SnapWrite.Calls != 1 || c.SnapWrite.Bytes != 100 || c.SnapSync.Calls != 1 {
		t.Errorf("snapshot accounting: %+v %+v", c.SnapWrite, c.SnapSync)
	}
	if c.Rename.Calls != 1 || c.SyncDir.Calls != 1 || c.Read.Bytes != 100 || c.bytesWritten() != 115 {
		t.Errorf("rename/syncdir/read accounting: %+v", c)
	}
	if d := c.minus(c); d != (fsCounts{}) {
		t.Errorf("c.minus(c) = %+v", d)
	}

	mem = wal.NewMemFS()
	fs = newTimingFS(mem)
	db, err := taupsm.OpenFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE t (k INTEGER) AS VALIDTIME`)
	before := fs.counts()
	db.MustExec(`NONSEQUENCED VALIDTIME INSERT INTO t VALUES (1, DATE '2010-01-01', DATE '2010-02-01')`)
	commit := fs.counts().minus(before)
	if commit.LogSync.Calls != 1 || commit.LogWrite.Bytes == 0 || commit.SnapWrite.Bytes != 0 {
		t.Errorf("one committing statement: %+v", commit)
	}
	names, _ := mem.List()
	var logBytes int64
	for _, name := range names {
		if isLog(name) {
			f, _ := mem.Open(name)
			data, _ := io.ReadAll(f)
			f.Close()
			logBytes += int64(len(data))
		}
	}
	if got := fs.counts().LogWrite.Bytes; got != logBytes {
		t.Errorf("wrapper saw %d log bytes, the filesystem holds %d", got, logBytes)
	}
	db.Close()
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, the contract a driver
// reads, in step with the workloads and metrics this package declares.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d declared", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, declared %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
}

// TestGoldensAgreeAcrossStrategies: MAX and PERST answer the same
// sequenced statements over the same data, so their goldens must hold
// the same class entries wherever both apply.
func TestGoldensAgreeAcrossStrategies(t *testing.T) {
	max, err := loadGolden("seq-max-1y")
	if err != nil {
		t.Fatal(err)
	}
	perst, err := loadGolden("seq-perst-1y")
	if err != nil {
		t.Fatal(err)
	}
	if len(perst.Classes) != 15 || len(max.Classes) != 16 {
		t.Fatalf("golden classes: %d under PERST, %d under MAX", len(perst.Classes), len(max.Classes))
	}
	for name, want := range perst.Classes {
		if got := max.Classes[name]; got != want {
			t.Errorf("%s: MAX golden %v, PERST golden %v", name, got, want)
		}
	}
}

// TestDigestInvariantUnderFragmentation: a sequenced result is digested
// as bags of timeslices, so one row valid over a period and the same row
// split into adjacent fragments digest alike, while a duplicate does not.
func TestDigestInvariantUnderFragmentation(t *testing.T) {
	begin, end := types.MustDate(2010, 1, 1), types.MustDate(2010, 4, 1)
	o := op{begin: begin, end: end, stride: gridStride}
	query := func(rows ...string) *taupsm.Result {
		db := taupsm.Open()
		db.MustExec(`CREATE TABLE t (k INTEGER) AS VALIDTIME`)
		for _, r := range rows {
			db.MustExec(`NONSEQUENCED VALIDTIME INSERT INTO t VALUES ` + r)
		}
		return db.MustExec(sequenced(begin, end, `SELECT k FROM t`))
	}
	whole := query(`(1, DATE '2010-01-01', DATE '2010-04-01')`)
	split := query(`(1, DATE '2010-01-01', DATE '2010-02-15')`, `(1, DATE '2010-02-15', DATE '2010-04-01')`)
	twice := query(`(1, DATE '2010-01-01', DATE '2010-04-01')`, `(1, DATE '2010-01-01', DATE '2010-04-01')`)
	dw, ds, dt := digest(o, whole), digest(o, split), digest(o, twice)
	if dw.hex() != ds.hex() || dw.rows != ds.rows || dw.rows != 3 {
		t.Errorf("fragmentation changed the digest: %v/%d vs %v/%d", dw.hex(), dw.rows, ds.hex(), ds.rows)
	}
	if dw.hex() == dt.hex() || dt.rows != 6 {
		t.Errorf("a duplicate row must change the digest (rows %d)", dt.rows)
	}
	tw, tsp := newTimeline(whole, begin, end), newTimeline(split, begin, end)
	if !reflect.DeepEqual(tw.days, tsp.days) || tw.at(begin+44).N != 1 {
		t.Error("timelines differ under fragmentation")
	}
	// The timeline agrees with the sampled digest on the sampled days.
	if g := tw.grid(gridStride); g.hex() != dw.hex() || g.rows != dw.rows {
		t.Errorf("timeline grid %v/%d, statement digest %v/%d", g.hex(), g.rows, dw.hex(), dw.rows)
	}
}

// TestQuickSmoke runs every workload end to end at -quick size, goldens
// checked: the traced run of each (which opens with an untraced phase),
// and the untraced run of the two cheap ones, through the command's own
// entry point so the driver's output contract is exercised too.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	reports := map[string]*report{}
	var mu sync.Mutex
	t.Run("traced", func(t *testing.T) {
		for _, w := range workloads() {
			w := w
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				r, err := runTraced(w, config{seed: goldenSeed, scale: 1, quick: true, out: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("failed %d of %d: %v", r.Failed, r.Attempted, r.Notes)
				}
				for _, d := range perLayer {
					if _, ok := r.Metrics[d.Name]; !ok {
						t.Errorf("per-layer metric %s missing", d.Name)
					}
				}
				mu.Lock()
				reports[w.name] = r
				mu.Unlock()
			})
		}
	})
	if t.Failed() {
		return
	}
	value := func(w, m string) float64 { return reports[w].Metrics[m].Value }
	if got := value("seq-max-1y", "stratum.translation_hit_frac"); got < 0.99 {
		t.Errorf("seq-max-1y translation hit fraction %v, want >= 0.99", got)
	}
	if got := value("cold-auto-1d", "stratum.translation_hit_frac"); got > 0.01 {
		t.Errorf("cold-auto-1d translation hit fraction %v, want <= 0.01", got)
	}
	maxCalls := reports["seq-max-1y"].PerClass["q2"]["engine.routine_calls"]
	perstCalls := reports["seq-perst-1y"].PerClass["q2"]["engine.routine_calls"]
	if maxCalls < 5*perstCalls || perstCalls == 0 {
		t.Errorf("q2 routine calls: %v under MAX, %v under PERST, want at least 5x", maxCalls, perstCalls)
	}
	if got := value("oltp-persist", "wal.fsyncs_per_commit"); got != 1 {
		t.Errorf("oltp-persist: %v fsyncs per commit, want the program's policy of 1", got)
	}

	for _, name := range []string{"cold-auto-1d", "oltp-persist"} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", name, "--seed", "9", "--trace", "0", "-quick", "-out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d\n%s%s", name, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("%s: last line is not JSON: %v", name, err)
		}
		var metrics map[string]metric
		json.Unmarshal(line["metrics"], &metrics)
		if len(line) != 4 || string(line["correct"]) != "true" || string(line["failed"]) != "0" || len(metrics) != len(endToEnd) {
			t.Errorf("%s: driver line %s", name, lines[len(lines)-1])
		}
		for _, d := range endToEnd {
			if m := metrics[d.Name]; m.Value <= 0 || m.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", name, d.Name, m)
			}
		}
	}
}
