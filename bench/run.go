package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"taupsm"
	"taupsm/internal/taubench"
)

// A measured run sets its workload up several times and reports the
// median as setup_s; the last instance is the one the timed region runs
// on. Cheap set-ups are repeated more often, until setupSpend has gone
// into them, so their median is as steady as an expensive one's.
const (
	setupRepsMin = 3
	setupRepsMax = 9
	setupSpend   = 1500 * time.Millisecond
)

// sizing says how long a phase runs: until its timed statements have
// taken budget (a driver run), or for exactly passes passes (a
// fixed-size run, whose counts repeat exactly).
type sizing struct {
	budget time.Duration
	passes int
}

// measured is what one phase of timed passes observed.
type measured struct {
	classLat          [][]float64 // latency in ms, per statement class
	lat               []float64   // every timed statement
	readLat, writeLat []float64
	timed             time.Duration // sum of the passes' wall time; checking excluded
	passes            int
	// Allocation is counted over the first allocPasses passes only, so the
	// per-statement figures do not depend on how far a time budget got on
	// a workload whose database grows as it runs.
	mallocs, bytes uint64
	allocStmts     int
	gcCycles       uint32
	gcPause        time.Duration
	heapPeak       uint64
	// Persistent workloads: what the filesystem saw, the part of it that
	// checkpoints caused, and the commits the log acknowledged.
	io, ckptIO fsCounts
	commits    int64
}

func (m measured) stmts() float64 { return float64(len(m.lat)) }

// runPasses drives passes of generated statements from pass first on,
// closed loop, one client: each statement is issued when the previous
// one has returned. exec runs one statement; results are checked after
// each pass, outside its timed interval, as are the memory statistics
// that bracket it. It returns the index of the next pass to run.
func (in *instance) runPasses(first int, sz sizing, v *verifier, exec func(op) (*taupsm.Result, error)) (measured, int) {
	m := measured{classLat: make([][]float64, len(in.w.classes))}
	appends := in.db.Metrics().Counter("wal.appends_total")
	var ioBefore fsCounts
	if in.fs != nil {
		ioBefore = in.fs.counts()
	}
	ckptBefore, commitsBefore := in.ckptIO, appends.Value()
	var ms0, ms1 runtime.MemStats
	pass := first
	for ; pass < in.g.maxPasses(); pass++ {
		if sz.budget > 0 && m.timed >= sz.budget && pass >= in.w.quick {
			break
		}
		if sz.budget == 0 && pass-first >= sz.passes {
			break
		}
		ops := in.w.gen(in.g, pass)
		results := make([]*taupsm.Result, len(ops))
		errs := make([]error, len(ops))
		runtime.ReadMemStats(&ms0)
		passStart := time.Now()
		for i, o := range ops {
			start := time.Now()
			if err := in.beforeStatement(); err != nil {
				errs[i] = err
				continue
			}
			results[i], errs[i] = exec(o)
			d := ms(time.Since(start))
			m.classLat[o.class] = append(m.classLat[o.class], d)
			m.lat = append(m.lat, d)
			if o.write {
				m.writeLat = append(m.writeLat, d)
			} else {
				m.readLat = append(m.readLat, d)
			}
		}
		m.timed += time.Since(passStart)
		runtime.ReadMemStats(&ms1)
		if pass-first < in.w.allocPasses() {
			m.mallocs += ms1.Mallocs - ms0.Mallocs
			m.bytes += ms1.TotalAlloc - ms0.TotalAlloc
			m.allocStmts += len(ops)
		}
		m.gcCycles += ms1.NumGC - ms0.NumGC
		m.gcPause += time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
		if ms1.HeapInuse > m.heapPeak {
			m.heapPeak = ms1.HeapInuse
		}
		m.passes++
		for i, o := range ops {
			v.check(pass, o, results[i], errs[i])
		}
		if in.w.persist && pass == in.w.quick-1 {
			v.endOfPrefix(in)
		}
	}
	if in.fs != nil {
		m.io = in.fs.counts().minus(ioBefore)
		m.ckptIO = in.ckptIO.minus(ckptBefore)
		m.commits = appends.Value() - commitsBefore
	}
	return m, pass
}

// query is the untraced statement path: the text goes to the database
// exactly as a client would send it.
func (in *instance) query(o op) (*taupsm.Result, error) { return in.db.Query(o.sql) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run of one workload.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Passes    int               `json:"passes"`
	TimedS    float64           `json:"timed_s"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples is the number of samples behind each percentile metric.
	Samples map[string]int `json:"samples"`
	// PerClass breaks selected per-layer metrics down by statement
	// class (traced runs only).
	PerClass map[string]map[string]float64 `json:"per_class,omitempty"`
	Notes    []string                      `json:"notes,omitempty"`
}

func (r *report) set(name string, value float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// config is what the flags decide for every workload of an invocation.
type config struct {
	seed    int64
	seconds float64
	scale   float64
	quick   bool
	out     string
	update  bool
}

// sizingFor resolves the run length of workload w: -quick runs the
// golden prefix only, -seconds gives a time budget, otherwise the
// workload's fixed pass count scaled by -passes-scale.
func (c config) sizingFor(w workload, share float64) sizing {
	switch {
	case c.quick:
		return sizing{passes: w.quick}
	case c.seconds > 0:
		return sizing{budget: time.Duration(c.seconds * share * float64(time.Second))}
	}
	// The phases of a traced run split a time budget by their shares; of
	// a fixed number of passes each phase runs a quarter.
	if share < 1 {
		share = 0.25
	}
	n := int(float64(w.passes)*c.scale*share + 0.5)
	if n < w.quick {
		n = w.quick
	}
	return sizing{passes: n}
}

// dataDir names a fresh data directory for a persistent workload, inside
// the output directory so nothing is written outside the checkout.
func (c config) dataDir(w workload, i int) string {
	if !w.persist {
		return ""
	}
	return filepath.Join(c.out, fmt.Sprintf("data-%s-%d-%d", w.name, os.Getpid(), i))
}

// setUpMeasured sets the workload up, once or (measured) several times,
// and returns the last instance with the median set-up time.
func setUpMeasured(w workload, c config, measured bool) (*instance, float64, error) {
	g := newGenerator(c.seed, w)
	var in *instance
	var times []float64
	var spent time.Duration
	for i := 0; i == 0 || measured && i < setupRepsMax && (i < setupRepsMin || spent < setupSpend); i++ {
		if in != nil {
			in.close()
		}
		start := time.Now()
		var err error
		if in, err = setUp(w, g, c.dataDir(w, i), w.strategy); err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(start)
		spent += d
		times = append(times, d.Seconds())
	}
	return in, median(times), nil
}

// runUntraced measures the end-to-end metrics of one workload with no
// tracing of any kind: the program's own tracer, slow log and sampling
// stay off (their defaults), and the harness only reads the clock around
// each statement.
func runUntraced(w workload, c config) (*report, error) {
	in, setupS, err := setUpMeasured(w, c, !c.quick)
	if err != nil {
		return nil, err
	}
	defer in.close()
	v, err := newVerifier(w, c.seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	m, _ := in.runPasses(0, c.sizingFor(w, 1), v, in.query)
	in.finish(v)

	r := newReport(w, c, false, m, v)
	r.set("setup_s", setupS)
	r.set("stmts_per_s", ratio(m.stmts(), m.timed.Seconds()))
	r.set("geomean_ms", classGeomean(m.classLat))
	r.set("allocs_per_stmt", ratio(float64(m.mallocs), float64(m.allocStmts)))
	r.set("kb_per_stmt", ratio(float64(m.bytes)/1024, float64(m.allocStmts)))
	return r, c.maybeUpdateGolden(v)
}

func newReport(w workload, c config, traced bool, m measured, v *verifier) *report {
	return &report{Workload: w.name, Seed: c.seed, Traced: traced,
		Attempted: v.attempted, Failed: v.failed, Passes: m.passes, TimedS: m.timed.Seconds(),
		Metrics: map[string]metric{}, Samples: map[string]int{}, Notes: v.notes}
}

// classGeomean is the geometric mean over statement classes of each
// class's median latency, so every class weighs the same however long
// it runs.
func classGeomean(classLat [][]float64) float64 {
	meds := make([]float64, 0, len(classLat))
	for _, lat := range classLat {
		meds = append(meds, median(lat))
	}
	return geomean(meds)
}

// finish completes a run's checks after its last timed pass.
func (in *instance) finish(v *verifier) recovery {
	if !in.w.persist {
		v.finishQueries(in)
		return recovery{}
	}
	rec := in.recoverAndCheck(v)
	v.finishPrefix(in)
	v.finishInput(in)
	return rec
}

// recovery is what reopening a persistent database cost.
type recovery struct {
	open, firstAnswer time.Duration
	commits           int
	io                fsCounts
}

// recoverAndCheck closes the persistent database, reopens it from the
// bytes on disk, times the reopen up to the first answered query, and
// requires every table's digest to equal the image taken before the
// close. On the recovered database it then checks the paper's contract
// on two corpus queries: MAX and PERST agree, and the timeslice of the
// sequenced result equals the current query on that day.
func (in *instance) recoverAndCheck(v *verifier) recovery {
	before := tableDigests(in.db.Engine().Cat)
	if err := in.db.Close(); err != nil {
		v.attempted++
		v.fail("close: %v", err)
	}
	io0 := in.fs.counts()
	start := time.Now()
	db, err := taupsm.OpenFS(in.fs)
	if err != nil {
		v.attempted++
		v.fail("reopen: %v", err)
		return recovery{}
	}
	rec := recovery{open: time.Since(start)}
	in.db = db
	db.SetParallelism(in.w.par)
	db.SetStrategy(in.w.strategy)
	db.Engine().Now = in.clock
	_, err = db.Query(taubench.Queries()[0].Text)
	rec.firstAnswer = time.Since(start)
	rec.io = in.fs.counts().minus(io0)
	if info := db.RecoveryInfo(); info != nil {
		rec.commits = info.Commits
	}
	v.attempted++
	if err != nil {
		v.fail("first query after recovery: %v", err)
	}
	v.compareTables("the image before the close", before, tableDigests(db.Engine().Cat))

	r := &taubench.Runner{DB: db}
	days := taubench.SampleDays(120)
	for _, name := range []string{"q2", "q7"} {
		q, _ := taubench.QueryByName(name)
		v.attempted++
		if err := r.CheckStrategiesAgree(q, days); err != nil {
			v.fail("after recovery: %v", err)
		} else if err := r.CheckCommutativity(q, taupsm.Max, days); err != nil {
			v.fail("after recovery: %v", err)
		}
	}
	db.SetStrategy(in.w.strategy)
	db.Engine().Now = in.clock
	return rec
}

// maybeUpdateGolden rewrites the workload's golden from this run when
// -update-golden is given.
func (c config) maybeUpdateGolden(v *verifier) error {
	if !c.update {
		return nil
	}
	return writeJSON(filepath.Join("bench", goldenPath(v.w.name)), v.got)
}
