package taubench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"taupsm"
	"taupsm/internal/types"
)

// Runner holds a loaded τPSM database ready to execute benchmark
// queries.
type Runner struct {
	DB    *taupsm.DB
	Stats *LoadStats

	// SlowThreshold, when positive and SlowLog is set, logs every
	// sequenced measurement at least this slow to SlowLog.
	SlowThreshold time.Duration
	SlowLog       io.Writer
}

// StrategyFilter restricts which slicing strategies ContextSweep
// (Figures 12 and 13) measures: "max", "perst", or "" for both — the
// taubench -strategy flag.
var StrategyFilter string

// strategyEnabled reports whether the filter admits strategy s.
func strategyEnabled(s taupsm.Strategy) bool {
	switch strings.ToLower(StrategyFilter) {
	case "max":
		return s == taupsm.Max
	case "perst":
		return s == taupsm.PerStatement
	}
	return true
}

// NewRunner creates a database, generates the dataset, installs the
// routines of every benchmark query, and ANALYZEs the stored tables so
// the statistics registry carries interval distributions — the
// stratum's estimate rows read them, exactly as a tuned production
// database would run after bulk load.
func NewRunner(spec Spec) (*Runner, error) {
	db := taupsm.Open()
	db.SetNow(2011, 1, 1) // mid-timeline "now" for current queries
	stats, err := Load(db, spec)
	if err != nil {
		return nil, err
	}
	for _, q := range Queries() {
		if _, err := db.Exec(q.Routines); err != nil {
			return nil, fmt.Errorf("%s routines: %w", q.Name, err)
		}
	}
	if _, err := db.Exec("ANALYZE"); err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	return &Runner{DB: db, Stats: stats}, nil
}

// Contexts used by the paper's Figures 12-13: one day, week, month,
// year.
var ContextLengths = []int{1, 7, 30, 365}

// ContextLabel names a context length as in the paper's x-axes.
func ContextLabel(days int) string {
	switch days {
	case 1:
		return "1d"
	case 7:
		return "1w"
	case 30:
		return "1m"
	case 365:
		return "1y"
	}
	return fmt.Sprintf("%dd", days)
}

// SequencedSQL is the sequenced benchmark statement for one query and
// context length; exported so the stratum's property tests can run the
// exact statements the benchmark measures.
func SequencedSQL(q Query, contextDays int) string { return sequencedSQL(q, contextDays) }

// sequencedSQL builds the VALIDTIME query with an explicit temporal
// context of the given length starting at the timeline start.
func sequencedSQL(q Query, contextDays int) string {
	begin := types.FormatDate(timelineStart)
	end := types.FormatDate(timelineStart + int64(contextDays))
	return fmt.Sprintf("VALIDTIME (DATE '%s', DATE '%s') %s", begin, end, q.Text)
}

// Measurement is one benchmark data point.
type Measurement struct {
	Dataset  string
	Size     Size
	Query    string
	Strategy taupsm.Strategy
	Context  int // days
	Elapsed  time.Duration
	Rows     int
	Calls    int64 // stored-routine invocations
	Err      error // non-nil when the strategy does not apply (q17b/PERST)
}

// RunSequenced executes one sequenced benchmark query under the given
// strategy and context length.
func (r *Runner) RunSequenced(q Query, strategy taupsm.Strategy, contextDays int) Measurement {
	m := Measurement{
		Dataset: r.Stats.Spec.Name, Size: r.Stats.Spec.Size,
		Query: q.Name, Strategy: strategy, Context: contextDays,
	}
	sql := sequencedSQL(q, contextDays)
	r.DB.SetStrategy(strategy)
	defer r.DB.SetStrategy(taupsm.Auto)
	callsBefore := r.DB.Engine().Stats.RoutineCalls
	start := time.Now()
	res, err := r.DB.Query(sql)
	m.Elapsed = time.Since(start)
	m.Calls = r.DB.Engine().Stats.RoutineCalls - callsBefore
	if err != nil {
		m.Err = err
	} else {
		m.Rows = len(res.Rows)
	}
	if r.SlowLog != nil && r.SlowThreshold > 0 && m.Elapsed >= r.SlowThreshold {
		fmt.Fprintln(r.SlowLog, SlowLogLine(m))
	}
	return m
}

// SlowLogLine renders one slow-query log entry; Runner.RunSequenced
// emits it for measurements over the runner's SlowThreshold.
func SlowLogLine(m Measurement) string {
	status := fmt.Sprintf("rows=%d calls=%d", m.Rows, m.Calls)
	if m.Err != nil {
		status = "error=" + m.Err.Error()
	}
	return fmt.Sprintf("slow query: %s/%s %s strategy=%s context=%s elapsed=%s %s",
		m.Dataset, m.Size, m.Query, m.Strategy, ContextLabel(m.Context), m.Elapsed, status)
}

// RunCurrent executes the query's current (unmodified) variant.
func (r *Runner) RunCurrent(q Query) (*taupsm.Result, error) {
	return r.DB.Query(q.Text)
}

// ContextSweep measures every query at every context length under both
// strategies (Figures 12 and 13), or the single one StrategyFilter
// selects.
func (r *Runner) ContextSweep(contexts []int) []Measurement {
	var out []Measurement
	for _, q := range Queries() {
		for _, c := range contexts {
			for _, s := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
				if strategyEnabled(s) {
					out = append(out, r.RunSequenced(q, s, c))
				}
			}
		}
	}
	return out
}

// Classify derives the paper's Figure-12 query classes from a context
// sweep: A = PERST always faster, B = crossover (MAX first), C = MAX
// always faster, D = MAX first and still ahead (or tied) at the longest
// context.
func Classify(ms []Measurement, query string) string {
	type point struct{ max, ps time.Duration }
	byCtx := map[int]*point{}
	var ctxs []int
	for _, m := range ms {
		if m.Query != query || m.Err != nil {
			continue
		}
		p := byCtx[m.Context]
		if p == nil {
			p = &point{}
			byCtx[m.Context] = p
			ctxs = append(ctxs, m.Context)
		}
		if m.Strategy == taupsm.Max {
			p.max = m.Elapsed
		} else {
			p.ps = m.Elapsed
		}
	}
	sort.Ints(ctxs)
	if len(ctxs) == 0 {
		return "-"
	}
	perstWins := make([]bool, len(ctxs))
	complete := true
	for i, c := range ctxs {
		p := byCtx[c]
		if p.max == 0 || p.ps == 0 {
			complete = false
			break
		}
		perstWins[i] = p.ps < p.max
	}
	if !complete {
		return "-"
	}
	allPS, allMax := true, true
	for _, w := range perstWins {
		if w {
			allMax = false
		} else {
			allPS = false
		}
	}
	switch {
	case allPS:
		return "A"
	case allMax:
		return "C"
	case !perstWins[0] && perstWins[len(perstWins)-1]:
		return "B"
	default:
		return "D"
	}
}

// FormatTable renders measurements as the rows of one figure: one line
// per (query, context/size/dataset) with MAX and PERST times side by
// side, mirroring the paper's plots as text.
func FormatTable(ms []Measurement, key func(Measurement) string) string {
	type cell struct{ max, ps Measurement }
	rows := map[string]*cell{}
	var order []string
	for _, m := range ms {
		k := m.Query + "\t" + key(m)
		c := rows[k]
		if c == nil {
			c = &cell{}
			rows[k] = c
			order = append(order, k)
		}
		if m.Strategy == taupsm.Max {
			c.max = m
		} else {
			c.ps = m
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-10s %12s %12s %10s %10s %8s\n",
		"query", "x", "MAX(ms)", "PERST(ms)", "MAXcalls", "PScalls", "winner")
	for _, k := range order {
		c := rows[k]
		parts := strings.SplitN(k, "\t", 2)
		maxMS := float64(c.max.Elapsed.Microseconds()) / 1000
		psMS := float64(c.ps.Elapsed.Microseconds()) / 1000
		winner := "PERST"
		psStr := fmt.Sprintf("%12.2f", psMS)
		if c.ps.Err != nil {
			psStr = fmt.Sprintf("%12s", "n/a")
			winner = "MAX"
		} else if maxMS <= psMS {
			winner = "MAX"
		}
		fmt.Fprintf(&b, "%-6s %-10s %12.2f %s %10d %10d %8s\n",
			parts[0], parts[1], maxMS, psStr, c.max.Calls, c.ps.Calls, winner)
	}
	return b.String()
}
