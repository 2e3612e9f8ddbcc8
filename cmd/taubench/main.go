// Command taubench regenerates the paper's evaluation artifacts: the
// temporal-context sweeps of Figures 12-13, the scalability experiment
// of Figure 14, the data-characteristics comparison of Figure 15, the
// §VII-B code-expansion accounting, and the §VII-F heuristic
// evaluation.
//
// Usage:
//
//	taubench -exp fig12            # one experiment
//	taubench -exp all              # everything (slow: builds LARGE data)
//	taubench -exp sweep -dataset DS2 -size MEDIUM -queries q2,q7
//	taubench -exp overhead -reps 15
//
// The experiments: fig12, fig13, fig14, fig15 (the figures), loc (the
// §VII-B code expansion), heuristic and classes (the §VII-F evaluation
// and Figure 12's query classes), sweep (one dataset's context sweep,
// optionally for a few queries) and overhead (the tracer's cost on the
// MAX one-month workload: sampling off, off again as the A/A noise
// bound, and every statement sampled). The -slow flag enables a
// slow-query log on stderr for any statement -exp sweep measures over
// the threshold. Performance claims are not measured here but with the
// repository's benchmark (bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"taupsm"
	"taupsm/internal/taubench"
)

func main() {
	exp := flag.String("exp", "fig12", "experiment: fig12, fig13, fig14, fig15, loc, heuristic, classes, sweep, overhead, all")
	dataset := flag.String("dataset", "DS1", "dataset for -exp sweep/overhead: DS1, DS2, DS3")
	sizeFlag := flag.String("size", "SMALL", "size for -exp sweep/overhead: SMALL, MEDIUM, LARGE")
	queriesFlag := flag.String("queries", "", "comma-separated query filter for -exp sweep (default: all)")
	reps := flag.Int("reps", 3, "for -exp overhead: interleaved rounds")
	slow := flag.Duration("slow", 0, "for -exp sweep: log measured statements at least this slow to stderr (0 disables)")
	par := flag.Int("par", 0, "fragment worker-pool size for measured databases (0 = GOMAXPROCS)")
	strategy := flag.String("strategy", "", "restrict the fig12/fig13 context sweeps to one strategy: max, perst (default: both)")
	flag.Parse()
	taubench.Parallelism = *par
	switch strings.ToLower(*strategy) {
	case "", "max", "perst":
		taubench.StrategyFilter = strings.ToLower(*strategy)
	default:
		fmt.Fprintf(os.Stderr, "taubench: unknown -strategy %q (want max or perst)\n", *strategy)
		os.Exit(2)
	}
	if err := run(*exp, *dataset, *sizeFlag, *queriesFlag, *reps, *slow); err != nil {
		fmt.Fprintln(os.Stderr, "taubench:", err)
		os.Exit(1)
	}
}

func parseSize(s string) (taubench.Size, error) {
	switch strings.ToUpper(s) {
	case "SMALL", "S":
		return taubench.Small, nil
	case "MEDIUM", "M":
		return taubench.Medium, nil
	case "LARGE", "L":
		return taubench.Large, nil
	}
	return 0, fmt.Errorf("unknown size %q", s)
}

// newRunner loads the named dataset at the named size.
func newRunner(dataset, sizeFlag string) (*taubench.Runner, error) {
	size, err := parseSize(sizeFlag)
	if err != nil {
		return nil, err
	}
	spec, err := taubench.SpecByName(dataset, size)
	if err != nil {
		return nil, err
	}
	return taubench.NewRunner(spec)
}

func run(exp, dataset, sizeFlag, queriesFlag string, reps int, slow time.Duration) error {
	switch exp {
	case "fig12":
		_, out, err := taubench.Fig12()
		fmt.Print(out)
		return err
	case "fig13":
		_, out, err := taubench.Fig13()
		fmt.Print(out)
		return err
	case "fig14":
		_, out, err := taubench.Fig14()
		fmt.Print(out)
		return err
	case "fig15":
		_, out, err := taubench.Fig15()
		fmt.Print(out)
		return err
	case "loc":
		out, err := taubench.LoCExperiment()
		fmt.Print(out)
		return err
	case "classes":
		ms, _, err := taubench.Fig12()
		if err != nil {
			return err
		}
		match := 0
		total := 0
		for _, q := range taubench.Queries() {
			if q.ClassSmall == "-" {
				continue
			}
			got := taubench.Classify(ms, q.Name)
			total++
			if got == q.ClassSmall {
				match++
			}
			fmt.Printf("%-5s measured=%s paper=%s\n", q.Name, got, q.ClassSmall)
		}
		fmt.Printf("agreement: %d/%d\n", match, total)
		return nil
	case "heuristic":
		return runHeuristic()
	case "sweep":
		r, err := newRunner(dataset, sizeFlag)
		if err != nil {
			return err
		}
		if slow > 0 {
			r.SlowThreshold, r.SlowLog = slow, os.Stderr
		}
		want := map[string]bool{}
		for _, q := range strings.Split(queriesFlag, ",") {
			if q = strings.TrimSpace(q); q != "" {
				want[q] = true
			}
		}
		var ms []taubench.Measurement
		for _, q := range taubench.Queries() {
			if len(want) > 0 && !want[q.Name] {
				continue
			}
			for _, c := range taubench.ContextLengths {
				ms = append(ms, r.RunSequenced(q, taupsm.Max, c))
				ms = append(ms, r.RunSequenced(q, taupsm.PerStatement, c))
			}
		}
		fmt.Printf("%s-%s sweep (rows: %d)\n\n", dataset, r.Stats.Spec.Size, r.Stats.Rows)
		fmt.Print(taubench.FormatTable(ms, func(m taubench.Measurement) string {
			return taubench.ContextLabel(m.Context)
		}))
		return nil
	case "overhead":
		r, err := newRunner(dataset, sizeFlag)
		if err != nil {
			return err
		}
		fmt.Print(r.MeasureOverhead(30, reps))
		return nil
	case "all":
		for _, e := range []string{"loc", "fig12", "fig15", "fig14", "fig13", "heuristic"} {
			fmt.Printf("==================== %s ====================\n", e)
			if err := run(e, dataset, sizeFlag, queriesFlag, reps, slow); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}
	return fmt.Errorf("unknown experiment %q", exp)
}

// runHeuristic replays every figure's measurements through the §VII-F
// heuristic, reproducing the in-text win/error rates.
func runHeuristic() error {
	runners := map[string]*taubench.Runner{}
	getRunner := func(m taubench.Measurement) *taubench.Runner {
		key := m.Dataset + "/" + m.Size.String()
		if r, ok := runners[key]; ok {
			return r
		}
		spec, err := taubench.SpecByName(m.Dataset, m.Size)
		if err != nil {
			panic(err)
		}
		r, err := taubench.NewRunner(spec)
		if err != nil {
			panic(err)
		}
		runners[key] = r
		return r
	}

	var all []taubench.Measurement
	for _, f := range []func() ([]taubench.Measurement, string, error){
		taubench.Fig12, taubench.Fig13, taubench.Fig14, taubench.Fig15,
	} {
		ms, _, err := f()
		if err != nil {
			return err
		}
		all = append(all, ms...)
	}
	points := taubench.CollectHeuristicPoints(all, getRunner)
	fmt.Print(taubench.HeuristicEval(points))
	return nil
}
