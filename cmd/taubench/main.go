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
//	taubench -exp report -reps 5 -json BENCH_1.json
//	taubench -compare old.json new.json   # per-cell delta report
//
// The compare mode diffs two benchmark artifacts (either the latency
// reports of -exp report or the observability reports of
// -exp obsreport) cell by cell and exits non-zero when any cell is
// slower than -threshold percent — the CI regression gate.
//
// The report experiment emits the structured benchmark artifact:
// median/p95 latencies plus the fragment and constant-period counts of
// every query × strategy × context cell, as JSON. The obsreport
// experiment emits the observability artifact instead: per-query
// span-stage breakdowns from EXPLAIN ANALYZE plus the tracer-overhead
// comparison (sampling off vs. every statement sampled) on the MAX
// one-month workload. The -slow flag enables a slow-query log on
// stderr for any measured statement over the threshold (it applies to
// sweep and report).
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
	exp := flag.String("exp", "fig12", "experiment: fig12, fig13, fig14, fig15, loc, heuristic, classes, sweep, report, obsreport, all")
	dataset := flag.String("dataset", "DS1", "dataset for -exp sweep/report: DS1, DS2, DS3")
	sizeFlag := flag.String("size", "SMALL", "size for -exp sweep/report: SMALL, MEDIUM, LARGE")
	queriesFlag := flag.String("queries", "", "comma-separated query filter for -exp sweep (default: all)")
	jsonPath := flag.String("json", "", "for -exp report: write JSON to this file instead of stdout")
	reps := flag.Int("reps", 3, "for -exp report: repetitions per cell")
	slow := flag.Duration("slow", 0, "log measured statements at least this slow to stderr (0 disables)")
	par := flag.Int("par", 0, "fragment worker-pool size for measured databases (0 = GOMAXPROCS)")
	strategy := flag.String("strategy", "", "restrict sweep/report/obsreport to one strategy: max, perst (default: both)")
	workload := flag.String("workload", "", "measure a named workload instead of an experiment: BT-SMALL (bitemporal audit queries, BENCH_5)")
	compare := flag.Bool("compare", false, "compare two benchmark artifacts: taubench -compare old.json new.json")
	threshold := flag.Float64("threshold", 25, "for -compare: per-cell regression threshold in percent")
	geoThreshold := flag.Float64("geomean-threshold", 0, "for -compare: fail when the MAX-strategy geomean regresses past this percent (0 disables; -strategy perst gates PERST instead)")
	flag.Parse()
	taubench.Parallelism = *par
	switch strings.ToLower(*strategy) {
	case "", "max", "perst":
		taubench.StrategyFilter = strings.ToLower(*strategy)
	default:
		fmt.Fprintf(os.Stderr, "taubench: unknown -strategy %q (want max or perst)\n", *strategy)
		os.Exit(2)
	}

	if *compare {
		gateStrategy := "MAX"
		if taubench.StrategyFilter == "perst" {
			gateStrategy = "PERST"
		}
		os.Exit(runCompare(flag.Args(), *threshold, *geoThreshold, gateStrategy))
	}
	if *workload != "" {
		if err := runWorkload(*workload, *jsonPath, *reps); err != nil {
			fmt.Fprintln(os.Stderr, "taubench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*exp, *dataset, *sizeFlag, *queriesFlag, *jsonPath, *reps, *slow); err != nil {
		fmt.Fprintln(os.Stderr, "taubench:", err)
		os.Exit(1)
	}
}

// runWorkload measures a named workload (currently only the BT-SMALL
// bitemporal audit workload) and writes the artifact: JSON when -json
// is given (BENCH_5.json), a table on stdout otherwise.
func runWorkload(name, jsonPath string, reps int) error {
	if !strings.EqualFold(name, "BT-SMALL") {
		return fmt.Errorf("unknown workload %q (want BT-SMALL)", name)
	}
	rep, err := taubench.MeasureBitemporal(reps)
	if err != nil {
		return err
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(os.Stderr, "taubench: wrote %s (%d cells)\n", jsonPath, len(rep.Queries))
		return rep.WriteJSON(f)
	}
	rep.Write(os.Stdout)
	return nil
}

// runCompare diffs two benchmark artifacts and returns the process
// exit code: 0 when neither gate tripped, 1 when a cell regressed past
// -threshold or the gate strategy's geomean regressed past
// -geomean-threshold, 2 on usage or parse errors. The per-cell gate
// catches a single query falling off a cliff; the geomean gate catches
// a broad slowdown that no single (noisy) cell exceeds on its own.
func runCompare(args []string, threshold, geoThreshold float64, gateStrategy string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: taubench -compare [-threshold pct] [-geomean-threshold pct] old.json new.json")
		return 2
	}
	oldJSON, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "taubench:", err)
		return 2
	}
	newJSON, err := os.ReadFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "taubench:", err)
		return 2
	}
	cmp, err := taubench.Compare(oldJSON, newJSON, threshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, "taubench:", err)
		return 2
	}
	cmp.Write(os.Stdout)
	code := 0
	if len(cmp.Regressions()) > 0 {
		code = 1
	}
	if geoThreshold > 0 {
		factor, n := cmp.GeomeanSpeedup(gateStrategy)
		if n > 0 {
			regressPct := 100 * (1/factor - 1)
			if regressPct > geoThreshold {
				fmt.Printf("GEOMEAN REGRESSION: %s %.1f%% slower than baseline (threshold %.0f%%, %d cells)\n",
					gateStrategy, regressPct, geoThreshold, n)
				code = 1
			} else {
				fmt.Printf("geomean gate ok: %s within %.0f%% of baseline (%d cells)\n",
					gateStrategy, geoThreshold, n)
			}
		}
	}
	return code
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

func run(exp, dataset, sizeFlag, queriesFlag, jsonPath string, reps int, slow time.Duration) error {
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
		size, err := parseSize(sizeFlag)
		if err != nil {
			return err
		}
		spec, err := taubench.SpecByName(dataset, size)
		if err != nil {
			return err
		}
		r, err := taubench.NewRunner(spec)
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
		fmt.Printf("%s-%s sweep (rows: %d)\n\n", dataset, size, r.Stats.Rows)
		fmt.Print(taubench.FormatTable(ms, func(m taubench.Measurement) string {
			return taubench.ContextLabel(m.Context)
		}))
		return nil
	case "report":
		size, err := parseSize(sizeFlag)
		if err != nil {
			return err
		}
		spec, err := taubench.SpecByName(dataset, size)
		if err != nil {
			return err
		}
		r, err := taubench.NewRunner(spec)
		if err != nil {
			return err
		}
		if slow > 0 {
			r.SlowThreshold, r.SlowLog = slow, os.Stderr
		}
		rep := r.BuildReport(taubench.ContextLengths, reps)
		out := os.Stdout
		if jsonPath != "" {
			f, err := os.Create(jsonPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
			fmt.Fprintf(os.Stderr, "taubench: wrote %s (%d cells)\n", jsonPath, len(rep.Queries))
		}
		return rep.WriteJSON(out)
	case "obsreport":
		size, err := parseSize(sizeFlag)
		if err != nil {
			return err
		}
		spec, err := taubench.SpecByName(dataset, size)
		if err != nil {
			return err
		}
		r, err := taubench.NewRunner(spec)
		if err != nil {
			return err
		}
		rep := r.BuildObsReport(taubench.ContextLengths, reps)
		out := os.Stdout
		if jsonPath != "" {
			f, err := os.Create(jsonPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
			fmt.Fprintf(os.Stderr, "taubench: wrote %s (%d stage cells)\n", jsonPath, len(rep.Stages))
		}
		return rep.WriteJSON(out)
	case "all":
		for _, e := range []string{"loc", "fig12", "fig15", "fig14", "fig13", "heuristic"} {
			fmt.Printf("==================== %s ====================\n", e)
			if err := run(e, dataset, sizeFlag, queriesFlag, "", reps, slow); err != nil {
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
