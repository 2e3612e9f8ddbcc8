// Command bench is the repository's benchmark: five named workloads over
// the temporal stratum, each measured end to end with tracing off and,
// in a separate traced run, layer by layer, with every statement's
// result checked against committed goldens. README.md in this directory
// describes the workloads, the metrics and how they interact;
// BENCHMARK.json at the root of the repository is the contract a driver
// runs it by.
//
//	go run ./bench                                  every workload, untraced then traced
//	go run ./bench -workload cold-auto-1d -trace 0  one workload, end-to-end metrics only
//	go run ./bench -aa                              two sets of runs of the same code, compared
//	go run ./bench -workload W -seed N -seconds S -trace 0|1   (the driver's form)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the JSON artifact of one invocation (-json).
type result struct {
	Commit     string    `json:"commit"`
	NProc      int       `json:"nproc"`
	GoMaxProcs int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Reports    []*report `json:"reports"`
}

// driverLine is the last line of standard output when one workload ran
// in one mode: the object a driver reads.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all five)")
	seed := fs.Int64("seed", goldenSeed, "seed of the workload generator; the program sees only the generated SQL")
	seconds := fs.Float64("seconds", 0, "time budget of the timed region; 0 runs each workload's fixed number of passes")
	scale := fs.Float64("passes-scale", 1, "multiplier on the fixed number of passes (with -seconds 0)")
	trace := fs.String("trace", "", "0: untraced run only, 1: traced run only (default: untraced, then traced)")
	quick := fs.Bool("quick", false, "smoke run: the golden prefix only (1 pass, or 200 statements of oltp-persist)")
	out := fs.String("out", ".bench_build", "directory for trace-<workload>.json and the persistent workload's data")
	jsonPath := fs.String("json", "", "also write the full result as JSON to this file")
	aa := fs.Bool("aa", false, "run the untraced set twice in fresh processes and compare each metric against its bound")
	update := fs.Bool("update-golden", false, "rewrite bench/golden from this run (run from the repository root)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	// The load model pins the scheduler to two processors whatever the
	// machine has, so counts and the parallel workload mean the same
	// thing everywhere.
	runtime.GOMAXPROCS(2)

	ws := workloads()
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		ws = []workload{w}
	}
	var modes []bool // traced?
	switch *trace {
	case "":
		modes = []bool{false, true}
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	default:
		fmt.Fprintf(stderr, "bench: -trace wants 0 or 1, got %q\n", *trace)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	c := config{seed: *seed, seconds: *seconds, scale: *scale, quick: *quick, out: *out, update: *update}
	if *aa {
		return runAA(ws, c, stdout, stderr)
	}

	res := result{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	failed := false
	for _, traced := range modes {
		for _, w := range ws {
			measure := runUntraced
			if traced {
				measure = runTraced
			}
			r, err := measure(w, c)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			res.Reports = append(res.Reports, r)
			printReport(stdout, r)
			failed = failed || r.Failed > 0
		}
	}
	if *jsonPath != "" {
		res.Commit = commit()
		if err := writeJSON(*jsonPath, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if len(res.Reports) == 1 {
		r := res.Reports[0]
		line, _ := json.Marshal(driverLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
		fmt.Fprintln(stdout, string(line))
	}
	if failed {
		return 1
	}
	return 0
}

// printReport prints every metric of one run by name, with its unit.
func printReport(w io.Writer, r *report) {
	mode, defs := "untraced", endToEnd
	if r.Traced {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "== %s (seed %d, %s): %d passes, %.2f s timed, failed %d of %d (failed_frac %g)\n",
		r.Workload, r.Seed, mode, r.Passes, r.TimedS, r.Failed, r.Attempted, ratio(float64(r.Failed), float64(r.Attempted)))
	for _, d := range defs {
		m := r.Metrics[d.Name]
		samples := ""
		if n, ok := r.Samples[d.Name]; ok {
			samples = fmt.Sprintf("  (%d samples)", n)
		}
		fmt.Fprintf(w, "  %-30s %14.4f %s%s\n", d.Name, m.Value, m.Unit, samples)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit names the checked-out revision, when the benchmark runs inside
// a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
