package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runAA is the benchmark's self-check: two sets of untraced runs of the
// same code, each run in a fresh process, the second set in the reverse
// workload order. For every end-to-end metric it prints both values,
// how much worse the second is than the first, and whether that stays
// within the metric's own bound. Any miss (or any failed statement)
// makes the exit status non-zero.
func runAA(ws []workload, c config, stdout, stderr io.Writer) int {
	sets := [2]map[string]driverLine{{}, {}}
	for set := range sets {
		order := append([]workload(nil), ws...)
		if set == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			line, err := runChild(w, c, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s (set %d): %v\n", w.name, set+1, err)
				return 1
			}
			sets[set][w.name] = line
		}
	}
	status := 0
	for _, w := range ws {
		a, b := sets[0][w.name], sets[1][w.name]
		fmt.Fprintf(stdout, "== %s: failed %d of %d, then %d of %d\n", w.name, a.Failed, a.Attempted, b.Failed, b.Attempted)
		if !a.Correct || !b.Correct {
			status = 1
		}
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			worse := ratio(vb-va, va)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "pass"
			if worse > d.Bound {
				verdict = "MISS"
				status = 1
			}
			fmt.Fprintf(stdout, "  %-18s %14.4f %14.4f %-6s worse by %+7.2f%%  bound %4.0f%%  %s\n",
				d.Name, va, vb, d.Unit, 100*worse, 100*d.Bound, verdict)
		}
	}
	return status
}

// runChild runs one workload untraced in a fresh process of this same
// binary and returns the driver line it printed last.
func runChild(w workload, c config, stderr io.Writer) (driverLine, error) {
	self, err := os.Executable()
	if err != nil {
		return driverLine{}, err
	}
	args := []string{"-workload", w.name, "-trace", "0", "-out", c.out,
		"-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"-passes-scale", strconv.FormatFloat(c.scale, 'g', -1, 64)}
	if c.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line driverLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		if runErr != nil {
			return line, runErr
		}
		return line, fmt.Errorf("no result line: %w", err)
	}
	return line, nil
}
