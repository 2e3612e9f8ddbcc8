package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"taupsm"
	"taupsm/internal/obs"
	"taupsm/internal/sqlparser"
)

// repl is the interactive shell: statements accumulate until a
// terminating semicolon completes a parseable script, backslash
// commands control the session.
type repl struct {
	db     *taupsm.DB
	out    io.Writer
	timing bool
	lint   bool
	trace  bool
	buf    strings.Builder
}

const replHelp = `Backslash commands:
  \timing [on|off]   toggle printing per-statement elapsed time (ms)
  \trace [on|off]    toggle per-statement trace: trace ID + stage tree
  \slowlog [dur|off] show or set the slow-query log threshold (e.g. 250ms)
  \lint [on|off]     toggle static analysis of each submitted statement
  \metrics [reset]   print the metrics registry, or reset every series
  \stats             print table, routine, and statement statistics
  \strategy [s]      show or set the slicing strategy: auto, max, perst
  \processlist       list in-flight statements with live progress
  \kill <pid>        request cooperative cancellation of a statement
  \checkpoint        compact durable state into a fresh snapshot (-data only)
  \r                 clear the statement buffer
  \help, \?          this help
  \q                 quit
Statements end with ';' and may span lines. EXPLAIN <statement> shows
the translation plan without executing; EXPLAIN ANALYZE <statement>
executes it and annotates the plan with observed timings.
`

// runREPL drives the shell until \q or EOF.
func runREPL(in io.Reader, out io.Writer, db *taupsm.DB) error {
	r := &repl{db: db, out: out}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	r.prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, `\`):
			if quit := r.meta(trimmed); quit {
				return sc.Err()
			}
		case trimmed == "" && r.buf.Len() == 0:
		default:
			r.buf.WriteString(line)
			r.buf.WriteByte('\n')
			if strings.HasSuffix(strings.TrimSpace(r.buf.String()), ";") {
				r.submit()
			}
		}
		r.prompt()
	}
	if strings.TrimSpace(r.buf.String()) != "" {
		r.buf.WriteString(";")
		r.submit()
	}
	return sc.Err()
}

func (r *repl) prompt() {
	if r.buf.Len() == 0 {
		fmt.Fprint(r.out, "taupsm> ")
	} else {
		fmt.Fprint(r.out, "   ...> ")
	}
}

// meta handles a backslash command; it reports whether to quit.
func (r *repl) meta(cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case `\q`, `\quit`:
		return true
	case `\timing`:
		switch {
		case len(fields) > 1 && fields[1] == "on":
			r.timing = true
		case len(fields) > 1 && fields[1] == "off":
			r.timing = false
		default:
			r.timing = !r.timing
		}
		state := "off"
		if r.timing {
			state = "on"
		}
		fmt.Fprintf(r.out, "Timing is %s.\n", state)
	case `\trace`:
		switch {
		case len(fields) > 1 && fields[1] == "on":
			r.trace = true
		case len(fields) > 1 && fields[1] == "off":
			r.trace = false
		default:
			r.trace = !r.trace
		}
		state := "off"
		if r.trace {
			state = "on"
		}
		fmt.Fprintf(r.out, "Trace is %s.\n", state)
	case `\slowlog`:
		if len(fields) > 1 {
			if fields[1] == "off" || fields[1] == "0" {
				r.db.SetSlowLog(nil, 0)
			} else {
				d, err := time.ParseDuration(fields[1])
				if err != nil || d <= 0 {
					fmt.Fprintf(r.out, "error: \\slowlog wants a positive duration (e.g. 250ms) or off, got %q\n", fields[1])
					return false
				}
				r.db.SetSlowLog(r.out, d)
			}
		}
		if min := r.db.SlowLogThreshold(); min > 0 {
			fmt.Fprintf(r.out, "Slow-query log threshold is %s.\n", min)
		} else {
			fmt.Fprintln(r.out, "Slow-query log is off.")
		}
	case `\lint`:
		switch {
		case len(fields) > 1 && fields[1] == "on":
			r.lint = true
		case len(fields) > 1 && fields[1] == "off":
			r.lint = false
		default:
			r.lint = !r.lint
		}
		state := "off"
		if r.lint {
			state = "on"
		}
		fmt.Fprintf(r.out, "Lint is %s.\n", state)
	case `\metrics`:
		if len(fields) > 1 && fields[1] == "reset" {
			r.db.Metrics().Reset()
			fmt.Fprintln(r.out, "Metrics reset.")
			return false
		}
		fmt.Fprint(r.out, r.db.Metrics().String())
	case `\stats`:
		r.printStats()
	case `\strategy`:
		if len(fields) > 1 {
			s, err := parseStrategy(fields[1])
			if err != nil {
				fmt.Fprintf(r.out, "error: %v\n", err)
				return false
			}
			r.db.SetStrategy(s)
		}
		fmt.Fprintf(r.out, "Strategy is %s.\n", r.db.Strategy())
		if note := r.db.LastFallbackNote(); note != "" {
			fmt.Fprintf(r.out, "%s\n", note)
		}
	case `\processlist`:
		r.printProcessList()
	case `\kill`:
		if len(fields) < 2 {
			fmt.Fprintln(r.out, `error: \kill wants a process ID (see \processlist)`)
			return false
		}
		pid, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			fmt.Fprintf(r.out, "error: \\kill wants a numeric process ID, got %q\n", fields[1])
			return false
		}
		if err := r.db.Kill(pid); err != nil {
			fmt.Fprintf(r.out, "error: %v\n", err)
			return false
		}
		fmt.Fprintf(r.out, "Kill requested for process %d.\n", pid)
	case `\checkpoint`:
		if err := r.db.Checkpoint(); err != nil {
			fmt.Fprintf(r.out, "error: %v\n", err)
			return false
		}
		fmt.Fprintln(r.out, "Checkpoint complete.")
	case `\r`, `\reset`:
		r.buf.Reset()
		fmt.Fprintln(r.out, "Statement buffer cleared.")
	case `\help`, `\?`:
		fmt.Fprint(r.out, replHelp)
	default:
		fmt.Fprintf(r.out, "unknown command %s; try \\help\n", fields[0])
	}
	return false
}

// printStats renders the statistics registry snapshot — the same data
// the tau_stat_* system tables and the /statistics endpoint expose —
// as three aligned text sections.
func (r *repl) printStats() {
	snap := r.db.Statistics()
	fmt.Fprintf(r.out, "Tables (%d):\n", len(snap.Tables))
	for _, t := range snap.Tables {
		fmt.Fprintf(r.out, "  %-20s rows=%d periods=%d points=%d ins=%d upd=%d del=%d",
			t.Name, t.RowCount, t.ConstantPeriods, t.DistinctPoints, t.Inserts, t.Updates, t.Deletes)
		if t.Analyzed {
			fmt.Fprintf(r.out, " analyzed(max_overlap=%d)", t.MaxOverlap)
		}
		fmt.Fprintln(r.out)
	}
	fmt.Fprintf(r.out, "Routines (%d):\n", len(snap.Routines))
	for _, p := range snap.Routines {
		fmt.Fprintf(r.out, "  %-20s calls=%d", p.Name, p.Calls)
		if p.TracedCalls > 0 {
			fmt.Fprintf(r.out, " traced=%d mean=%.3fms", p.TracedCalls, float64(p.TracedMeanNS)/1e6)
		}
		fmt.Fprintln(r.out)
	}
	fmt.Fprintf(r.out, "Statements (%d):\n", len(snap.Statements))
	for _, p := range snap.Statements {
		fmt.Fprintf(r.out, "  %s %-10s calls=%d errs=%d mean=%.3fms max=%.3fms",
			p.Digest, p.Kind, p.Calls, p.Errors, float64(p.MeanNS)/1e6, float64(p.MaxNS)/1e6)
		if p.LastStrategy != "" {
			fmt.Fprintf(r.out, " strategy=%s", p.LastStrategy)
		}
		fmt.Fprintf(r.out, "\n    %s\n", p.Text)
	}
}

// printProcessList renders the in-flight statement registry — the
// same snapshots SHOW PROCESSLIST, tau_stat_activity and the
// /processlist endpoint serve. The REPL's own statements finish
// before the prompt returns, so entries here are statements of other
// sessions sharing the DB (or of the telemetry server's clients).
func (r *repl) printProcessList() {
	procs := r.db.ProcessList()
	if len(procs) == 0 {
		fmt.Fprintln(r.out, "No statements in flight.")
		return
	}
	for _, p := range procs {
		fmt.Fprintf(r.out, "  [%d] %-10s %-9s stage=%-9s elapsed=%.1fms", p.ID, p.Kind, p.Strategy, p.Stage, float64(p.ElapsedNS)/1e6)
		if p.CPTotal > 0 {
			fmt.Fprintf(r.out, " periods=%d/%d", p.CPDone, p.CPTotal)
		}
		fmt.Fprintf(r.out, " rows=%d scanned=%d calls=%d", p.Rows, p.RowsScanned, p.RoutineCalls)
		if p.Killed {
			fmt.Fprint(r.out, " KILLED")
		}
		fmt.Fprintf(r.out, "\n      %s\n", p.SQL)
	}
}

// incompleteInput reports a parse error that means "keep reading":
// the statement is syntactically unfinished, not wrong.
func incompleteInput(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "unexpected end of input") ||
		strings.Contains(msg, `found ""`) ||
		strings.Contains(msg, "unterminated")
}

// caret prints the source line a parse error points at, with a caret
// under the offending column.
func (r *repl) caret(src string, line, col int) {
	lines := strings.Split(src, "\n")
	if line < 1 || line > len(lines) || col < 1 {
		return
	}
	text := strings.TrimRight(lines[line-1], "\r")
	fmt.Fprintf(r.out, "  %s\n", text)
	pad := col - 1
	if pad > len(text) {
		pad = len(text)
	}
	fmt.Fprintf(r.out, "  %s^\n", strings.Repeat(" ", pad))
}

// submit parses the buffered input and, when it forms a complete
// script, executes it statement by statement. Errors echo the
// offending statement so multi-statement input pinpoints the failure.
func (r *repl) submit() {
	src := r.buf.String()
	stmts, err := sqlparser.ParseScript(src)
	if err != nil {
		if incompleteInput(err) {
			return // an inner ';' (PSM body); keep buffering
		}
		r.buf.Reset()
		fmt.Fprintf(r.out, "error: %v\nstatement: %s\n", err, strings.TrimSpace(src))
		var perr *sqlparser.Error
		if errors.As(err, &perr) {
			r.caret(src, perr.Pos.Line, perr.Pos.Col)
		}
		return
	}
	r.buf.Reset()
	for _, s := range stmts {
		if r.lint {
			for _, d := range r.db.LintParsed(s) {
				fmt.Fprintf(r.out, "lint: %s\n", d)
				if d.Line > 0 {
					r.caret(src, d.Line, d.Col)
				}
			}
		}
		ctx := context.Background()
		var traceID obs.TraceID
		if r.trace {
			ctx, traceID = r.db.WithTrace(ctx)
		}
		res, err := r.db.ExecParsedContext(ctx, s)
		if err != nil {
			fmt.Fprintf(r.out, "error: %v\nstatement: %s\n", err, s.SQL())
			var lerr *taupsm.LintError
			if errors.As(err, &lerr) {
				for _, d := range lerr.Diagnostics {
					if d.Severity == "error" && d.Line > 0 {
						r.caret(src, d.Line, d.Col)
					}
				}
			}
			return
		}
		for _, d := range res.Warnings {
			fmt.Fprintf(r.out, "warning: %s\n", d)
		}
		if len(res.Columns) > 0 {
			fmt.Fprint(r.out, res.String())
			fmt.Fprintf(r.out, "(%d rows)\n", len(res.Rows))
		} else if res.Affected > 0 {
			fmt.Fprintf(r.out, "(%d rows affected)\n", res.Affected)
		}
		if r.trace && traceID != 0 {
			fmt.Fprintf(r.out, "Trace: %s\n", traceID)
			if tree := obs.FormatTree(r.db.TraceBuffer().TraceSpans(traceID)); tree != "" {
				fmt.Fprint(r.out, tree)
			}
		}
		if r.timing {
			// The statement record's elapsed time: the measurement the
			// stratum.statement root span and the slow log report too,
			// so \timing never disagrees with a trace.
			_, elapsed := r.db.LastStatement()
			fmt.Fprintf(r.out, "Time: %.3f ms\n", float64(elapsed.Nanoseconds())/1e6)
		}
	}
}
