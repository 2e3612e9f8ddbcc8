// Command taupsm is the Temporal SQL/PSM front end: it translates
// Temporal SQL/PSM to conventional SQL/PSM (the stratum as a filter)
// or executes a script against an in-memory temporal database.
//
// Usage:
//
//	taupsm -mode exec script.sql          # run a script, print results
//	taupsm -mode translate -strategy max query.sql
//	taupsm -mode translate -strategy perst -          # read stdin
//	taupsm -mode repl                     # interactive shell
//	taupsm -mode repl -data ./db          # persistent database in ./db
//	taupsm vet [-json] [-Werror] script.sql ...   # static analysis, no execution
//
// In exec mode every statement is translated by the stratum and run;
// results of queries are printed as text tables. In translate mode the
// final statement of the input is translated and the conventional
// SQL/PSM is printed without executing it; earlier statements (DDL,
// routine definitions) are executed to build the schema the translator
// needs. The repl mode reads statements interactively and adds
// backslash commands (\timing, \metrics, \strategy, \help).
//
// With -data the database persists in the named directory: committed
// statements are written to a write-ahead log, and a later invocation
// with the same -data recovers the full catalog before running.
//
// With -telemetry ADDR an HTTP telemetry server runs for the life of
// the process: Prometheus-format /metrics (registry plus process
// self-metrics), /statistics (data & workload statistics as JSON),
// /traces (sampled span trees, see -sample), /healthz, and
// /debug/pprof. -slowlog DUR logs every statement at or above the
// threshold as one JSON line on stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"

	"taupsm"
	"taupsm/internal/obs/httpexport"
	"taupsm/internal/sqlparser"
)

func main() {
	if len(os.Args) >= 2 && os.Args[1] == "vet" {
		os.Exit(runVet(os.Args[2:], os.Stdout))
	}
	mode := flag.String("mode", "exec", "exec, translate, or repl")
	strategy := flag.String("strategy", "auto", "sequenced slicing strategy: auto, max, perst")
	now := flag.String("now", "", "fix CURRENT_DATE (YYYY-MM-DD)")
	data := flag.String("data", "", "data directory for a persistent database (default in-memory)")
	telemetry := flag.String("telemetry", "", "serve /metrics, /traces, /healthz, /debug/pprof on this address (e.g. :9090)")
	sample := flag.Int("sample", 0, "trace every Nth statement into the span buffer (0 = off, 1 = all)")
	slowlog := flag.Duration("slowlog", 0, "log statements at or above this duration as JSON lines on stderr (0 = off)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Printf("taupsm %s %s %s/%s\n", taupsm.Version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return
	}
	if *mode != "repl" && flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: taupsm [-mode exec|translate|repl] [-strategy auto|max|perst] [-data dir] [-telemetry addr] <file.sql | ->")
		os.Exit(2)
	}
	db, err := newDB(*strategy, *now, *data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "taupsm:", err)
		os.Exit(1)
	}
	db.SetTraceSampling(*sample)
	if *slowlog > 0 {
		db.SetSlowLog(os.Stderr, *slowlog)
	}
	if *telemetry != "" {
		stop, terr := serveTelemetry(db, *telemetry)
		if terr != nil {
			db.Close()
			fmt.Fprintln(os.Stderr, "taupsm:", terr)
			os.Exit(1)
		}
		defer stop()
	}

	if *mode == "repl" {
		err = runREPL(os.Stdin, os.Stdout, db)
	} else {
		err = runScript(db, *mode, flag.Arg(0))
	}
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "taupsm:", err)
		os.Exit(1)
	}
}

// serveTelemetry starts the HTTP telemetry endpoint for db on addr,
// returning a shutdown function. The bound address is announced on
// stderr so scripts can scrape ":0" listeners.
func serveTelemetry(db *taupsm.DB, addr string) (func(), error) {
	srv := &httpexport.Server{
		Metrics:    db.Metrics(),
		Ring:       db.TraceBuffer(),
		Statistics: func() any { return db.Statistics() },
		Processes:  func() any { return db.ProcessList() },
		Healthz:    db.Health,
		BuildInfo:  taupsm.BuildInfo(),
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	fmt.Fprintf(os.Stderr, "taupsm: telemetry listening on http://%s\n", lis.Addr())
	go http.Serve(lis, srv.Handler())
	return func() { lis.Close() }, nil
}

func parseStrategy(s string) (taupsm.Strategy, error) {
	switch strings.ToLower(s) {
	case "auto":
		return taupsm.Auto, nil
	case "max":
		return taupsm.Max, nil
	case "perst", "per-statement", "ps":
		return taupsm.PerStatement, nil
	}
	return taupsm.Auto, fmt.Errorf("unknown strategy %q", s)
}

// newDB opens a database configured by the -strategy, -now, and -data
// flags: in-memory by default, persistent when -data names a directory.
func newDB(strategyFlag, now, data string) (*taupsm.DB, error) {
	strategy, err := parseStrategy(strategyFlag)
	if err != nil {
		return nil, err
	}
	var db *taupsm.DB
	if data != "" {
		db, err = taupsm.OpenDir(data)
		if err != nil {
			return nil, err
		}
	} else {
		db = taupsm.Open()
	}
	db.SetStrategy(strategy)
	if now != "" {
		var y, m, d int
		if _, err := fmt.Sscanf(now, "%d-%d-%d", &y, &m, &d); err != nil {
			db.Close()
			return nil, fmt.Errorf("invalid -now %q: %w", now, err)
		}
		db.SetNow(y, m, d)
	}
	return db, nil
}

// runScript reads and executes (or translates) one script file on an
// already-configured database.
func runScript(db *taupsm.DB, mode, path string) error {
	var src []byte
	var err error
	if path == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}

	stmts, err := sqlparser.ParseScript(string(src))
	if err != nil {
		return err
	}
	if len(stmts) == 0 {
		return fmt.Errorf("no statements in input")
	}

	switch mode {
	case "exec":
		for _, s := range stmts {
			res, err := db.ExecParsed(s)
			if err != nil {
				return fmt.Errorf("%w\n  statement: %s", err, s.SQL())
			}
			if len(res.Columns) > 0 {
				fmt.Println(res.String())
			}
		}
		return nil
	case "translate":
		for _, s := range stmts[:len(stmts)-1] {
			if _, err := db.ExecParsed(s); err != nil {
				return fmt.Errorf("%w\n  statement: %s", err, s.SQL())
			}
		}
		last := stmts[len(stmts)-1]
		t, err := db.TranslateStmt(last, db.Strategy())
		if err != nil {
			return fmt.Errorf("%w\n  statement: %s", err, last.SQL())
		}
		fmt.Printf("-- strategy: %s\n%s", t.Strategy, t.SQL())
		return nil
	}
	return fmt.Errorf("unknown mode %q", mode)
}
