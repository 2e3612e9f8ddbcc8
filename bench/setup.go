package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"taupsm"
	"taupsm/internal/taubench"
	"taupsm/internal/types"
	"taupsm/internal/wal"
)

// instance is one set-up workload: the database under test and what the
// harness needs to drive it.
type instance struct {
	w  workload
	g  *generator
	db *taupsm.DB

	// Persistent workloads only: the timing filesystem over the data
	// directory, and the statement clock (epoch days) the harness
	// advances.
	fs    *timingFS
	dir   string
	clock int64
	// issued counts timed statements, for the clock and checkpoint
	// cadence of oltp-persist.
	issued      int
	checkpoints []time.Duration
	ckptIO      fsCounts

	analyze time.Duration
	// loaded digests the stored tables right after the load, before any
	// generated statement ran: the data half of the input digest.
	loaded map[string]string
}

// oltpEpoch is the first day of oltp-persist's statement clock: after
// every transaction time the bitemporal load recorded, so corrections
// always move forward in transaction time.
var oltpEpoch = types.MustDate(2012, 1, 1)

// setUp builds the workload's database: data, routines, ANALYZE, and one
// untimed warm-up pass. dir is the data directory of a persistent
// workload; with dir empty a persistent workload is built in memory
// (the shadow the prefix is replayed on).
func setUp(w workload, g *generator, dir string, strategy taupsm.Strategy) (*instance, error) {
	in := &instance{w: w, g: g, dir: dir}
	if w.persist && dir != "" {
		dirfs, err := wal.NewDirFS(dir)
		if err != nil {
			return nil, err
		}
		in.fs = newTimingFS(dirfs)
		if in.db, err = taupsm.OpenFS(in.fs); err != nil {
			return nil, err
		}
	} else {
		in.db = taupsm.Open()
	}
	db := in.db
	db.SetNow(2011, 1, 1)
	// Fragment parallelism is set per workload, never left at the
	// library default (GOMAXPROCS).
	db.SetParallelism(w.par)

	if w.persist {
		if err := loadThroughStatements(db, w.spec); err != nil {
			return nil, err
		}
	} else if _, err := taubench.Load(db, w.spec); err != nil {
		return nil, err
	}
	for _, q := range taubench.Queries() {
		if _, err := db.Exec(q.Routines); err != nil {
			return nil, fmt.Errorf("%s routines: %w", q.Name, err)
		}
	}
	start := time.Now()
	if _, err := db.Exec("ANALYZE"); err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	in.analyze = time.Since(start)
	if in.fs != nil {
		if err := db.Checkpoint(); err != nil {
			return nil, err
		}
	}
	if w.persist {
		in.clock = oltpEpoch
		db.Engine().Now = in.clock
	}
	in.loaded = tableDigests(db.Engine().Cat)

	db.SetStrategy(strategy)
	if strategy == taupsm.PerStatement {
		// q17b's non-nested FETCH is the one corpus query per-statement
		// slicing must refuse; it is checked here, not timed.
		q, _ := taubench.QueryByName("q17b")
		if _, err := db.Query(taubench.SequencedSQL(q, 365)); !errors.Is(err, taupsm.ErrNotTransformable) {
			return nil, fmt.Errorf("q17b under PERST: want ErrNotTransformable, got %v", err)
		}
	}
	for _, o := range w.gen(g, warmupPass) {
		if _, err := db.Query(o.sql); err != nil {
			return nil, fmt.Errorf("warm-up %q: %w", o.sql, err)
		}
	}
	return in, nil
}

// loadThroughStatements loads the dataset and the bitemporal position
// table through the statement path, so every row reaches the database
// the way a client's would (and, on a persistent database, through the
// write-ahead log): the τPSM tables as 100-row NONSEQUENCED VALIDTIME
// INSERT batches, bt_position by taubench's own statement-path loader,
// whose sequenced corrections build a real transaction-time history.
func loadThroughStatements(db *taupsm.DB, spec taubench.Spec) error {
	src := taupsm.Open()
	if _, err := taubench.Load(src, spec); err != nil {
		return err
	}
	if _, err := db.Exec(taubench.Schema); err != nil {
		return err
	}
	cat := src.Engine().Cat
	for _, name := range cat.TableNames() {
		rows := cat.Table(name).Rows
		for lo := 0; lo < len(rows); lo += 100 {
			hi := lo + 100
			if hi > len(rows) {
				hi = len(rows)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "NONSEQUENCED VALIDTIME INSERT INTO %s VALUES ", name)
			for i, row := range rows[lo:hi] {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteByte('(')
				for j, v := range row {
					if j > 0 {
						b.WriteString(", ")
					}
					b.WriteString(literal(v))
				}
				b.WriteByte(')')
			}
			if _, err := db.Exec(b.String()); err != nil {
				return fmt.Errorf("load %s: %w", name, err)
			}
		}
	}
	return taubench.LoadBitemporal(db)
}

// literal renders a stored value as the SQL literal that reads back to
// the same value.
func literal(v types.Value) string {
	switch v.Kind {
	case types.KindNull:
		return "NULL"
	case types.KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case types.KindDate:
		return "DATE '" + types.FormatDate(v.I) + "'"
	case types.KindFloat:
		s := strconv.FormatFloat(v.F, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	}
	return v.Text()
}

// beforeStatement applies oltp-persist's cadence ahead of the k-th timed
// statement: the clock advances a day every 250 statements and the log
// is checkpointed every 1,000. It runs inside the statement's timed
// interval, so a checkpoint stall lands on the statement that waited
// for it, as a client would see it.
func (in *instance) beforeStatement() error {
	k := in.issued
	in.issued++
	if !in.w.persist || k == 0 {
		return nil
	}
	if k%oltpClockEvery == 0 {
		in.clock++
		in.db.Engine().Now = in.clock
	}
	if k%oltpCheckpointOps == 0 && in.fs != nil {
		before := in.fs.counts()
		start := time.Now()
		if err := in.db.Checkpoint(); err != nil {
			return err
		}
		in.checkpoints = append(in.checkpoints, time.Since(start))
		in.ckptIO = in.ckptIO.plus(in.fs.counts().minus(before))
	}
	return nil
}

// close releases the database and removes a persistent workload's data
// directory.
func (in *instance) close() {
	in.db.Close()
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}
