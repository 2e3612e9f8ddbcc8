package wal

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"taupsm/internal/obs"
	"taupsm/internal/stats"
	"taupsm/internal/storage"
)

// File layout: each checkpoint starts an epoch E holding one complete
// snapshot (snapshot-E.snap) and the log of statements committed since
// it (wal-E.log). A checkpoint writes snapshot-(E+1).tmp, syncs it,
// renames it into place, starts wal-(E+1), and only then deletes epoch
// E — so at every instant the directory holds at least one complete
// recovery line, and recovery simply picks the newest valid one.
const (
	snapPattern = "snapshot-%08d.snap"
	walPattern  = "wal-%08d.log"
	tmpPattern  = "snapshot-%08d.tmp"
)

func snapName(epoch uint64) string { return fmt.Sprintf(snapPattern, epoch) }
func walName(epoch uint64) string  { return fmt.Sprintf(walPattern, epoch) }
func tmpName(epoch uint64) string  { return fmt.Sprintf(tmpPattern, epoch) }

// RecoveryInfo describes what Open reconstructed.
type RecoveryInfo struct {
	// Epoch is the epoch the store now writes at (recovery always
	// checkpoints into a fresh epoch).
	Epoch uint64
	// SnapshotEpoch is the snapshot recovery loaded; 0 means none
	// (empty or brand-new directory).
	SnapshotEpoch uint64
	// Commits and Effects count the WAL tail replayed on top of the
	// snapshot.
	Commits int
	Effects int
	// TornTail reports that the log ended in a torn or corrupt record,
	// which recovery truncated (the expected signature of a crash
	// mid-append).
	TornTail bool
	// Duration is the wall time of recovery including the fresh
	// checkpoint.
	Duration time.Duration
}

// String renders the info for EXPLAIN and logs.
func (ri *RecoveryInfo) String() string {
	s := fmt.Sprintf("epoch %d (snapshot %d, %d commits, %d effects replayed",
		ri.Epoch, ri.SnapshotEpoch, ri.Commits, ri.Effects)
	if ri.TornTail {
		s += ", torn tail truncated"
	}
	return s + ")"
}

// Store is an open write-ahead log: Append durably commits one
// statement's effect batch, Checkpoint compacts the log into a fresh
// snapshot epoch, Close ends the session. A Store is safe for
// concurrent use; callers serialize writers at the statement level
// exactly as they do for the in-memory catalog.
type Store struct {
	fs    FS
	cat   *storage.Catalog
	stats *stats.Registry

	mu       sync.Mutex
	epoch    uint64
	wal      File
	walBytes int64
	failed   bool
	closed   bool

	m walMetrics
}

type walMetrics struct {
	appends    *obs.Counter
	bytes      *obs.Counter
	effects    *obs.Counter
	fsyncs     *obs.Counter
	snapshots  *obs.Counter
	tornTails  *obs.Counter
	fsyncNS    *obs.Histogram
	epoch      *obs.Gauge
	walBytes   *obs.Gauge
	snapBytes  *obs.Gauge
	recNS      *obs.Gauge
	recCommits *obs.Gauge
	recEffects *obs.Gauge
}

func newWalMetrics(m *obs.Metrics) walMetrics {
	return walMetrics{
		appends:    m.Counter("wal.appends_total"),
		bytes:      m.Counter("wal.append_bytes_total"),
		effects:    m.Counter("wal.effects_total"),
		fsyncs:     m.Counter("wal.fsyncs_total"),
		snapshots:  m.Counter("wal.snapshots_total"),
		tornTails:  m.Counter("wal.torn_tails_total"),
		fsyncNS:    m.Histogram("wal.fsync_ns"),
		epoch:      m.Gauge("wal.epoch"),
		walBytes:   m.Gauge("wal.bytes"),
		snapBytes:  m.Gauge("wal.snapshot_bytes"),
		recNS:      m.Gauge("wal.recovery_ns"),
		recCommits: m.Gauge("wal.recovery_commits"),
		recEffects: m.Gauge("wal.recovery_effects"),
	}
}

// Open recovers the newest valid snapshot plus its WAL tail from fs
// into a catalog, then checkpoints that catalog into a fresh epoch and
// returns the live store. A torn log tail (crash mid-append) is
// truncated; a torn snapshot (crash mid-checkpoint) falls back to the
// previous epoch; genuine I/O failures abort the open so transient
// faults are never misread as data loss. Metrics land in m (optional).
func Open(fs FS, m *obs.Metrics) (*Store, *storage.Catalog, *RecoveryInfo, error) {
	if m == nil {
		m = obs.NewMetrics()
	}
	st := &Store{fs: fs, stats: stats.NewRegistry(), m: newWalMetrics(m)}
	start := time.Now()

	names, err := fs.List()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: list: %w", err)
	}
	snaps, wals, maxEpoch := classify(names)

	info := &RecoveryInfo{}
	var cat *storage.Catalog
	for i := len(snaps) - 1; i >= 0 && cat == nil; i-- {
		epoch := snaps[i]
		f, ferr := fs.Open(snapName(epoch))
		if ferr != nil {
			return nil, nil, nil, fmt.Errorf("wal: open snapshot: %w", ferr)
		}
		c, ps, e, rerr := readSnapshot(f)
		f.Close()
		switch {
		case rerr == nil && e == epoch:
			cat = c
			st.stats.Install(ps)
			info.SnapshotEpoch = epoch
		case rerr == nil || errors.Is(rerr, ErrCorrupt):
			// Invalid or mislabeled snapshot: fall back to an older one.
		default:
			return nil, nil, nil, fmt.Errorf("wal: read snapshot %d: %w", epoch, rerr)
		}
	}
	if cat == nil {
		cat = storage.NewCatalog()
	}

	if wals[info.SnapshotEpoch] {
		if err := st.replay(cat, info); err != nil {
			return nil, nil, nil, err
		}
	}
	if info.TornTail {
		st.m.tornTails.Inc()
	}

	if err := st.checkpointLocked(cat, maxEpoch+1); err != nil {
		return nil, nil, nil, fmt.Errorf("wal: recovery checkpoint: %w", err)
	}
	st.cat = cat
	info.Epoch = st.epoch
	info.Duration = time.Since(start)
	st.m.recNS.Set(info.Duration.Nanoseconds())
	st.m.recCommits.Set(int64(info.Commits))
	st.m.recEffects.Set(int64(info.Effects))
	return st, cat, info, nil
}

// classify parses the directory listing into snapshot epochs
// (ascending), wal epochs, and the highest epoch mentioned anywhere.
func classify(names []string) (snaps []uint64, wals map[uint64]bool, maxEpoch uint64) {
	wals = map[uint64]bool{}
	for _, name := range names {
		var epoch uint64
		switch {
		case matchName(name, snapPattern, &epoch):
			snaps = append(snaps, epoch)
		case matchName(name, walPattern, &epoch):
			wals[epoch] = true
		case matchName(name, tmpPattern, &epoch):
		default:
			continue
		}
		if epoch > maxEpoch {
			maxEpoch = epoch
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return snaps, wals, maxEpoch
}

func matchName(name, pattern string, epoch *uint64) bool {
	var e uint64
	if n, err := fmt.Sscanf(name, pattern, &e); err != nil || n != 1 {
		return false
	}
	if fmt.Sprintf(pattern, e) != name {
		return false
	}
	*epoch = e
	return true
}

// replay applies the WAL tail of the recovered snapshot's epoch onto
// cat, truncating at the first torn or corrupt record.
func (st *Store) replay(cat *storage.Catalog, info *RecoveryInfo) error {
	f, err := st.fs.Open(walName(info.SnapshotEpoch))
	if err != nil {
		return fmt.Errorf("wal: open log: %w", err)
	}
	defer f.Close()

	payload, err := readRecord(f)
	switch {
	case err == nil:
		if epoch, herr := decodeHeader(payload, recHeader, logMagic); herr != nil || epoch != info.SnapshotEpoch {
			info.TornTail = true
			return nil
		}
	case errors.Is(err, io.EOF):
		return nil // empty log: created but never written
	case tornTail(err):
		info.TornTail = true
		return nil
	default:
		return fmt.Errorf("wal: read log: %w", err)
	}

	for {
		payload, err := readRecord(f)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if tornTail(err) {
			info.TornTail = true
			return nil
		}
		if err != nil {
			return fmt.Errorf("wal: read log: %w", err)
		}
		effects, derr := DecodeCommit(payload)
		if derr != nil {
			info.TornTail = true
			return nil
		}
		if aerr := st.replayCommit(cat, effects); aerr != nil {
			// A checksum-valid record that does not apply cannot be a
			// torn write; the log contradicts the snapshot.
			return fmt.Errorf("wal: replay: %w", aerr)
		}
		info.Commits++
		info.Effects += len(effects)
	}
}

// replayCommit applies one replayed commit to cat and folds it into the
// statistics, by the same function that folded it when it committed.
func (st *Store) replayCommit(cat *storage.Catalog, effects []storage.Effect) error {
	if err := applyAll(cat, effects); err != nil {
		return err
	}
	st.stats.FoldAll(cat, effects)
	return nil
}

// AppendStats reports what one successful Append cost: the bytes the
// record added to the log and the duration of its fsync. The stratum
// feeds them into EXPLAIN ANALYZE and the slow-query log, per
// statement, without racing other sessions' metric deltas.
type AppendStats struct {
	Bytes int64
	Fsync time.Duration
}

// Append durably commits one statement's effect batch: one framed,
// checksummed record, written and fsynced before return. On any write
// or sync failure the log position is indeterminate, so the store
// refuses further appends until a checkpoint starts a fresh file; the
// caller rolls the statement back in memory, keeping memory and disk
// in agreement.
func (st *Store) Append(effects []storage.Effect) error {
	_, err := st.AppendTraced(effects, nil, obs.SpanContext{})
	return err
}

// AppendTraced is Append with per-call observability: it returns the
// commit's AppendStats and, when tr is non-nil, emits a "wal.fsync"
// span under parent covering the log sync.
func (st *Store) AppendTraced(effects []storage.Effect, tr obs.Tracer, parent obs.SpanContext) (AppendStats, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return AppendStats{}, errors.New("wal: store is closed")
	}
	if st.failed {
		return AppendStats{}, errors.New("wal: log write failed; checkpoint to resume")
	}
	payload, err := encodeCommit(effects)
	if err != nil {
		return AppendStats{}, err
	}
	n, err := writeRecord(st.wal, payload)
	if err != nil {
		st.failed = true
		return AppendStats{}, fmt.Errorf("wal: append: %w", err)
	}
	start := time.Now()
	serr := st.wal.Sync()
	fsyncDur := time.Since(start)
	st.m.fsyncNS.Record(fsyncDur)
	st.m.fsyncs.Inc()
	if tr != nil {
		tr.Span(obs.Span{Name: "wal.fsync", Start: start, Dur: fsyncDur,
			Trace: parent.Trace, ID: obs.NewSpanID(), Parent: parent.Span})
	}
	if serr != nil {
		st.failed = true
		return AppendStats{}, fmt.Errorf("wal: fsync: %w", serr)
	}
	st.walBytes += int64(n)
	st.m.appends.Inc()
	st.m.bytes.Add(int64(n))
	st.m.effects.Add(int64(len(effects)))
	st.m.walBytes.Set(st.walBytes)
	return AppendStats{Bytes: int64(n), Fsync: fsyncDur}, nil
}

// Checkpoint compacts the store: it snapshots the current catalog into
// a new epoch, starts an empty log, and deletes the old epoch's files.
// Recovery cost then restarts from zero. Also the way out of a failed
// log (see Append).
func (st *Store) Checkpoint() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return errors.New("wal: store is closed")
	}
	return st.checkpointLocked(st.cat, st.epoch+1)
}

// checkpointLocked writes epoch's snapshot and fresh log, swaps them
// in, and cleans up older epochs. Crash ordering: the snapshot is
// complete and durable (tmp → sync → rename → dir sync) before the new
// log exists, the log and its directory entry are durable (create →
// sync → dir sync) before any commit lands in it, and both files exist
// before anything old is removed.
func (st *Store) checkpointLocked(cat *storage.Catalog, epoch uint64) error {
	tmp := tmpName(epoch)
	f, err := st.fs.Create(tmp)
	if err != nil {
		return err
	}
	nbytes, err := writeSnapshot(f, cat, st.stats.Persist(), epoch)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// From the rename on, the new snapshot may be durable; recovery then
	// prefers it and never replays the old epoch's log. Any failure past
	// this point therefore poisons the store (failed=true): appending to
	// the old log would acknowledge commits that the next Open silently
	// drops. Append refuses until a checkpoint completes and
	// re-establishes a consistent epoch.
	if err := st.fs.Rename(tmp, snapName(epoch)); err != nil {
		st.failed = true
		return err
	}
	if err := st.fs.SyncDir(); err != nil {
		st.failed = true
		return err
	}

	wf, err := st.fs.Create(walName(epoch))
	if err != nil {
		st.failed = true
		return err
	}
	hn, err := writeRecord(wf, encodeHeader(recHeader, logMagic, epoch))
	if err != nil {
		wf.Close()
		st.failed = true
		return err
	}
	if err := wf.Sync(); err != nil {
		wf.Close()
		st.failed = true
		return err
	}
	// The new log's directory entry must be durable before any commit is
	// acknowledged against it: a file fsync does not persist the dirent,
	// and a crash that erased wal-(epoch) while keeping snapshot-(epoch)
	// would drop every acknowledged commit of the epoch.
	if err := st.fs.SyncDir(); err != nil {
		wf.Close()
		st.failed = true
		return err
	}

	if st.wal != nil {
		st.wal.Close()
	}
	st.wal = wf
	st.epoch = epoch
	st.walBytes = int64(hn)
	st.failed = false
	st.m.snapshots.Inc()
	st.m.snapBytes.Set(nbytes)
	st.m.epoch.Set(int64(epoch))
	st.m.walBytes.Set(st.walBytes)

	// Older epochs and stale temporaries are now garbage; removal is
	// best-effort (a failure here costs disk, not correctness).
	if names, lerr := st.fs.List(); lerr == nil {
		for _, name := range names {
			var e uint64
			switch {
			case matchName(name, snapPattern, &e), matchName(name, walPattern, &e):
				if e != epoch {
					_ = st.fs.Remove(name)
				}
			case matchName(name, tmpPattern, &e):
				_ = st.fs.Remove(name)
			}
		}
	}
	return nil
}

// Stats returns the statistics registry the store recovered and
// persists at each checkpoint. The engine adopts it as its live
// registry, into which every committed statement is folded.
func (st *Store) Stats() *stats.Registry { return st.stats }

// Epoch returns the current checkpoint epoch.
func (st *Store) Epoch() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.epoch
}

// Bytes returns the current log size in bytes (header included).
func (st *Store) Bytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.walBytes
}

// Failed reports whether the store is poisoned: a checkpoint failed
// partway, so Append refuses every batch until a checkpoint succeeds.
// Health endpoints surface this state instead of a silent write-stall.
func (st *Store) Failed() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.failed
}

// Close ends the store session. Appended records are already durable
// (every Append fsyncs), so closing only releases the log file.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	if st.wal != nil {
		return st.wal.Close()
	}
	return nil
}
