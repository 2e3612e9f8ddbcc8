package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// dumpCatalog renders a catalog deterministically so tests can compare
// recovered state against a reference.
func dumpCatalog(cat *storage.Catalog) string {
	var b strings.Builder
	tables := cat.TableNames()
	sort.Strings(tables)
	for _, name := range tables {
		t := cat.Table(name)
		fmt.Fprintf(&b, "table %s valid=%v trans=%v cols=%v\n", t.Name, t.ValidTime, t.TransactionTime, t.Schema.Cols)
		for _, row := range t.Rows {
			fmt.Fprintf(&b, "  %v\n", row)
		}
	}
	views := cat.ViewNames()
	sort.Strings(views)
	for _, name := range views {
		fmt.Fprintf(&b, "view %s: %s\n", name, renderViewSQL(cat.View(name)))
	}
	routines := cat.RoutineNames()
	sort.Strings(routines)
	for _, name := range routines {
		fmt.Fprintf(&b, "routine %s: %s\n", name, cat.Routine(name).SQL())
	}
	return b.String()
}

// testCatalog builds a catalog exercising every effect kind and value
// kind the log can carry.
func testCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	effects := []storage.Effect{
		{Kind: storage.EffPutTable, Name: "m", ValidTime: true, Cols: []storage.EffectColumn{
			{Name: "id", Base: "INTEGER"},
			{Name: "name", Base: "CHAR", Length: 10},
			{Name: "w", Base: "DECIMAL", Length: 8, Scale: 2},
			{Name: "begin_time", Base: "DATE"},
			{Name: "end_time", Base: "DATE"},
		}},
		{Kind: storage.EffInsert, Name: "m", Row: []types.Value{
			types.NewInt(1), types.NewString("ann"), types.NewFloat(1.5),
			types.NewDate(types.MustDate(2010, 1, 1)), types.NewDate(types.Forever),
		}},
		{Kind: storage.EffInsert, Name: "m", Row: []types.Value{
			types.NewInt(2), types.Null, types.NewFloat(-2.25),
			types.NewDate(types.MustDate(2011, 6, 15)), types.NewDate(types.Forever),
		}},
		{Kind: storage.EffPutView, Name: "v", SQL: "CREATE VIEW v AS SELECT id FROM m;"},
		{Kind: storage.EffPutRoutine, Name: "f", SQL: "CREATE FUNCTION f (x INTEGER) RETURNS INTEGER RETURN x + 1;"},
	}
	if err := applyAll(cat, effects); err != nil {
		t.Fatalf("applyAll: %v", err)
	}
	return cat
}

func TestRecordRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{recSnapEnd}, []byte("hello"), make([]byte, 10000)}
	for _, p := range payloads {
		if _, err := writeRecord(&buf, p); err != nil {
			t.Fatalf("writeRecord: %v", err)
		}
	}
	for i, want := range payloads {
		got, err := readRecord(&buf)
		if err != nil {
			t.Fatalf("readRecord %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: got %q want %q", i, got, want)
		}
	}
	if _, err := readRecord(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func TestRecordTornAndCorrupt(t *testing.T) {
	var full bytes.Buffer
	if _, err := writeRecord(&full, []byte("some payload bytes")); err != nil {
		t.Fatal(err)
	}
	whole := full.Bytes()

	// Every proper prefix must read as a torn tail, never as valid.
	for cut := 1; cut < len(whole); cut++ {
		_, err := readRecord(bytes.NewReader(whole[:cut]))
		if err == nil {
			t.Fatalf("cut at %d: read succeeded", cut)
		}
		if !tornTail(err) {
			t.Fatalf("cut at %d: error %v is not a torn tail", cut, err)
		}
	}

	// Any single flipped payload byte must fail the checksum.
	for i := 8; i < len(whole); i++ {
		mut := append([]byte(nil), whole...)
		mut[i] ^= 0x40
		if _, err := readRecord(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrCorrupt", i, err)
		}
	}

	// An absurd declared length is corruption, not an allocation.
	hdr := make([]byte, 8)
	hdr[3] = 0xFF // length 0xFF000000 > maxRecord
	if _, err := readRecord(bytes.NewReader(hdr)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("giant length: got %v, want ErrCorrupt", err)
	}
}

func TestCommitRoundtrip(t *testing.T) {
	effects := []storage.Effect{
		{Kind: storage.EffInsert, Name: "t", Row: []types.Value{
			types.NewInt(7), types.NewString("x"), types.Null, types.NewFloat(2.5),
			{Kind: types.KindBool, I: 1}, types.NewDate(types.MustDate(2010, 3, 1)),
		}},
		{Kind: storage.EffUpdate, Name: "t", Index: 3, Row: []types.Value{types.NewInt(8)}},
		{Kind: storage.EffDelete, Name: "t", Index: 0},
		{Kind: storage.EffPutTable, Name: "u", ValidTime: true, TransactionTime: true,
			Cols: []storage.EffectColumn{{Name: "a", Base: "DECIMAL", Length: 10, Scale: 2}}},
		{Kind: storage.EffDropTable, Name: "u"},
		{Kind: storage.EffPutView, Name: "v", SQL: "CREATE VIEW v AS SELECT 1;"},
		{Kind: storage.EffDropView, Name: "v"},
		{Kind: storage.EffPutRoutine, Name: "f", SQL: "CREATE FUNCTION f () RETURNS INTEGER RETURN 1;"},
		{Kind: storage.EffDropRoutine, Name: "f"},
	}
	payload, err := encodeCommit(effects)
	if err != nil {
		t.Fatalf("encodeCommit: %v", err)
	}
	got, err := DecodeCommit(payload)
	if err != nil {
		t.Fatalf("DecodeCommit: %v", err)
	}
	if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", effects) {
		t.Fatalf("roundtrip mismatch:\n got %v\nwant %v", got, effects)
	}

	// Truncating the payload anywhere must error, never panic.
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeCommit(payload[:cut]); err == nil {
			t.Fatalf("cut at %d: decode of truncated payload succeeded", cut)
		}
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	cat := testCatalog(t)
	fs := NewMemFS()
	f, err := fs.Create("s.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeSnapshot(f, cat, nil, 42); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	f.Close()

	rf, err := fs.Open("s.tmp")
	if err != nil {
		t.Fatal(err)
	}
	got, _, epoch, err := readSnapshot(rf)
	if err != nil {
		t.Fatalf("readSnapshot: %v", err)
	}
	if epoch != 42 {
		t.Fatalf("epoch = %d, want 42", epoch)
	}
	if d1, d2 := dumpCatalog(cat), dumpCatalog(got); d1 != d2 {
		t.Fatalf("snapshot changed the catalog:\n--- in\n%s--- out\n%s", d1, d2)
	}
}

func TestSnapshotSkipsTemporaryTables(t *testing.T) {
	cat := testCatalog(t)
	tmp := storage.NewTable("scratch", storage.NewSchema(nil))
	tmp.Temporary = true
	cat.PutTable(tmp)

	fs := NewMemFS()
	f, _ := fs.Create("s")
	if _, err := writeSnapshot(f, cat, nil, 1); err != nil {
		t.Fatal(err)
	}
	rf, _ := fs.Open("s")
	got, _, _, err := readSnapshot(rf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table("scratch") != nil {
		t.Fatal("temporary table survived the snapshot")
	}
}

func TestSnapshotIncompleteIsCorrupt(t *testing.T) {
	cat := testCatalog(t)
	fs := NewMemFS()
	f, _ := fs.Create("s")
	if _, err := writeSnapshot(f, cat, nil, 1); err != nil {
		t.Fatal(err)
	}
	data := fs.files["s"].data

	// Chop off the end marker (and more): must be ErrCorrupt so recovery
	// falls back to an older epoch instead of trusting a partial image.
	for _, cut := range []int{len(data) - 1, len(data) - 9, len(data) / 2, 3} {
		img := NewMemFS()
		img.files["s"] = &memFile{data: append([]byte(nil), data[:cut]...), synced: cut}
		rf, _ := img.Open("s")
		if _, _, _, err := readSnapshot(rf); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: got %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestOpenEmptyDirectory(t *testing.T) {
	fs := NewMemFS()
	st, cat, info, err := Open(fs, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if len(cat.TableNames()) != 0 || info.SnapshotEpoch != 0 || info.Commits != 0 {
		t.Fatalf("fresh open not empty: %v / %+v", cat.TableNames(), info)
	}
	if info.Epoch != 1 {
		t.Fatalf("fresh epoch = %d, want 1", info.Epoch)
	}
}

func TestAppendRecoverRoundtrip(t *testing.T) {
	fs := NewMemFS()
	st, cat, _, err := Open(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	eff := []storage.Effect{
		{Kind: storage.EffPutTable, Name: "t", Cols: []storage.EffectColumn{{Name: "x", Base: "INTEGER"}}},
		{Kind: storage.EffInsert, Name: "t", Row: []types.Value{types.NewInt(11)}},
	}
	if err := applyAll(cat, eff); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(eff); err != nil {
		t.Fatalf("Append: %v", err)
	}
	want := dumpCatalog(cat)
	st.Close()

	st2, cat2, info, err := Open(fs.CrashImage(), nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if got := dumpCatalog(cat2); got != want {
		t.Fatalf("recovered state differs:\n--- want\n%s--- got\n%s", want, got)
	}
	if info.Commits != 1 || info.Effects != 2 {
		t.Fatalf("info = %+v, want 1 commit / 2 effects", info)
	}
}

func TestTornLogTailTruncated(t *testing.T) {
	fs := NewMemFS()
	st, cat, _, err := Open(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	put := []storage.Effect{{Kind: storage.EffPutTable, Name: "t", Cols: []storage.EffectColumn{{Name: "x", Base: "INTEGER"}}}}
	ins1 := []storage.Effect{{Kind: storage.EffInsert, Name: "t", Row: []types.Value{types.NewInt(1)}}}
	ins2 := []storage.Effect{{Kind: storage.EffInsert, Name: "t", Row: []types.Value{types.NewInt(2)}}}
	for _, batch := range [][]storage.Effect{put, ins1} {
		applyAll(cat, batch)
		if err := st.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	want := dumpCatalog(cat)
	epoch := st.Epoch()
	applyAll(cat, ins2)
	if err := st.Append(ins2); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Tear off part of the last commit record: recovery must keep the
	// first two statements and report the truncation.
	img := fs.CrashImage()
	name := walName(epoch)
	data := img.files[name].data
	img.files[name] = &memFile{data: data[:len(data)-5], synced: len(data) - 5}

	st2, cat2, info, err := Open(img, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if !info.TornTail {
		t.Fatal("torn tail not reported")
	}
	if info.Commits != 2 {
		t.Fatalf("replayed %d commits, want 2", info.Commits)
	}
	if got := dumpCatalog(cat2); got != want {
		t.Fatalf("prefix state differs:\n--- want\n%s--- got\n%s", want, got)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	fs := NewMemFS()
	st, cat, _, err := Open(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	put := []storage.Effect{{Kind: storage.EffPutTable, Name: "t", Cols: []storage.EffectColumn{{Name: "x", Base: "INTEGER"}}}}
	applyAll(cat, put)
	if err := st.Append(put); err != nil {
		t.Fatal(err)
	}
	want := dumpCatalog(cat)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	epoch2 := st.Epoch()
	st.Close()

	// Flip a byte inside the new snapshot: recovery must reject it. With
	// epoch 1 already cleaned up there is no older snapshot, but the
	// checkpoint's own log is empty, so state must still come back — via
	// the empty-catalog path it must NOT (data loss); assert it errors or
	// recovers fully. Corrupt-newest with an older fallback is the
	// interesting case, so rebuild that layout by hand.
	img := fs.CrashImage()
	snap2 := img.files[snapName(epoch2)].data
	mut := append([]byte(nil), snap2...)
	mut[len(mut)/2] ^= 1
	img.files[snapName(epoch2)] = &memFile{data: mut, synced: len(mut)}

	// Provide an older complete line: epoch 1's snapshot (empty catalog)
	// plus a log holding the commit.
	old := NewMemFS()
	ost, ocat, _, err := Open(old, nil)
	if err != nil {
		t.Fatal(err)
	}
	applyAll(ocat, put)
	if err := ost.Append(put); err != nil {
		t.Fatal(err)
	}
	ost.Close()
	oimg := old.CrashImage()
	img.files[snapName(1)] = oimg.files[snapName(1)]
	img.files[walName(1)] = oimg.files[walName(1)]

	st2, cat2, info, err := Open(img, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if info.SnapshotEpoch != 1 {
		t.Fatalf("recovered from snapshot %d, want fallback to 1", info.SnapshotEpoch)
	}
	if got := dumpCatalog(cat2); got != want {
		t.Fatalf("fallback state differs:\n--- want\n%s--- got\n%s", want, got)
	}
}

func TestAppendFailureBlocksUntilCheckpoint(t *testing.T) {
	fs := NewMemFS()
	st, cat, _, err := Open(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	put := []storage.Effect{{Kind: storage.EffPutTable, Name: "t", Cols: []storage.EffectColumn{{Name: "x", Base: "INTEGER"}}}}
	applyAll(cat, put)

	fs.SetFault(1, FaultFail)
	if err := st.Append(put); err == nil {
		t.Fatal("append under injected fault succeeded")
	}
	// MemFS considers the process dead after a fault; for the failed-log
	// gate we only need the store's own state, on a fresh fs.
	fs2 := NewMemFS()
	st2, cat2, _, err := Open(fs2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	applyAll(cat2, put)
	fs2.SetFault(2, FaultFail) // write passes, fsync fails
	if err := st2.Append(put); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	if err := st2.Append(put); err == nil {
		t.Fatal("append after failed log accepted without checkpoint")
	}
}

func TestMemFSFaultModes(t *testing.T) {
	// FaultFail: unsynced bytes are lost, synced survive (the dirent
	// needs a SyncDir of its own — see TestMemFSNamespaceDurability).
	fs := NewMemFS()
	f, _ := fs.Create("a")
	fs.SyncDir()
	f.Write([]byte("durable"))
	f.Sync()
	f.Write([]byte("volatile"))
	fs.SetFault(1, FaultFail)
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync fault: %v", err)
	}
	if !fs.Crashed() {
		t.Fatal("not crashed after FaultFail")
	}
	if _, err := fs.Open("a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash op: %v", err)
	}
	img := fs.CrashImage()
	g, _ := img.Open("a")
	got, _ := io.ReadAll(g)
	if string(got) != "durable" {
		t.Fatalf("FaultFail image = %q, want %q", got, "durable")
	}

	// FaultTorn: the torn write's prefix survives the crash.
	fs2 := NewMemFS()
	f2, _ := fs2.Create("b")
	f2.Write([]byte("base"))
	f2.Sync()
	fs2.SetFault(1, FaultTorn)
	if _, err := f2.Write([]byte("12345678")); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write: %v", err)
	}
	img2 := fs2.CrashImage()
	g2, _ := img2.Open("b")
	got2, _ := io.ReadAll(g2)
	if string(got2) != "base1234" {
		t.Fatalf("FaultTorn image = %q, want %q", got2, "base1234")
	}

	// FaultShortRead: a read returns a short count and an error.
	fs3 := NewMemFS()
	f3, _ := fs3.Create("c")
	f3.Write([]byte("0123456789"))
	f3.Sync()
	r3, _ := fs3.Open("c")
	fs3.SetFault(1, FaultShortRead)
	buf := make([]byte, 10)
	n, err := r3.Read(buf)
	if !errors.Is(err, ErrInjected) || n >= 10 {
		t.Fatalf("short read: n=%d err=%v", n, err)
	}
}

// TestMemFSNamespaceDurability pins the namespace model: directory
// entries reach the crash image only through SyncDir. File fsync alone
// does not persist a create, and renames/removals after the last
// SyncDir revert — exactly the crash behaviour that makes a missing
// directory sync in the store a test failure instead of silent data
// loss.
func TestMemFSNamespaceDurability(t *testing.T) {
	// A created, fsynced file vanishes if its dirent was never synced.
	fs := NewMemFS()
	f, _ := fs.Create("a")
	f.Write([]byte("payload"))
	f.Sync()
	fs.SetFault(1, FaultFail)
	fs.SyncDir() // the dirent sync itself fails -> nothing durable
	if names, _ := fs.CrashImage().List(); len(names) != 0 {
		t.Fatalf("unsynced create survived the crash: %v", names)
	}

	// A rename after the last SyncDir reverts to the old name, with the
	// file's synced content.
	fs2 := NewMemFS()
	f2, _ := fs2.Create("old")
	f2.Write([]byte("content"))
	f2.Sync()
	fs2.SyncDir()
	fs2.Rename("old", "new")
	fs2.SetFault(1, FaultFail)
	f2.Sync()
	img2 := fs2.CrashImage()
	if names, _ := img2.List(); fmt.Sprintf("%v", names) != "[old]" {
		t.Fatalf("unsynced rename survived the crash: %v", names)
	}
	g, _ := img2.Open("old")
	if got, _ := io.ReadAll(g); string(got) != "content" {
		t.Fatalf("reverted file content = %q, want %q", got, "content")
	}

	// A removal after the last SyncDir resurrects the file.
	fs3 := NewMemFS()
	f3, _ := fs3.Create("keep")
	f3.Write([]byte("x"))
	f3.Sync()
	fs3.SyncDir()
	fs3.Remove("keep")
	fs3.SetFault(1, FaultFail)
	fs3.List()
	if names, _ := fs3.CrashImage().List(); fmt.Sprintf("%v", names) != "[keep]" {
		t.Fatalf("unsynced removal survived the crash: %v", names)
	}

	// Under the torn-write model the page cache flushes: the unsynced
	// namespace survives along with the torn data.
	fs4 := NewMemFS()
	f4, _ := fs4.Create("t")
	fs4.SetFault(1, FaultTorn)
	f4.Write([]byte("12345678"))
	if names, _ := fs4.CrashImage().List(); fmt.Sprintf("%v", names) != "[t]" {
		t.Fatalf("torn crash dropped the namespace: %v", names)
	}
}

// TestCheckpointTransientFailureLosesNothing is the regression for the
// failed-checkpoint hole: a TRANSIENT I/O failure at any single
// operation of a checkpoint (the filesystem keeps working — no crash)
// must never lose an acknowledged commit. Once the snapshot rename may
// have published the new epoch, recovery prefers that snapshot and
// never replays the old epoch's log, so the store must poison itself
// (Append refuses until a checkpoint completes) instead of
// acknowledging commits into a log no recovery will read. Before the
// rename the old epoch is still the recovery line and appends may
// continue. The test does not hardcode which ops fall on which side: it
// asserts the observable contract — every commit Append acknowledged,
// on either path, survives reopen.
func TestCheckpointTransientFailureLosesNothing(t *testing.T) {
	put := []storage.Effect{{Kind: storage.EffPutTable, Name: "t", Cols: []storage.EffectColumn{{Name: "x", Base: "INTEGER"}}}}
	ins := []storage.Effect{{Kind: storage.EffInsert, Name: "t", Row: []types.Value{types.NewInt(1)}}}

	// Count a clean checkpoint's I/O window with a probe run.
	probe := NewMemFS()
	pst, pcat, _, err := Open(probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	applyAll(pcat, put)
	if err := pst.Append(put); err != nil {
		t.Fatal(err)
	}
	preOps := probe.Ops()
	if err := pst.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckptOps := probe.Ops() - preOps
	pst.Close()

	poisoned, open := 0, 0
	for n := 1; n <= ckptOps; n++ {
		fs := NewMemFS()
		st, cat, _, err := Open(fs, nil)
		if err != nil {
			t.Fatal(err)
		}
		applyAll(cat, put)
		if err := st.Append(put); err != nil {
			t.Fatal(err)
		}
		fs.SetFault(n, FaultErr) // nth op of the checkpoint window
		cerr := st.Checkpoint()

		if aerr := st.Append(ins); aerr != nil {
			// Poisoned: only a failed checkpoint may gate appends, and a
			// clean checkpoint must clear the gate.
			poisoned++
			if cerr == nil {
				t.Fatalf("op %d: append refused after a successful checkpoint: %v", n, aerr)
			}
			if err := st.Checkpoint(); err != nil {
				t.Fatalf("op %d: checkpoint retry failed: %v", n, err)
			}
			if err := st.Append(ins); err != nil {
				t.Fatalf("op %d: append after checkpoint retry failed: %v", n, err)
			}
		} else {
			open++
		}
		applyAll(cat, ins)
		want := dumpCatalog(cat)
		st.Close()

		// Every acknowledged commit must survive reopen — this is exactly
		// what silently appending to a superseded epoch's log violates.
		st2, cat2, _, err := Open(fs.CrashImage(), nil)
		if err != nil {
			t.Fatalf("op %d: reopen failed: %v", n, err)
		}
		if got := dumpCatalog(cat2); got != want {
			t.Fatalf("op %d: acknowledged commit lost after transient checkpoint failure:\n--- want\n%s--- got\n%s", n, want, got)
		}
		st2.Close()
	}
	if poisoned == 0 {
		t.Fatal("no checkpoint fault ever poisoned the store; the gate is untested")
	}
	if open == 0 {
		t.Fatal("every checkpoint fault poisoned the store; the pre-rename path is untested")
	}
}

func TestCheckpointCleansOldEpochs(t *testing.T) {
	fs := NewMemFS()
	st, cat, _, err := Open(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	put := []storage.Effect{{Kind: storage.EffPutTable, Name: "t", Cols: []storage.EffectColumn{{Name: "x", Base: "INTEGER"}}}}
	applyAll(cat, put)
	st.Append(put)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List()
	want := []string{snapName(st.Epoch()), walName(st.Epoch())}
	sort.Strings(want)
	if fmt.Sprintf("%v", names) != fmt.Sprintf("%v", want) {
		t.Fatalf("directory after checkpoint = %v, want %v", names, want)
	}
}

// A snapshot-statistics payload written before the record stopped keeping
// a constant-period count and an overlap histogram (these bytes are what
// encodeStats produced then) still decodes: the two fields are bounds-
// checked and discarded, and re-encoding writes them as 0 and empty.
func TestDecodeStatsOfEarlierLayout(t *testing.T) {
	old := []byte{0x54, 0x2,
		0x1, 0x61, 0x6, 0x2, 0x0, 0x1, 0x8, 0x8, 0x6, 0x4, 0x0, 0x4, 0x4, 0x4, // a: histogram of two pairs
		0x1, 0x62, 0x0, 0x0, 0x4, 0x0, 0x0, 0x0, 0x0, 0x0} // b: never analyzed
	ps, err := DecodeStats(old)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("decoded %d entries, want 2", len(ps))
	}
	a, b := ps[0], ps[1]
	if a.Name != "a" || a.Inserts != 3 || a.Updates != 1 || a.Deletes != 0 || !a.Analyzed || a.AnalyzedRows != 4 || a.MaxOverlap != 3 {
		t.Fatalf("entry a = %+v", a)
	}
	if b.Name != "b" || b.Deletes != 2 || b.Analyzed {
		t.Fatalf("entry b = %+v", b)
	}
	want := []byte{0x54, 0x2,
		0x1, 0x61, 0x6, 0x2, 0x0, 0x1, 0x8, 0x0, 0x6, 0x0,
		0x1, 0x62, 0x0, 0x0, 0x4, 0x0, 0x0, 0x0, 0x0, 0x0}
	if got := encodeStats(ps); !bytes.Equal(got, want) {
		t.Fatalf("re-encoded % x, want % x", got, want)
	}
	if _, err := DecodeStats(old[:14]); err == nil {
		t.Fatal("a payload cut inside the histogram must not decode")
	}
}
