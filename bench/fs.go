package main

import (
	"strings"
	"time"

	"taupsm/internal/wal"
)

// ioCount is the time spent in and the volume moved by one kind of
// filesystem call.
type ioCount struct {
	Calls int64
	Bytes int64
	Time  time.Duration
}

func (c *ioCount) note(start time.Time, n int) {
	c.Calls++
	c.Bytes += int64(n)
	c.Time += time.Since(start)
}

// fsCounts is everything the timing filesystem saw, split by what the
// durability layer was doing: appending to the log, or writing a
// snapshot during a checkpoint. The benchmark has one client goroutine,
// so plain fields suffice.
type fsCounts struct {
	LogWrite, LogSync   ioCount // wal-*.log
	SnapWrite, SnapSync ioCount // snapshot files, including their temporaries
	Read                ioCount
	SyncDir, Rename     ioCount
}

// combine applies f to every pair of counters of c and o.
func (c fsCounts) combine(o fsCounts, sign int64) fsCounts {
	f := func(a, b ioCount) ioCount {
		return ioCount{Calls: a.Calls + sign*b.Calls, Bytes: a.Bytes + sign*b.Bytes, Time: a.Time + time.Duration(sign)*b.Time}
	}
	return fsCounts{
		LogWrite: f(c.LogWrite, o.LogWrite), LogSync: f(c.LogSync, o.LogSync),
		SnapWrite: f(c.SnapWrite, o.SnapWrite), SnapSync: f(c.SnapSync, o.SnapSync),
		Read: f(c.Read, o.Read), SyncDir: f(c.SyncDir, o.SyncDir), Rename: f(c.Rename, o.Rename),
	}
}

func (c fsCounts) minus(o fsCounts) fsCounts { return c.combine(o, -1) }
func (c fsCounts) plus(o fsCounts) fsCounts  { return c.combine(o, 1) }

// bytesWritten is every byte handed to Write, log and snapshot alike.
func (c fsCounts) bytesWritten() int64 { return c.LogWrite.Bytes + c.SnapWrite.Bytes }

// timingFS wraps a wal.FS and accounts for the time and bytes of every
// call the durability layer makes through it. It is the benchmark's
// only view below the WAL: the flush policy stays the program's own.
type timingFS struct {
	inner wal.FS
	c     *fsCounts
}

func newTimingFS(inner wal.FS) *timingFS { return &timingFS{inner: inner, c: &fsCounts{}} }

func (fs *timingFS) counts() fsCounts { return *fs.c }

func isLog(name string) bool { return strings.HasSuffix(name, ".log") }

func (fs *timingFS) wrap(name string, f wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	tf := &timingFile{File: f, read: &fs.c.Read, write: &fs.c.SnapWrite, sync: &fs.c.SnapSync}
	if isLog(name) {
		tf.write, tf.sync = &fs.c.LogWrite, &fs.c.LogSync
	}
	return tf, nil
}

func (fs *timingFS) Create(name string) (wal.File, error) {
	f, err := fs.inner.Create(name)
	return fs.wrap(name, f, err)
}

func (fs *timingFS) Open(name string) (wal.File, error) {
	f, err := fs.inner.Open(name)
	return fs.wrap(name, f, err)
}

func (fs *timingFS) Rename(oldname, newname string) error {
	start := time.Now()
	err := fs.inner.Rename(oldname, newname)
	fs.c.Rename.note(start, 0)
	return err
}

func (fs *timingFS) Remove(name string) error { return fs.inner.Remove(name) }
func (fs *timingFS) List() ([]string, error)  { return fs.inner.List() }

func (fs *timingFS) SyncDir() error {
	start := time.Now()
	err := fs.inner.SyncDir()
	fs.c.SyncDir.note(start, 0)
	return err
}

type timingFile struct {
	wal.File
	read, write, sync *ioCount
}

func (f *timingFile) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Read(p)
	f.read.note(start, n)
	return n, err
}

func (f *timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.write.note(start, n)
	return n, err
}

func (f *timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.sync.note(start, 0)
	return err
}

var _ wal.FS = (*timingFS)(nil)
