package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is the write-side surface the log writer needs from a segment
// file. It is deliberately tiny so a fault-injecting implementation
// can sit between the writer and the disk (FaultFS below) — the
// errorfs pattern: the durability logic is tested against injected
// short writes and fsync failures, not just the happy path.
type File interface {
	io.Writer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	Close() error
}

// FS abstracts the directory operations of the log: segment creation,
// reopening for append, whole-segment reads for recovery, torn-tail
// truncation, and directory fsync (which is what makes a freshly
// created segment file itself durable on POSIX systems).
type FS interface {
	// Create creates (or truncates) a new segment file.
	Create(path string) (File, error)
	// OpenAppend opens an existing segment for appending.
	OpenAppend(path string) (File, error)
	// ReadFile reads a whole segment.
	ReadFile(path string) ([]byte, error)
	// ReadDir lists the file names (not paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Truncate cuts path down to size bytes.
	Truncate(path string, size int64) error
	// Remove deletes a file.
	Remove(path string) error
	// MkdirAll creates dir and its parents.
	MkdirAll(dir string) error
	// SyncDir fsyncs the directory entry metadata.
	SyncDir(dir string) error
}

// OSFS is the production FS: the real filesystem.
type OSFS struct{}

func (OSFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (OSFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }
func (OSFS) Remove(path string) error               { return os.Remove(path) }
func (OSFS) MkdirAll(dir string) error              { return os.MkdirAll(dir, 0o755) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ErrInjected is the error every FaultFS-injected failure returns, so
// tests can assert the failure they provoked is the one they observed.
var ErrInjected = errors.New("wal: injected fault")

// FaultFS wraps another FS and injects write-path faults at
// deterministic call counts — the errorfs-style seam the durability
// tests drive. Faults available:
//
//   - FailWrite n: the n-th Write call (1-based, counted across every
//     file opened through this FS) fails with ErrInjected. With
//     ShortWrite set, half the buffer is persisted first — a torn
//     write: the tail of the log now ends mid-frame, exactly the
//     state recovery must truncate.
//   - FailSync n: the n-th Sync call fails with ErrInjected (the
//     data may or may not be durable — the writer must treat the
//     batch as not acknowledged either way).
//   - Hold: the next Sync call stalls until released — a slow disk
//     on demand, so a test can pin the log goroutine (and whoever
//     waits on it) inside one fsync.
//
// Zero values disable a fault. Counters keep counting after a fault
// fires, but each fault fires at most once.
type FaultFS struct {
	Base FS

	mu         sync.Mutex
	writeCalls int
	syncCalls  int
	hold       *syncHold

	FailWrite  int
	ShortWrite bool
	FailSync   int
}

func (f *FaultFS) Create(path string) (File, error) {
	file, err := f.Base.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FaultFS) OpenAppend(path string) (File, error) {
	file, err := f.Base.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) { return f.Base.ReadFile(path) }
func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.Base.ReadDir(dir) }
func (f *FaultFS) Truncate(path string, n int64) error  { return f.Base.Truncate(path, n) }
func (f *FaultFS) Remove(path string) error             { return f.Base.Remove(path) }
func (f *FaultFS) MkdirAll(dir string) error            { return f.Base.MkdirAll(dir) }
func (f *FaultFS) SyncDir(dir string) error             { return f.Base.SyncDir(dir) }

type syncHold struct {
	held, release chan struct{}
}

// Hold arms a one-shot stall: the next Sync through this FS closes held
// once it has started, then blocks until release is called. release is
// idempotent.
func (f *FaultFS) Hold() (held <-chan struct{}, release func()) {
	h := &syncHold{held: make(chan struct{}), release: make(chan struct{})}
	f.mu.Lock()
	f.hold = h
	f.mu.Unlock()
	var once sync.Once
	return h.held, func() { once.Do(func() { close(h.release) }) }
}

type faultFile struct {
	fs *FaultFS
	f  File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	fs := ff.fs
	fs.mu.Lock()
	fs.writeCalls++
	inject := fs.FailWrite != 0 && fs.writeCalls == fs.FailWrite
	short := fs.ShortWrite
	fs.mu.Unlock()
	if inject {
		if short && len(p) > 1 {
			n, _ := ff.f.Write(p[:len(p)/2]) // torn: a prefix reaches the file
			return n, ErrInjected
		}
		return 0, ErrInjected
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	fs := ff.fs
	fs.mu.Lock()
	fs.syncCalls++
	inject := fs.FailSync != 0 && fs.syncCalls == fs.FailSync
	h := fs.hold
	fs.hold = nil
	fs.mu.Unlock()
	if h != nil {
		close(h.held)
		<-h.release
	}
	if inject {
		return ErrInjected
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// segmentName formats the canonical segment file name for its first
// LSN: wal-<16 hex digits>.seg, so lexicographic name order is LSN
// order.
func segmentName(firstLSN uint64) string {
	const hexdigits = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = hexdigits[firstLSN&0xf]
		firstLSN >>= 4
	}
	return "wal-" + string(buf[:]) + ".seg"
}

// parseSegmentName inverts segmentName, reporting ok=false for any
// file that is not a well-formed segment name.
func parseSegmentName(name string) (firstLSN uint64, ok bool) {
	if len(name) != len("wal-")+16+len(".seg") ||
		name[:4] != "wal-" || name[len(name)-4:] != ".seg" {
		return 0, false
	}
	for _, c := range []byte(name[4 : 4+16]) {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		firstLSN = firstLSN<<4 | d
	}
	return firstLSN, true
}

func segmentPath(dir string, firstLSN uint64) string {
	return filepath.Join(dir, segmentName(firstLSN))
}
