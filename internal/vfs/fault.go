package vfs

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"sort"
	"sync"
	"syscall"
)

// ErrCrashed is the error every operation returns after a Crash fault
// fired: from the filesystem's point of view the process is dead, and
// nothing written afterwards reaches disk.
var ErrCrashed = errors.New("vfs: simulated crash")

// Op classifies a faultable filesystem operation. The FaultFS counts
// one op per call in the order they arrive, so a schedule naming op N
// hits the same call on every run of a deterministic workload.
type Op uint8

const (
	OpAny Op = iota // matches every operation class
	OpOpen
	OpWrite
	OpSync
	OpTruncate
	OpClose
	OpRename
	OpRemove
	OpReadDir
	OpStat
)

// String returns the syscall-flavored name of the op class.
func (o Op) String() string {
	switch o {
	case OpAny:
		return "any"
	case OpOpen:
		return "open"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	case OpClose:
		return "close"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpReadDir:
		return "readdir"
	case OpStat:
		return "stat"
	default:
		return "op(?)"
	}
}

// Kind is the fault class an injection fires.
type Kind uint8

const (
	// ENOSPC fails the operation with syscall.ENOSPC (disk full).
	ENOSPC Kind = iota
	// EIO fails the operation with syscall.EIO (generic I/O error).
	EIO
	// ShortWrite makes a write accept only a prefix of the buffer and
	// report it without an error — the torn-frame signature the WAL's
	// rollback path exists for. On a non-write op it degrades to EIO.
	ShortWrite
	// SyncFailure fails an fsync with syscall.EIO; the file itself
	// stays healthy afterwards (the transient-fsync-error case that
	// must not be retried blindly). On a non-sync op it degrades to EIO.
	SyncFailure
	// Crash latches the whole filesystem: the faulted operation and
	// every one after it fail with ErrCrashed, and nothing more is
	// written. Recovery is modeled by reopening the real files through
	// a fresh FS.
	Crash
	kindCount // one past the last kind, for schedule generation
)

// String names the fault class.
func (k Kind) String() string {
	switch k {
	case ENOSPC:
		return "enospc"
	case EIO:
		return "eio"
	case ShortWrite:
		return "short-write"
	case SyncFailure:
		return "sync-failure"
	case Crash:
		return "crash"
	default:
		return "kind(?)"
	}
}

// Injection schedules one fault: when the FaultFS's operation counter
// reaches AtOp (1-based) and the operation's class matches Op, Kind
// fires. A non-matching class lets the operation through untouched —
// with Op left as OpAny the injection fires unconditionally, which is
// what seeded schedules use.
type Injection struct {
	AtOp uint64
	Op   Op
	Kind Kind
}

// Schedule derives a deterministic fault plan from a seed: n distinct
// operation indices in [firstOp, firstOp+window) with fault kinds drawn
// from a seeded generator. Crash faults are rarer than the transient
// kinds (a crash ends the schedule's useful life), and at most one
// crash is emitted. The same (seed, firstOp, window, n) always yields
// the same plan.
func Schedule(seed int64, firstOp, window uint64, n int) []Injection {
	rng := rand.New(rand.NewSource(seed))
	if window == 0 || n <= 0 {
		return nil
	}
	if uint64(n) > window {
		n = int(window)
	}
	used := make(map[uint64]bool, n)
	injs := make([]Injection, 0, n)
	crashed := false
	for len(injs) < n {
		at := firstOp + uint64(rng.Int63n(int64(window)))
		if used[at] {
			continue
		}
		used[at] = true
		var k Kind
		switch r := rng.Intn(10); {
		case r < 3:
			k = ENOSPC
		case r < 5:
			k = EIO
		case r < 7:
			k = ShortWrite
		case r < 9:
			k = SyncFailure
		default:
			k = Crash
		}
		if k == Crash {
			if crashed {
				k = EIO
			} else {
				crashed = true
			}
		}
		injs = append(injs, Injection{AtOp: at, Kind: k})
	}
	sort.Slice(injs, func(i, j int) bool { return injs[i].AtOp < injs[j].AtOp })
	return injs
}

// Fired records one injection that actually fired, for test assertions
// and failure reports.
type Fired struct {
	AtOp uint64
	Op   Op
	Kind Kind
	Path string
}

// FaultFS wraps an FS and injects faults from a schedule, counting
// every faultable operation (opens, writes, syncs, truncates, closes,
// renames, removes, directory lists, stats — reads are always
// reliable) so failures are reproducible run to run. It also records
// what each op changed on disk, from which Images rebuilds the disks a
// power cut may leave. Safe for concurrent use; the count orders
// concurrent ops in arrival order.
type FaultFS struct {
	inner FS

	mu      sync.Mutex
	ops     uint64
	plan    map[uint64]Injection
	crashed bool
	fired   []Fired
	model
}

// NewFaultFS wraps inner with the given fault plan. Injections sharing
// an op index keep the last one.
func NewFaultFS(inner FS, plan ...Injection) *FaultFS {
	f := &FaultFS{inner: inner, plan: make(map[uint64]Injection, len(plan)), model: newModel()}
	for _, inj := range plan {
		f.plan[inj.AtOp] = inj
	}
	return f
}

// Inject adds injections to a running plan (ops already counted keep
// their outcome).
func (f *FaultFS) Inject(plan ...Injection) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, inj := range plan {
		f.plan[inj.AtOp] = inj
	}
}

// OpCount reports how many faultable operations have been observed.
func (f *FaultFS) OpCount() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Fired returns the injections that actually fired, in op order.
func (f *FaultFS) Fired() []Fired {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Fired(nil), f.fired...)
}

// Crashed reports whether a Crash fault has latched the filesystem.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// check counts one operation and decides its fate: err non-nil fails
// it, short true tears a write (only ever set for OpWrite).
// check counts one operation and decides its fate: err non-nil fails
// it, short true tears a write (only ever set for OpWrite). n is the
// op's index, under which the crash model records what it changed.
func (f *FaultFS) check(op Op, path string) (n uint64, short bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	n = f.ops
	f.recs = append(f.recs, rec{op: op, path: path})
	if f.crashed {
		return n, false, &fs.PathError{Op: op.String(), Path: path, Err: ErrCrashed}
	}
	inj, ok := f.plan[n]
	if !ok || (inj.Op != OpAny && inj.Op != op) {
		return n, false, nil
	}
	f.fired = append(f.fired, Fired{AtOp: n, Op: op, Kind: inj.Kind, Path: path})
	fail := func(errno error) (uint64, bool, error) {
		return n, false, &fs.PathError{Op: op.String(), Path: path, Err: errno}
	}
	switch inj.Kind {
	case ENOSPC:
		return fail(syscall.ENOSPC)
	case EIO:
		return fail(syscall.EIO)
	case ShortWrite:
		if op == OpWrite {
			return n, true, nil
		}
		return fail(syscall.EIO)
	case SyncFailure:
		return fail(syscall.EIO)
	case Crash:
		f.crashed = true
		return n, false, &fs.PathError{Op: op.String(), Path: path, Err: ErrCrashed}
	default:
		return fail(syscall.EIO)
	}
}

// OpenFile counts one open; a fresh fault-wrapped file is returned on
// success.
func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	n, _, err := f.check(OpOpen, name)
	if err != nil {
		return nil, err
	}
	existed := f.known(name)
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	ff := &faultFile{File: inner, fs: f, ino: -1}
	if st, err := inner.Stat(); err == nil && st.IsDir() {
		return ff, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case !existed:
		ff.ino = f.create(n, name)
	case flag&os.O_TRUNC != 0:
		ff.ino = f.names[name]
		f.note(n, rec{change: chTruncate, ino: ff.ino})
	default:
		ff.ino = f.names[name]
	}
	return ff, nil
}

// Rename counts one rename.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	n, _, err := f.check(OpRename, oldpath)
	if err != nil {
		return err
	}
	f.known(oldpath)
	f.known(newpath)
	if err := f.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.note(n, rec{change: chRename, to: newpath, ino: f.names[oldpath]})
	f.names[newpath] = f.names[oldpath]
	delete(f.names, oldpath)
	return nil
}

// Remove counts one remove.
func (f *FaultFS) Remove(name string) error {
	n, _, err := f.check(OpRemove, name)
	if err != nil {
		return err
	}
	f.known(name)
	if err := f.inner.Remove(name); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.note(n, rec{change: chRemove})
	delete(f.names, name)
	return nil
}

// ReadDir counts one directory list.
func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if _, _, err := f.check(OpReadDir, name); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

// Stat counts one stat.
func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if _, _, err := f.check(OpStat, name); err != nil {
		return nil, err
	}
	return f.inner.Stat(name)
}

// faultFile routes a file's mutating operations through the parent
// FaultFS's schedule. Reads (Read, ReadAt, Stat, Name) pass through
// untouched: the fault model is about losing writes, not lying reads —
// read-side damage is the WAL checksum layer's department.
type faultFile struct {
	File
	fs  *FaultFS
	ino int // the crash model's file; -1 for a directory
}

func (f *faultFile) Write(p []byte) (int, error) {
	n, short, err := f.fs.check(OpWrite, f.Name())
	if err != nil {
		return 0, err
	}
	if short && len(p) > 0 {
		// Accept a strict prefix and report it without an error, as a
		// real filesystem can on a full disk: the caller's n != len(p)
		// check is what must catch this.
		p = p[:len(p)-(len(p)+1)/2]
	}
	wrote, werr := f.File.Write(p)
	if wrote > 0 {
		// Every writer of the durable path writes at the end of the
		// file, so the size after the write places it.
		st, serr := f.File.Stat()
		if serr != nil {
			return wrote, serr
		}
		f.fs.mu.Lock()
		f.fs.note(n, rec{change: chWrite, ino: f.ino, off: st.Size() - int64(wrote), data: append([]byte(nil), p[:wrote]...)})
		f.fs.mu.Unlock()
	}
	return wrote, werr
}

func (f *faultFile) Sync() error {
	n, _, err := f.fs.check(OpSync, f.Name())
	if err != nil {
		return err
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.ino < 0 {
		f.fs.note(n, rec{change: chSyncDir})
	} else {
		f.fs.note(n, rec{change: chSyncFile, ino: f.ino})
	}
	return nil
}

func (f *faultFile) Truncate(size int64) error {
	n, _, err := f.fs.check(OpTruncate, f.Name())
	if err != nil {
		return err
	}
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.note(n, rec{change: chTruncate, ino: f.ino, off: size})
	return nil
}

func (f *faultFile) Close() error {
	if _, _, err := f.fs.check(OpClose, f.Name()); err != nil {
		return err
	}
	return f.File.Close()
}
