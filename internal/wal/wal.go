// Package wal implements the durability layer of the checker stack: a
// crash-safe write-ahead log of committed transactions and atomic
// checkpoint rotation.
//
// The log is a single append-only file. It starts with an 8-byte magic
// header ("RTICWAL1") followed by length-prefixed records:
//
//	[4 bytes LE payload length][4 bytes LE CRC32C of payload][payload]
//
// A record either made it to disk completely or it did not: replay
// verifies every checksum and treats an incomplete frame at the end of
// the file as a torn final write (the one failure an interrupted append
// can produce), truncating it away on open. A checksum mismatch on a
// *complete* frame, a bad magic header, or an implausible length are
// reported as *CorruptError — they cannot result from a torn append and
// indicate real corruption that an operator must look at.
//
// Two sync policies cover the durability/latency trade-off: SyncAlways
// fsyncs after every append (no committed transaction is ever lost),
// SyncBatch only marks the log dirty, and its owner's next Sync makes
// the batch durable (bounded loss window, much higher append throughput
// on spinning or network disks).
//
// A log is passive: it starts no goroutine and calls nothing back. An
// operation that latches the log broken returns the error to its
// caller, and every later operation re-reports it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rtic/internal/obs"
	"rtic/internal/storage"
	"rtic/internal/vfs"
)

const (
	// headerSize is the length of the magic file header.
	headerSize = 8
	// frameHeaderSize prefixes every record: 4-byte length + 4-byte CRC.
	frameHeaderSize = 8
	// MaxRecordBytes caps one record's payload; a length prefix beyond it
	// is reported as corruption rather than allocated.
	MaxRecordBytes = 16 << 20
)

// magic identifies a WAL file (and its format version).
var magic = [headerSize]byte{'R', 'T', 'I', 'C', 'W', 'A', 'L', '1'}

// castagnoli is the CRC32C polynomial, hardware-accelerated on amd64
// and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks an incomplete final frame — recoverable, not corrupt.
var errTorn = errors.New("wal: torn final record")

// CorruptError reports damage that cannot be explained by a torn final
// append: bad magic, an implausible length prefix, or a checksum
// mismatch on a complete frame.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: %s corrupt at byte %d: %s", e.Path, e.Offset, e.Reason)
}

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a commit acknowledged to a
	// client is durable.
	SyncAlways SyncPolicy = iota
	// SyncBatch defers the fsync to the owner's next Sync; a crash loses
	// the acknowledged commits appended since the last one.
	SyncBatch
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseSyncPolicy reads a -wal-sync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch", "batched":
		return SyncBatch, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always or batch)", s)
	}
}

// file is the subset of *os.File the log needs; fault-injection tests
// substitute failing and short-writing implementations.
type file interface {
	io.Writer
	io.ReaderAt
	Sync() error
	Truncate(int64) error
	Close() error
}

// Option configures a log at open time.
type Option func(*logOptions)

type logOptions struct {
	policy  SyncPolicy
	metrics *obs.Metrics
	spans   obs.SpanSink
	fs      vfs.FS
}

// WithSyncPolicy selects the sync policy (default SyncAlways).
func WithSyncPolicy(p SyncPolicy) Option {
	return func(o *logOptions) { o.policy = p }
}

// WithMetrics attaches the standard metric set: appends, appended
// bytes, fsyncs, errors, and the log size gauge.
func WithMetrics(m *obs.Metrics) Option {
	return func(o *logOptions) { o.metrics = m }
}

// WithSpans attaches a span sink: every Append emits a wal.append root
// span (Ops = framed bytes) with a wal.fsync child under SyncAlways. The
// log does not know which commit a record belongs to; a journal behind a
// monitor takes monitor.Monitor.SpanSink, which files the span in that
// commit's tree, so the durability cost of a commit shows up beside its
// engine phases.
func WithSpans(s obs.SpanSink) Option {
	return func(o *logOptions) { o.spans = s }
}

// WithFS selects the filesystem the log opens and truncates through
// (default vfs.OS). Fault-injection tests substitute a vfs.FaultFS; the
// per-append hot path is unchanged either way (the open file already
// sits behind an interface).
func WithFS(fsys vfs.FS) Option {
	return func(o *logOptions) { o.fs = fsys }
}

// Log is an append-only, checksummed record log. All methods are safe
// for concurrent use.
type Log struct {
	policy  SyncPolicy
	metrics *obs.Metrics
	spans   obs.SpanSink
	fs      vfs.FS

	mu      sync.Mutex
	path    string
	f       file
	frame   []byte // the frame of the last append, reused by the next
	size    int64  // bytes of valid header + records on disk
	records int    // valid records on disk
	dirty   bool   // bytes appended since the last fsync
	broken  error  // sticky: set when the on-disk state is unknown

	torn       bool  // a torn final record was truncated on open
	tornOffset int64 // where the torn record started
}

// Open opens (or creates) the log at path, validates the header, scans
// the valid record prefix, and truncates a torn final record so that
// subsequent appends extend a clean log. Corruption that a torn append
// cannot explain is returned as *CorruptError.
func Open(path string, opts ...Option) (*Log, error) {
	var o logOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.fs == nil {
		o.fs = vfs.OS
	}
	f, err := o.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close() //rtic:errok open failed before any write; the stat error is the one to surface
		return nil, err
	}
	l, err := newLog(f, path, st.Size(), o)
	if err != nil {
		f.Close() //rtic:errok recovery scan failed; its error supersedes closing the unused handle
		return nil, err
	}
	if st.Size() == 0 {
		// A fresh journal's name must survive a power cut as its records
		// do: until its directory is synced, a crash may unlink it.
		if err := vfs.SyncDir(o.fs, filepath.Dir(path)); err != nil {
			l.Close() //rtic:errok the directory sync failed; its error supersedes closing the unused log
			return nil, fmt.Errorf("wal: syncing directory of %s: %w", path, err)
		}
	}
	return l, nil
}

// newLog validates and recovers an opened file; tests drive it with
// fault-injecting file implementations.
func newLog(f file, path string, size int64, o logOptions) (*Log, error) {
	if o.fs == nil {
		o.fs = vfs.OS
	}
	l := &Log{path: path, policy: o.policy, metrics: o.metrics, spans: o.spans, fs: o.fs, f: f, size: size}
	if size == 0 {
		if n, err := f.Write(magic[:]); err != nil || n != headerSize {
			if err == nil {
				err = io.ErrShortWrite
			}
			return nil, fmt.Errorf("wal: writing header: %w", err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("wal: syncing header: %w", err)
		}
		l.size = headerSize
		l.countFsync()
	} else {
		if size < headerSize {
			return nil, &CorruptError{Path: path, Offset: 0, Reason: "file shorter than the magic header"}
		}
		var hdr [headerSize]byte
		if _, err := f.ReadAt(hdr[:], 0); err != nil {
			return nil, err
		}
		if hdr != magic {
			return nil, &CorruptError{Path: path, Offset: 0, Reason: fmt.Sprintf("bad magic %q", hdr[:])}
		}
		off := int64(headerSize)
		for {
			_, next, err := l.frameAt(off, size)
			if err == io.EOF {
				break
			}
			if errors.Is(err, errTorn) {
				// The one failure an interrupted append produces: truncate
				// it so the next append extends a clean prefix.
				l.torn, l.tornOffset = true, off
				if terr := f.Truncate(off); terr != nil {
					return nil, fmt.Errorf("wal: truncating torn record at byte %d: %w", off, terr)
				}
				if serr := f.Sync(); serr != nil {
					return nil, fmt.Errorf("wal: syncing after truncation: %w", serr)
				}
				l.countFsync()
				size = off
				break
			}
			if err != nil {
				return nil, err
			}
			l.records++
			off = next
		}
		l.size = size
	}
	if m := l.metrics; m != nil {
		m.WALSizeBytes.Set(l.size)
	}
	return l, nil
}

// frameAt reads the record frame starting at off within the first size
// bytes. It returns io.EOF at a clean end, errTorn when the remaining
// bytes cannot hold the frame, and *CorruptError on checksum or length
// damage.
func (l *Log) frameAt(off, size int64) (payload []byte, next int64, err error) {
	rem := size - off
	if rem == 0 {
		return nil, off, io.EOF
	}
	if rem < frameHeaderSize {
		return nil, off, errTorn
	}
	var hdr [frameHeaderSize]byte
	if _, err := l.f.ReadAt(hdr[:], off); err != nil {
		return nil, off, fmt.Errorf("wal: reading frame header at byte %d: %w", off, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 || n > MaxRecordBytes {
		// Appends never write such a length, and truncation cannot
		// manufacture one: the length bytes are either all present (and
		// then correct) or the frame is already torn.
		return nil, off, &CorruptError{Path: l.path, Offset: off,
			Reason: fmt.Sprintf("implausible record length %d", n)}
	}
	if rem-frameHeaderSize < int64(n) {
		return nil, off, errTorn
	}
	payload = make([]byte, n)
	if _, err := l.f.ReadAt(payload, off+frameHeaderSize); err != nil {
		return nil, off, fmt.Errorf("wal: reading record at byte %d: %w", off, err)
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, off, &CorruptError{Path: l.path, Offset: off,
			Reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", sum, got)}
	}
	return payload, off + frameHeaderSize + int64(n), nil
}

// Append frames payload and writes it. Under SyncAlways the record is
// on stable storage when Append returns; under SyncBatch it is durable
// after the next Sync. A failed or short write is rolled back by
// truncating the partial frame; if even that fails the log latches
// broken and refuses further appends.
func (l *Log) Append(payload []byte) error {
	return l.appendRecord(payload, 0, nil)
}

// AppendTx journals one committed transaction, as Append(EncodeTx(t,
// tx)) would, byte for byte: the record is encoded straight into the
// log's frame buffer, so a journaled commit allocates nothing once the
// buffer fits its records.
func (l *Log) AppendTx(t uint64, tx *storage.Transaction) error {
	return l.appendRecord(nil, t, tx)
}

// maxKeptFrame bounds the frame buffer a log keeps between appends: a
// larger record's buffer is dropped once it is written, so one outsized
// record does not stay pinned for the life of the log.
const maxKeptFrame = 64 << 10

// appendRecord frames one record — payload, or the encoding of tx at t
// when tx is set — in the log's frame buffer, under the lock, and writes
// the frame with one write.
func (l *Log) appendRecord(payload []byte, t uint64, tx *storage.Transaction) error {
	var start time.Time
	if l.spans != nil {
		start = time.Now()
	}
	l.mu.Lock()
	var hdr [frameHeaderSize]byte
	frame := append(l.frame[:0], hdr[:]...)
	if tx != nil {
		frame = appendTx(frame, t, tx)
	} else {
		frame = append(frame, payload...)
	}
	l.frame = frame
	if cap(frame) > maxKeptFrame {
		l.frame = nil
	}
	var err error
	var sp *obs.Span
	switch n := len(frame) - frameHeaderSize; {
	case n == 0:
		err = errors.New("wal: empty record")
	case n > MaxRecordBytes:
		err = fmt.Errorf("wal: record of %d bytes exceeds the %d-byte cap", n, MaxRecordBytes)
	default:
		binary.LittleEndian.PutUint32(frame[0:4], uint32(n))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[frameHeaderSize:], castagnoli))
		if l.spans != nil {
			sp = &obs.Span{Name: obs.SpanWALAppend, Start: start, Ops: len(frame)}
		}
		err = l.appendFrameLocked(frame, sp)
	}
	l.mu.Unlock()
	if sp != nil {
		sp.End()
		sp.Err = err
		l.spans.ObserveSpan(sp)
	}
	return err
}

// latchLocked marks the log permanently broken (caller holds mu): the
// on-disk state can no longer be trusted.
func (l *Log) latchLocked(err error) {
	if l.broken == nil {
		l.broken = err
	}
}

// appendFrameLocked writes one framed record (caller holds mu); sp
// (may be nil) collects the fsync child under SyncAlways.
func (l *Log) appendFrameLocked(frame []byte, sp *obs.Span) error {
	if l.broken != nil {
		l.countError()
		return fmt.Errorf("wal: log unusable after earlier write failure: %w", l.broken)
	}
	n, err := l.f.Write(frame)
	if err != nil || n != len(frame) {
		if err == nil {
			err = io.ErrShortWrite
		}
		// Roll the partial frame back so the on-disk prefix stays a valid
		// log; if the rollback fails we no longer know what is on disk.
		if terr := l.f.Truncate(l.size); terr != nil {
			l.latchLocked(fmt.Errorf("append failed (%v) and rollback failed (%v)", err, terr))
		}
		l.countError()
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(frame))
	l.records++
	l.dirty = true
	if m := l.metrics; m != nil {
		m.WALAppends.Inc()
		m.WALAppendedBytes.Add(uint64(len(frame)))
		m.WALSizeBytes.Set(l.size)
	}
	if l.policy == SyncAlways {
		if sp != nil {
			fs := sp.Child(obs.SpanWALFsync, "")
			err := l.syncLocked()
			fs.End()
			fs.Err = err
			return err
		}
		return l.syncLocked()
	}
	return nil
}

// Sync forces buffered appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.broken != nil {
		return fmt.Errorf("wal: log unusable after earlier write failure: %w", l.broken)
	}
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		// After a failed fsync the kernel may have dropped the dirty
		// pages; nothing about the tail can be trusted any more.
		l.latchLocked(err)
		l.countError()
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.countFsync()
	return nil
}

// Reset truncates the log back to its header — called after a
// checkpoint has made every journaled record redundant.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.resetLocked()
}

func (l *Log) resetLocked() error {
	if l.broken != nil {
		return fmt.Errorf("wal: log unusable after earlier write failure: %w", l.broken)
	}
	if err := l.f.Truncate(headerSize); err != nil {
		l.latchLocked(err)
		l.countError()
		return fmt.Errorf("wal: reset: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.latchLocked(err)
		l.countError()
		return fmt.Errorf("wal: reset sync: %w", err)
	}
	l.size = headerSize
	l.records = 0
	l.dirty = false
	l.countFsync()
	if m := l.metrics; m != nil {
		m.WALSizeBytes.Set(l.size)
	}
	return nil
}

// Truncate discards every record after the first keep, leaving the
// header and that record prefix intact. Sharded recovery uses it to cut
// per-shard journals back to the shortest common record count when a
// crash left some journals one commit ahead of the others; keep at or
// above the current record count is a no-op.
func (l *Log) Truncate(keep int) error {
	if keep < 0 {
		return fmt.Errorf("wal: truncate to negative record count %d", keep)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncateLocked(keep)
}

func (l *Log) truncateLocked(keep int) error {
	if l.broken != nil {
		return fmt.Errorf("wal: log unusable after earlier write failure: %w", l.broken)
	}
	if keep >= l.records {
		return nil
	}
	off := int64(headerSize)
	for i := 0; i < keep; i++ {
		_, next, err := l.frameAt(off, l.size)
		if err != nil {
			return fmt.Errorf("wal: truncate scan at record %d: %w", i, err)
		}
		off = next
	}
	if err := l.f.Truncate(off); err != nil {
		l.latchLocked(err)
		l.countError()
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.latchLocked(err)
		l.countError()
		return fmt.Errorf("wal: truncate sync: %w", err)
	}
	l.size = off
	l.records = keep
	l.dirty = false
	l.countFsync()
	if m := l.metrics; m != nil {
		m.WALSizeBytes.Set(l.size)
	}
	return nil
}

// Replay calls fn for every valid record payload in order and returns
// how many were delivered. It stops with the callback's error, or with
// *CorruptError on damage; a torn final record never reaches fn (Open
// already truncated it).
func (l *Log) Replay(fn func(payload []byte) error) (int, error) {
	l.mu.Lock()
	size := l.size
	l.mu.Unlock()
	off := int64(headerSize)
	n := 0
	for {
		payload, next, err := l.frameAt(off, size)
		if err == io.EOF || errors.Is(err, errTorn) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := fn(payload); err != nil {
			return n, err
		}
		n++
		off = next
	}
}

// Close flushes and closes the log file. A failed final sync latches
// the log broken in addition to being returned: the buffered tail never
// reached stable storage.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := error(nil)
	if l.broken == nil && l.dirty {
		if serr := l.f.Sync(); serr == nil {
			l.dirty = false
			l.countFsync()
		} else {
			l.latchLocked(serr)
			l.countError()
			err = fmt.Errorf("wal: close sync: %w", serr)
		}
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}

// Err reports the sticky broken-latch error, nil while the log is
// usable.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

// Rename atomically moves the log file to newPath through the log's
// filesystem, then fsyncs newPath's directory so the new name survives a
// power cut (as WriteFileAtomicFS does); subsequent Path calls report
// the new location. The open file handle survives the rename, so
// appends continue uninterrupted. A failed directory sync is returned
// after the move: the log is at newPath, but a power cut may still
// restore whatever the name held before. The durability manager uses
// Rename to rotate a freshly opened segment over a broken journal.
func (l *Log) Rename(newPath string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.fs.Rename(l.path, newPath); err != nil {
		return fmt.Errorf("wal: renaming %s to %s: %w", l.path, newPath, err)
	}
	l.path = newPath
	if err := vfs.SyncDir(l.fs, filepath.Dir(newPath)); err != nil {
		return fmt.Errorf("wal: syncing directory of %s: %w", newPath, err)
	}
	return nil
}

// Size reports the valid on-disk bytes (header included).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Records reports the number of valid records in the log.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// TornTail reports whether Open truncated a torn final record, and at
// which byte offset it started.
func (l *Log) TornTail() (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tornOffset, l.torn
}

// Path returns the log's file path (tracking renames).
func (l *Log) Path() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.path
}

func (l *Log) countFsync() {
	if m := l.metrics; m != nil {
		m.WALFsyncs.Inc()
	}
}

func (l *Log) countError() {
	if m := l.metrics; m != nil {
		m.WALErrors.Inc()
	}
}
