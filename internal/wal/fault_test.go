package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/vfs"
)

// buildLogFile writes n transaction records through a real log and
// returns the raw file bytes plus the framed payloads in order.
func buildLogFile(t *testing.T, n int) (raw []byte, want [][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fault.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tx := storage.NewTransaction().
			Insert("hire", tuple.Ints(int64(i))).
			Delete("fire", tuple.Ints(int64(i)))
		p := EncodeTx(uint64(i*10), tx)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw, want
}

// replayFile opens bytes as a WAL and replays it, returning the
// recovered payloads.
func replayFile(t *testing.T, raw []byte) ([][]byte, *Log, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "case.wal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		return nil, nil, err
	}
	var got [][]byte
	if _, err := l.Replay(func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		l.Close()
		return nil, nil, err
	}
	return got, l, nil
}

// TestTruncateEveryOffset is the central torn-write theorem: cutting
// the file at ANY byte offset must recover the longest record prefix
// that fully fits, without error — the torn final record (and nothing
// else) disappears.
func TestTruncateEveryOffset(t *testing.T) {
	raw, want := buildLogFile(t, 4)
	// Frame boundaries: record i is complete once the file holds
	// headerSize plus the frames of records 0..i.
	bounds := []int{headerSize}
	off := headerSize
	for _, p := range want {
		off += frameHeaderSize + len(p)
		bounds = append(bounds, off)
	}
	if off != len(raw) {
		t.Fatalf("frame arithmetic: computed end %d, file is %d bytes", off, len(raw))
	}
	for cut := 0; cut <= len(raw); cut++ {
		got, l, err := replayFile(t, raw[:cut])
		if cut < headerSize {
			// Not even a magic header: reported as corrupt, never a crash.
			if err == nil {
				l.Close()
				if cut != 0 {
					t.Errorf("cut=%d: sub-header file accepted", cut)
				}
				continue
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		wantN := 0
		for _, b := range bounds[1:] {
			if cut >= b {
				wantN++
			}
		}
		if len(got) != wantN {
			t.Errorf("cut=%d: recovered %d records, want %d", cut, len(got), wantN)
		}
		for i := 0; i < len(got) && i < wantN; i++ {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("cut=%d: record %d mutated", cut, i)
			}
		}
		// Appending after recovery extends the valid prefix.
		if err := l.Append([]byte("post-recovery")); err != nil {
			t.Errorf("cut=%d: append after recovery: %v", cut, err)
		}
		l.Close()
	}
}

// TestBitFlipNeverYieldsWrongData flips every byte of the file (one at
// a time) and asserts the log never serves mutated records: each flip
// either fails loudly or recovers a strict prefix of the originals.
func TestBitFlipNeverYieldsWrongData(t *testing.T) {
	raw, want := buildLogFile(t, 3)
	detected, prefixed := 0, 0
	for i := 0; i < len(raw); i++ {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x40
		got, l, err := replayFile(t, mut)
		if err != nil {
			detected++
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Errorf("flip@%d: error %v is not a *CorruptError", i, err)
			}
			continue
		}
		// Accepted: every recovered record must match the original
		// prefix (a flip in a length field can make the tail look torn,
		// which silently drops records but never corrupts them).
		for j := range got {
			if j >= len(want) || !bytes.Equal(got[j], want[j]) {
				t.Fatalf("flip@%d: record %d served with mutated content", i, j)
			}
		}
		prefixed++
		l.Close()
	}
	if detected == 0 {
		t.Error("no bit flip was ever detected as corruption")
	}
	t.Logf("bit flips over %d bytes: %d detected as corrupt, %d degraded to a valid prefix", len(raw), detected, prefixed)
}

// faultFile wraps an in-memory file and fails or shortens writes on
// command.
type faultFile struct {
	buf       []byte
	failAfter int   // bytes accepted before writes start failing (-1 = never)
	shortBy   int   // bytes silently dropped from each write (short write)
	syncErr   error // injected fsync failure
	truncErr  error // injected truncate failure
	syncs     int
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.shortBy > 0 && len(p) > f.shortBy {
		n := len(p) - f.shortBy
		f.buf = append(f.buf, p[:n]...)
		return n, nil
	}
	if f.failAfter >= 0 && len(f.buf)+len(p) > f.failAfter {
		room := f.failAfter - len(f.buf)
		if room < 0 {
			room = 0
		}
		f.buf = append(f.buf, p[:room]...)
		return room, fmt.Errorf("injected write failure")
	}
	f.buf = append(f.buf, p...)
	return len(p), nil
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.buf)) {
		return 0, fmt.Errorf("read past end")
	}
	n := copy(p, f.buf[off:])
	if n < len(p) {
		return n, fmt.Errorf("short read")
	}
	return n, nil
}

func (f *faultFile) Sync() error {
	if f.syncErr != nil {
		return f.syncErr
	}
	f.syncs++
	return nil
}

func (f *faultFile) Truncate(size int64) error {
	if f.truncErr != nil {
		return f.truncErr
	}
	if size < int64(len(f.buf)) {
		f.buf = f.buf[:size]
	}
	return nil
}

func (f *faultFile) Close() error { return nil }

func newFaultLog(t *testing.T, f *faultFile) *Log {
	t.Helper()
	l, err := newLog(f, "fault.wal", int64(len(f.buf)), logOptions{policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestFailingWriterRollsBack(t *testing.T) {
	f := &faultFile{failAfter: headerSize + 20}
	l := newFaultLog(t, f)
	if err := l.Append(bytes.Repeat([]byte("a"), 8)); err != nil { // 16-byte frame, fits
		t.Fatal(err)
	}
	if err := l.Append(bytes.Repeat([]byte("b"), 8)); err == nil { // would cross failAfter
		t.Fatal("append past the failure point succeeded")
	}
	// The partial frame was truncated away: the on-disk bytes replay to
	// exactly the first record.
	got, _, err := replayFile(t, f.buf)
	if err != nil {
		t.Fatalf("replay after failed append: %v", err)
	}
	if len(got) != 1 || string(got[0]) != "aaaaaaaa" {
		t.Fatalf("recovered %q, want the single pre-failure record", got)
	}
	if l.Size() != int64(len(f.buf)) {
		t.Errorf("Size()=%d, file has %d bytes", l.Size(), len(f.buf))
	}
}

func TestShortWriterRollsBack(t *testing.T) {
	f := &faultFile{failAfter: -1}
	l := newFaultLog(t, f)
	if err := l.Append([]byte("complete")); err != nil {
		t.Fatal(err)
	}
	f.shortBy = 3
	if err := l.Append([]byte("shortened")); err == nil {
		t.Fatal("short write not surfaced")
	}
	f.shortBy = 0
	got, _, err := replayFile(t, f.buf)
	if err != nil || len(got) != 1 || string(got[0]) != "complete" {
		t.Fatalf("after short write: records=%q err=%v", got, err)
	}
	// The log stays usable once writes heal.
	if err := l.Append([]byte("healed")); err != nil {
		t.Fatalf("append after healed writer: %v", err)
	}
	got, _, err = replayFile(t, f.buf)
	if err != nil || len(got) != 2 || string(got[1]) != "healed" {
		t.Fatalf("after heal: records=%q err=%v", got, err)
	}
}

func TestBrokenLatchAfterFailedRollback(t *testing.T) {
	f := &faultFile{failAfter: headerSize + 4}
	l := newFaultLog(t, f)
	f.truncErr = fmt.Errorf("injected truncate failure")
	if err := l.Append([]byte("doomed record")); err == nil {
		t.Fatal("append succeeded past failure point")
	}
	// Rollback failed: the log must refuse everything from now on, even
	// after the underlying writes heal.
	f.failAfter, f.truncErr = -1, nil
	if err := l.Append([]byte("x")); err == nil {
		t.Fatal("broken log accepted an append")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("broken log accepted a sync")
	}
	if err := l.Reset(); err == nil {
		t.Fatal("broken log accepted a reset")
	}
}

// Live-fault cases: the same failure classes as above, but injected
// through a vfs.FaultFS under a real log on disk — proving the
// injectable filesystem reproduces every behavior the hand-rolled
// faultFile pinned, plus the cross-restart consequences (what the next
// Open sees).

// TestLiveENOSPCRollsBackAndHeals injects a disk-full error on one
// append's write: the append fails, the partial frame is rolled back,
// the log stays usable once space clears, and a reopen sees exactly
// the successful records.
func TestLiveENOSPCRollsBackAndHeals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.wal")
	// Ops: open=1, header write=2, header sync=3, directory open,
	// sync and close=4-6; append k is write, then sync (SyncAlways).
	// Fail the second append's write (op 9).
	ffs := vfs.NewFaultFS(vfs.OS, vfs.Injection{AtOp: 9, Op: vfs.OpWrite, Kind: vfs.ENOSPC})
	l, err := Open(path, WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("lost")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append on a full disk: %v, want ENOSPC", err)
	}
	if l.Err() != nil {
		t.Fatalf("clean rollback latched the log: %v", l.Err())
	}
	if err := l.Append([]byte("healed")); err != nil {
		t.Fatalf("append after space cleared: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := replayFile(t, raw)
	if err != nil || len(got) != 2 || string(got[0]) != "kept" || string(got[1]) != "healed" {
		t.Fatalf("reopen recovered %q, %v", got, err)
	}
}

// TestLiveShortWriteTearTruncatedOnReopen is the satellite case: a
// short write tears a frame mid-append and the crash takes the rollback
// with it, so the torn frame reaches disk — the next wal.Open must
// truncate it away and recover the clean prefix.
func TestLiveShortWriteTearTruncatedOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	// Ops: open=1, header write=2, header sync=3, directory open, sync
	// and close=4-6, append1 write=7, append1 sync=8. Tear append2's
	// write (op 9) and crash on the rollback truncate (op 10): the
	// partial frame stays on disk.
	ffs := vfs.NewFaultFS(vfs.OS,
		vfs.Injection{AtOp: 9, Op: vfs.OpWrite, Kind: vfs.ShortWrite},
		vfs.Injection{AtOp: 10, Kind: vfs.Crash},
	)
	l, err := Open(path, WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("durable record")); err != nil {
		t.Fatal(err)
	}
	err = l.Append([]byte("torn record, much longer than one byte"))
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("torn append returned %v, want short write", err)
	}
	if l.Err() == nil {
		t.Fatal("failed rollback did not latch the log")
	}
	// The disk now holds a torn frame after the first record.
	raw, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(raw) <= headerSize+frameHeaderSize+len("durable record") {
		t.Fatalf("no torn bytes on disk (%d bytes); the fault did not tear", len(raw))
	}
	// Restart: a fresh Open over the real filesystem truncates the tear.
	l2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen over a torn tail: %v", err)
	}
	defer l2.Close()
	if off, torn := l2.TornTail(); !torn || off != int64(headerSize+frameHeaderSize+len("durable record")) {
		t.Fatalf("TornTail = (%d, %v), want tear at the second frame", off, torn)
	}
	var got [][]byte
	if _, err := l2.Replay(func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0]) != "durable record" {
		t.Fatalf("recovered %q, want only the durable record", got)
	}
	if err := l2.Append([]byte("after recovery")); err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
}

// TestOpenSyncsFreshLogDirectory pins that a log Open creates survives
// a power cut with its directory entry: on the disk that keeps only
// what was synced, an acknowledged record is still there. Reopening an
// existing log syncs nothing.
func TestOpenSyncsFreshLogDirectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fresh.wal")
	ffs := vfs.NewFaultFS(vfs.OS)
	l, err := Open(path, WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("acknowledged")); err != nil {
		t.Fatal(err)
	}
	strict := ffs.Images(dir, ffs.OpCount()+1)[0]
	if got, want := len(strict["fresh.wal"]), headerSize+frameHeaderSize+len("acknowledged"); got != want {
		t.Fatalf("a power cut leaves %d bytes of the journal, want %d", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	reopen := vfs.NewFaultFS(vfs.OS)
	l, err = Open(path, WithFS(reopen))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n := reopen.OpCount(); n != 1 {
		t.Fatalf("reopening an existing log took %d ops, want its open alone", n)
	}
}

// TestLiveShortHeaderWriteFailsOpen tears a fresh log's header: Open
// must fail rather than hand out a log whose file is shorter than the
// header it counts.
func TestLiveShortHeaderWriteFailsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.wal")
	ffs := vfs.NewFaultFS(vfs.OS, vfs.Injection{AtOp: 2, Op: vfs.OpWrite, Kind: vfs.ShortWrite})
	if _, err := Open(path, WithFS(ffs)); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Open over a torn header: %v, want a short write", err)
	}
}

// TestLiveBatchSyncFailureLatches: a SyncBatch log fsyncs only when
// its owner calls Sync, and an fsync failure there latches the log and
// goes back to that caller; the next Append re-reports it.
func TestLiveBatchSyncFailureLatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.wal")
	// Ops: open=1, header write=2, header sync=3, directory open, sync
	// and close=4-6, append write=7, Sync's fsync=8 — fail it.
	ffs := vfs.NewFaultFS(vfs.OS, vfs.Injection{AtOp: 8, Op: vfs.OpSync, Kind: vfs.SyncFailure})
	l, err := Open(path, WithFS(ffs), WithSyncPolicy(SyncBatch))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("buffered")); err != nil {
		t.Fatal(err)
	}
	if n := ffs.OpCount(); n != 7 {
		t.Fatalf("a batched append made %d ops, want 7 (no fsync of its own)", n)
	}
	if err := l.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync = %v, want the injected EIO", err)
	}
	if err := l.Append([]byte("refused")); err == nil {
		t.Fatal("append accepted after Sync latched the log")
	}
	if l.Err() == nil {
		t.Fatal("Err() nil after a failed Sync")
	}
}

func TestFsyncFailureLatches(t *testing.T) {
	f := &faultFile{failAfter: -1}
	l := newFaultLog(t, f)
	f.syncErr = fmt.Errorf("injected fsync failure")
	if err := l.Append([]byte("never durable")); err == nil {
		t.Fatal("append with failing fsync reported success")
	}
	f.syncErr = nil
	if err := l.Append([]byte("x")); err == nil {
		t.Fatal("log usable after an fsync failure")
	}
}
