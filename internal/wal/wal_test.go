package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rtic/internal/obs"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/vfs"
)

// asCorrupt reports whether err wraps a *CorruptError.
func asCorrupt(err error, ce **CorruptError) bool { return errors.As(err, ce) }

func tmpLog(t *testing.T, opts ...Option) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

func payloads(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var out [][]byte
	if _, err := l.Replay(func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, _ := tmpLog(t)
	want := [][]byte{[]byte("one"), []byte("two"), []byte("three, a longer record")}
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	got := payloads(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if l.Records() != 3 {
		t.Errorf("Records() = %d, want 3", l.Records())
	}
}

func TestReopenContinues(t *testing.T) {
	l, path := tmpLog(t)
	if err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Records() != 1 {
		t.Fatalf("reopened Records() = %d, want 1", l2.Records())
	}
	if err := l2.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	got := payloads(t, l2)
	if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "second" {
		t.Fatalf("replay after reopen = %q", got)
	}
}

func TestResetTruncatesToHeader(t *testing.T) {
	l, path := tmpLog(t)
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != headerSize || l.Records() != 0 {
		t.Fatalf("after reset: size=%d records=%d", l.Size(), l.Records())
	}
	if got := payloads(t, l); len(got) != 0 {
		t.Fatalf("replay after reset returned %d records", len(got))
	}
	// The reset survives a reopen, and the log stays appendable.
	if err := l.Append([]byte("post-reset")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := payloads(t, l2); len(got) != 1 || string(got[0]) != "post-reset" {
		t.Fatalf("replay after reset+reopen = %q", got)
	}
}

func TestAppendRejectsEmptyAndOversized(t *testing.T) {
	l, _ := tmpLog(t)
	if err := l.Append(nil); err == nil {
		t.Error("empty record accepted")
	}
	if err := l.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Error("oversized record accepted")
	}
	if l.Records() != 0 {
		t.Errorf("rejected appends counted: Records() = %d", l.Records())
	}
}

func TestOpenRejectsBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.wal")
	if err := os.WriteFile(path, []byte("GARBAGE!and then some"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	var ce *CorruptError
	if !asCorrupt(err, &ce) {
		t.Fatalf("Open on bad magic: %v, want *CorruptError", err)
	}
}

func TestSyncPolicyAlwaysFsyncsPerAppend(t *testing.T) {
	m := obs.NewMetrics(obs.NewRegistry())
	l, _ := tmpLog(t, WithSyncPolicy(SyncAlways), WithMetrics(m))
	before := m.WALFsyncs.Value()
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.WALFsyncs.Value() - before; got != 3 {
		t.Errorf("fsyncs per 3 appends = %d, want 3", got)
	}
	if m.WALAppends.Value() != 3 {
		t.Errorf("WALAppends = %d, want 3", m.WALAppends.Value())
	}
	if m.WALSizeBytes.Value() != l.Size() {
		t.Errorf("WALSizeBytes gauge %d != Size() %d", m.WALSizeBytes.Value(), l.Size())
	}
}

// TestSyncPolicyBatchSyncsOnSync: a SyncBatch append marks the log
// dirty and nothing more; the owner's Sync is the one fsync, and a Sync
// with nothing appended since is free.
func TestSyncPolicyBatchSyncsOnSync(t *testing.T) {
	m := obs.NewMetrics(obs.NewRegistry())
	l, _ := tmpLog(t, WithSyncPolicy(SyncBatch), WithMetrics(m))
	base := m.WALFsyncs.Value()
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte("batched")); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.WALFsyncs.Value() - base; got != 0 {
		t.Fatalf("3 batched appends fsynced %d times, want 0", got)
	}
	for i := 0; i < 2; i++ {
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.WALFsyncs.Value() - base; got != 1 {
		t.Fatalf("two Syncs after 3 batched appends fsynced %d times, want 1", got)
	}
}

// TestReopenKeepsOptions: a log Reopen opens carries the original's
// sync policy, metrics and filesystem: its opening goes through the
// original's filesystem, and its batched appends count in the shared
// metrics without an fsync each.
func TestReopenKeepsOptions(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewMetrics(obs.NewRegistry())
	ffs := vfs.NewFaultFS(vfs.OS)
	l, err := Open(filepath.Join(dir, "a.wal"), WithSyncPolicy(SyncBatch), WithMetrics(m), WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ops := ffs.OpCount()
	r, err := l.Reopen(filepath.Join(dir, "b.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if ffs.OpCount() == ops {
		t.Fatal("Reopen did not open through the log's filesystem")
	}
	appends, fsyncs := m.WALAppends.Value(), m.WALFsyncs.Value()
	for i := 0; i < 3; i++ {
		if err := r.Append([]byte("batched")); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.WALAppends.Value() - appends; got != 3 {
		t.Fatalf("3 appends counted %d times", got)
	}
	if got := m.WALFsyncs.Value() - fsyncs; got != 0 {
		t.Fatalf("3 batched appends fsynced %d times, want 0", got)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"always": SyncAlways, "batch": SyncBatch, "batched": SyncBatch} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
	if SyncAlways.String() != "always" || SyncBatch.String() != "batch" {
		t.Error("String() does not round-trip the flag spellings")
	}
}

func TestAppendTxRoundTrip(t *testing.T) {
	l, _ := tmpLog(t)
	tx := storage.NewTransaction().
		Insert("hire", tuple.Ints(7)).
		Delete("fire", tuple.Ints(7))
	if err := l.AppendTx(42, tx); err != nil {
		t.Fatal(err)
	}
	got := payloads(t, l)
	if len(got) != 1 {
		t.Fatalf("replayed %d records, want 1", len(got))
	}
	gt, gtx, err := DecodeTx(got[0])
	if err != nil {
		t.Fatal(err)
	}
	if gt != 42 || gtx.String() != tx.String() {
		t.Errorf("decoded t=%d tx=%q, want t=42 tx=%q", gt, gtx.String(), tx.String())
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "v1" {
		t.Fatalf("content = %q", b)
	}
	// A failing writer leaves the previous version intact and no temp
	// files behind.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("half-written v2"))
		return fmt.Errorf("injected failure")
	}); err == nil {
		t.Fatal("failing write func did not propagate its error")
	}
	if b, _ := os.ReadFile(path); string(b) != "v1" {
		t.Fatalf("previous version destroyed: %q", b)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}

func TestTruncateKeepsRecordPrefix(t *testing.T) {
	l, path := tmpLog(t)
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 3 {
		t.Fatalf("Records() = %d, want 3", l.Records())
	}
	got := payloads(t, l)
	if len(got) != 3 || string(got[2]) != "record-2" {
		t.Fatalf("replay after truncate = %q", got)
	}
	// Appends extend the cut prefix, and the file reopens cleanly.
	if err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := payloads(t, l2); len(got) != 4 || string(got[3]) != "after" {
		t.Fatalf("replay after reopen = %q", got)
	}
	// Keeping at or above the record count is a no-op; negatives error.
	if err := l2.Truncate(10); err != nil || l2.Records() != 4 {
		t.Fatalf("Truncate(10) = %v, records %d", err, l2.Records())
	}
	if err := l2.Truncate(-1); err == nil {
		t.Fatal("Truncate(-1) succeeded")
	}
	if err := l2.Truncate(0); err != nil || l2.Records() != 0 {
		t.Fatalf("Truncate(0) = %v, records %d", err, l2.Records())
	}
	if got := payloads(t, l2); len(got) != 0 {
		t.Fatalf("replay after Truncate(0) = %q", got)
	}
}
