package monitor

import (
	"bytes"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"rtic/internal/vfs"
	"rtic/internal/wal"
)

// batchJournals opens n SyncBatch journals under dir with opts, the
// last one through last.
func batchJournals(t *testing.T, dir string, n int, last vfs.FS, opts ...wal.Option) []*wal.Log {
	t.Helper()
	logs := make([]*wal.Log, n)
	for i := range logs {
		fsys := vfs.OS
		if i == n-1 {
			fsys = last
		}
		l, err := wal.Open(journalPath(dir, n, i), append([]wal.Option{wal.WithSyncPolicy(wal.SyncBatch), wal.WithFS(fsys)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = l
	}
	return logs
}

// durabilityGoroutines counts the goroutines running durability code:
// a frame in internal/wal or in a Durable method.
func durabilityGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("rtic/internal/wal.")) || bytes.Contains(g, []byte("rtic/internal/monitor.(*Durable)")) {
			n++
		}
	}
	return n
}

// TestWorkerSyncFailureDegrades: under wal.SyncBatch the worker's Sync
// is the journals' only fsync. An EIO on it degrades the manager at
// once — Health reads degraded before the next commit, which is
// journaled nowhere — and the worker's next re-arm stages a fresh
// .rearm segment over the latched journal, behind a checkpoint that
// covers both commits.
func TestWorkerSyncFailureDegrades(t *testing.T) {
	forJournalCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		// A batched commit makes one op on the last journal, its write
		// (7); op 8 is the worker's Sync of it.
		ffs := vfs.NewFaultFS(vfs.OS, vfs.Injection{AtOp: 8, Op: vfs.OpSync, Kind: vfs.SyncFailure})
		m1 := durableMonitor(t, n)
		logs1 := batchJournals(t, dir, n, ffs)
		d1 := attachDurable(t, m1, logs1, snapshotPath(dir), WithDurableFS(ffs))
		d1.Start(0)
		defer d1.Stop()

		insertAt(t, m1, 10, 1)
		h := waitStatus(t, d1.Health, "degraded")
		if !strings.Contains(h.LastError, "fsync") || !strings.Contains(h.LastError, syscall.EIO.Error()) {
			t.Fatalf("degraded on %q, want the worker's failed fsync", h.LastError)
		}
		insertAt(t, m1, 20, 2) // degraded: journaled nowhere
		recs := make([]int, n)
		for i, l := range d1.currentLogs() {
			recs[i] = l.Records()
		}
		// A re-arm that beat the commit would have journaled it in an
		// emptied journal; until one has, no journal may hold it.
		if d1.Health().Rearms == 0 {
			for i, r := range recs {
				if r > 1 {
					t.Fatalf("journal %d holds %d records; the commit after the failed Sync was journaled", i, r)
				}
			}
		}

		if h := waitStatus(t, d1.Health, "ok"); h.Rearms != 1 {
			t.Fatalf("health after the re-arm = %+v, want 1 re-arm", h)
		}
		staged, seg := false, journalPath(dir, n, n-1)+rearmSuffix
		for j := uint64(1); j <= ffs.OpCount(); j++ {
			if op, p := ffs.OpAt(j); op == vfs.OpOpen && p == seg {
				staged = true
			}
		}
		if !staged {
			t.Fatalf("the re-arm staged no %s", seg)
		}
		if d1.currentLogs()[n-1] == logs1[n-1] {
			t.Fatal("the latched journal was not replaced by a fresh segment")
		}
		d1.Stop()
		m2, _, _ := recoverFrom(t, dir, n, snapshotPath(dir))
		if m2.Len() != 2 || m2.Now() != 20 {
			t.Fatalf("recovered to Len=%d Now=%d, want 2/20", m2.Len(), m2.Now())
		}
	})
}

// TestCheckpointRearmBesideWorker re-arms with Checkpoint, replacing a
// latched journal, while the worker ticks beside it. A failure the
// superseded journal reports afterwards — as a worker Sync that read
// the journals just before the swap would — must not degrade the
// manager again: the checkpoint that replaced the journal covers its
// records.
//
// The fresh segment opens with the latched journal's own options
// (wal.Log.Reopen): SyncBatch, the monitor's metrics, and the fault
// filesystem, whose two injections have fired by then. So the worker,
// not the append, syncs it, and its fsyncs count with the others.
func TestCheckpointRearmBesideWorker(t *testing.T) {
	forJournalCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		// The first commit's write (op 7) fails and so does its rollback
		// (op 8): the last journal latches.
		ffs := vfs.NewFaultFS(vfs.OS,
			vfs.Injection{AtOp: 7, Op: vfs.OpWrite, Kind: vfs.EIO},
			vfs.Injection{AtOp: 8, Op: vfs.OpTruncate, Kind: vfs.EIO})
		m1 := durableMonitor(t, n)
		mm := m1.Observer().MetricSink()
		metrics := wal.WithMetrics(mm)
		logs1 := batchJournals(t, dir, n, ffs, metrics)
		d1 := attachDurable(t, m1, logs1, snapshotPath(dir))
		d1.Start(0)
		defer d1.Stop()

		insertAt(t, m1, 10, 1)
		latched := logs1[n-1]
		if latched.Err() == nil {
			t.Fatal("expected the last journal to latch broken")
		}
		// The worker may re-arm first; then this is a plain checkpoint.
		if err := d1.Checkpoint(); err != nil {
			t.Fatalf("re-arm: %v", err)
		}
		if d1.currentLogs()[n-1] == latched {
			t.Fatal("the latched journal was not replaced")
		}
		err := latched.Sync()
		if err == nil {
			t.Fatal("Sync of the superseded journal succeeded")
		}
		d1.onFailure(latched, err)
		for k := 0; k < 3; k++ {
			base := mm.WALFsyncs.Value()
			insertAt(t, m1, uint64(20+10*k), int64(2+k))
			// The worker syncs the live journals, once each.
			for deadline := time.Now().Add(10 * time.Second); mm.WALFsyncs.Value()-base < uint64(n); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the worker never synced commit %d", k)
				}
			}
		}
		if h := d1.Health(); h.Status != "ok" || h.Rearms != 1 {
			t.Fatalf("health after the re-arm = %+v, want ok with 1 re-arm", h)
		}
	})
}

// TestOneWorkerGoroutine: a two-journal SyncBatch manager runs no
// goroutine until Start and exactly one, the worker, after it. The
// worker's first Sync comes syncInterval after Start and fsyncs each
// journal once; Stop ends it. (A Sync with nothing appended since costs
// no fsync: TestSyncPolicyBatchSyncsOnSync in internal/wal.)
func TestOneWorkerGoroutine(t *testing.T) {
	dir := t.TempDir()
	m := durableMonitor(t, 2)
	mm := m.Observer().MetricSink()
	logs := batchJournals(t, dir, 2, vfs.OS, wal.WithMetrics(mm))
	d := attachDurable(t, m, logs, snapshotPath(dir))
	defer d.CloseLogs()
	insertAt(t, m, 10, 1)
	if got := durabilityGoroutines(); got != 0 {
		t.Fatalf("%d durability goroutines before Start, want 0", got)
	}

	base := mm.WALFsyncs.Value()
	start := time.Now()
	d.Start(0)
	defer d.Stop()
	if got := durabilityGoroutines(); got != 1 {
		t.Fatalf("%d durability goroutines after Start, want 1", got)
	}
	for deadline := start.Add(10 * time.Second); mm.WALFsyncs.Value()-base < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker never synced the batched commit")
		}
	}
	if since := time.Since(start); since < syncInterval {
		t.Fatalf("the worker synced %v after Start, before its %v interval", since, syncInterval)
	}
	if got := mm.WALFsyncs.Value() - base; got != 2 {
		t.Fatalf("%d fsyncs for one batched commit over two journals, want 2", got)
	}

	d.Stop()
	for deadline := time.Now().Add(5 * time.Second); durabilityGoroutines() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d durability goroutines after Stop, want 0", durabilityGoroutines())
		}
	}
}
