package monitor

import (
	"fmt"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/vfs"
	"rtic/internal/wal"
)

// The fault tests below put the fault filesystem under the last journal
// only (see openJournals), so its op indexes are the same for one
// journal and for several: open(1), header write(2)+sync(3), then a
// write and a sync per append — 4 and 5 for the first commit, 6 and 7
// for the second.

// waitHealthy polls the health function until the status clears or the
// deadline passes.
func waitHealthy(t *testing.T, health func() DurabilityHealth) DurabilityHealth {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := health()
		if h.Status == "ok" {
			return h
		}
		if time.Now().After(deadline) {
			t.Fatalf("durability never re-armed; health = %+v", h)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func insertAt(t *testing.T, m *Monitor, ts uint64, e int64) {
	t.Helper()
	if _, err := m.Apply(ts, storage.NewTransaction().Insert("hire", tuple.Ints(e))); err != nil {
		t.Fatalf("commit at t=%d: %v", ts, err)
	}
}

// TestDrainRearmAfterTransientFailure fires one transient ENOSPC at a
// journal append: the commit is still acknowledged, the manager
// degrades with the record in its backlog, and the re-arm loop drains
// it back into the (never broken) journal — into exactly the journal
// that missed it, so several journals end up aligned again. A post-crash
// replay must see every commit, including the one from the degraded
// window.
func TestDrainRearmAfterTransientFailure(t *testing.T) {
	forJournalCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		snapPath := snapshotPath(dir)
		ffs := vfs.NewFaultFS(vfs.OS, vfs.Injection{AtOp: 6, Op: vfs.OpWrite, Kind: vfs.ENOSPC})

		m1 := durableMonitor(t, n)
		logs1 := openJournals(t, dir, n, wal.WithFS(ffs))
		d1 := attachDurable(t, m1, logs1, snapPath, WithRearmBackoff(5*time.Millisecond, 50*time.Millisecond))

		insertAt(t, m1, 10, 1)
		insertAt(t, m1, 20, 2) // the last journal's append fails, commit still acknowledged
		h := waitHealthy(t, d1.Health)
		if h.Rearms != 1 || h.BacklogRecords != 0 {
			t.Fatalf("health after drain re-arm = %+v, want 1 re-arm and an empty backlog", h)
		}
		insertAt(t, m1, 30, 3)
		for i, l := range logs1 {
			if err := l.Err(); err != nil {
				t.Fatalf("journal %d latched broken after a transient failure: %v", i, err)
			}
			if got := l.Records(); got != 3 {
				t.Fatalf("journal %d holds %d records after drain, want 3 (journals misaligned)", i, got)
			}
		}
		d1.Stop()
		// Crash without closing; recover over the real filesystem.
		m2, _, replayed := recoverFrom(t, dir, n, snapPath)
		if replayed != 3 {
			t.Fatalf("Recover replayed %d commits; want all 3 (degraded-window commit included)", replayed)
		}
		if m2.Now() != 30 {
			t.Fatalf("recovered Now = %d, want 30", m2.Now())
		}
	})
}

// TestFreshSegmentRearmAfterBrokenLog latches a journal broken (fsync
// failure) and verifies the checkpoint-class re-arm: a fresh segment is
// rotated over every journal — the healthy ones too, the checkpoint
// supersedes them all — behind an atomic checkpoint that covers the
// degraded window, and recovery from checkpoint + fresh journals
// reproduces the full state.
func TestFreshSegmentRearmAfterBrokenLog(t *testing.T) {
	forJournalCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		snapPath := snapshotPath(dir)
		// Op 7 is the second append's fsync: the write lands, the sync
		// fails, the journal latches broken.
		ffs := vfs.NewFaultFS(vfs.OS, vfs.Injection{AtOp: 7, Op: vfs.OpSync, Kind: vfs.SyncFailure})

		m1 := durableMonitor(t, n)
		logs1 := openJournals(t, dir, n, wal.WithFS(ffs))
		d1 := attachDurable(t, m1, logs1, snapPath, WithRearmBackoff(5*time.Millisecond, 50*time.Millisecond))

		insertAt(t, m1, 10, 1)
		insertAt(t, m1, 20, 2) // fsync fails: journal breaks, manager degrades
		if err := logs1[n-1].Err(); err == nil {
			t.Fatal("expected the original journal to latch broken")
		}
		h := waitHealthy(t, d1.Health)
		if h.Rearms != 1 {
			t.Fatalf("health after fresh-segment re-arm = %+v, want 1 re-arm", h)
		}
		if h.LastCheckpointAgeSeconds < 0 {
			t.Fatalf("re-arm did not record its checkpoint: %+v", h)
		}
		insertAt(t, m1, 30, 3) // lands in the fresh segments
		for i := 0; i < n; i++ {
			if _, err := os.Stat(journalPath(dir, n, i) + ".rearm"); !os.IsNotExist(err) {
				t.Fatalf("re-arm staging segment %d left behind: %v", i, err)
			}
		}

		// Crash; recover from checkpoint + fresh journals over the real FS.
		m2, _, replayed := recoverFrom(t, dir, n, snapPath)
		if replayed != 1 {
			t.Fatalf("Recover replayed %d commits; want the 1 post-re-arm record", replayed)
		}
		if m2.Now() != 30 || m2.Len() != 3 {
			t.Fatalf("recovered to Len=%d Now=%d, want 3/30", m2.Len(), m2.Now())
		}
	})
}

// TestBacklogOverflowForcesCheckpointRearm caps the backlog at one
// record and commits past it during a degraded window: the overflow
// rules out a drain, so the re-arm must go through the checkpoint
// class even though no journal latched broken.
func TestBacklogOverflowForcesCheckpointRearm(t *testing.T) {
	forJournalCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		snapPath := snapshotPath(dir)
		ffs := vfs.NewFaultFS(vfs.OS, vfs.Injection{AtOp: 4, Op: vfs.OpWrite, Kind: vfs.ENOSPC})

		m1 := durableMonitor(t, n)
		logs1 := openJournals(t, dir, n, wal.WithFS(ffs))
		d1 := attachDurable(t, m1, logs1, snapPath,
			WithBacklogLimit(1),
			WithRearmBackoff(200*time.Millisecond, time.Second))

		// All three commits land before the first re-arm attempt (the
		// backoff floor is 100ms of jittered delay): the first fails its
		// append and fills the one-record backlog, the next two overflow it.
		insertAt(t, m1, 10, 1)
		insertAt(t, m1, 20, 2)
		insertAt(t, m1, 30, 3)
		if h := d1.Health(); !h.BacklogOverflow || h.Status != "degraded" {
			t.Fatalf("health before re-arm = %+v, want a degraded overflowed backlog", h)
		}
		h := waitHealthy(t, d1.Health)
		if h.Rearms != 1 || h.BacklogOverflow {
			t.Fatalf("health after overflow re-arm = %+v", h)
		}

		// The checkpoint must cover every commit; the fresh journals are
		// empty.
		m2, _, replayed := recoverFrom(t, dir, n, snapPath)
		if replayed != 0 || m2.Now() != 30 || m2.Len() != 3 {
			t.Fatalf("checkpoint covers Len=%d Now=%d (+%d replayed), want 3/30 with nothing to replay", m2.Len(), m2.Now(), replayed)
		}
	})
}

// TestCheckpointSkippedWhileDegraded pins that the periodic checkpointer
// defers to the re-arm loop: while degraded, Checkpoint is a no-op that
// neither rotates a snapshot nor resets the journals the drain needs.
func TestCheckpointSkippedWhileDegraded(t *testing.T) {
	forJournalCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		snapPath := snapshotPath(dir)
		ffs := vfs.NewFaultFS(vfs.OS, vfs.Injection{AtOp: 4, Op: vfs.OpWrite, Kind: vfs.ENOSPC})

		m1 := durableMonitor(t, n)
		logs1 := openJournals(t, dir, n, wal.WithFS(ffs))
		// An hour of backoff keeps the manager degraded for the whole test.
		d1 := attachDurable(t, m1, logs1, snapPath, WithRearmBackoff(time.Hour, time.Hour))
		insertAt(t, m1, 10, 1)
		if h := d1.Health(); h.Status != "degraded" || h.BacklogRecords != 1 || h.DegradedSeconds <= 0 {
			t.Fatalf("health = %+v, want degraded with 1 backlog record", h)
		}
		if err := d1.Checkpoint(); err != nil {
			t.Fatalf("degraded checkpoint should be a silent no-op, got %v", err)
		}
		if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
			t.Fatalf("degraded checkpoint rotated a snapshot: %v", err)
		}
		if h := d1.Health(); h.Status != "degraded" || h.BacklogRecords != 1 {
			t.Fatalf("health changed across a skipped checkpoint: %+v", h)
		}
		d1.Stop() // must cleanly stop the still-sleeping re-arm loop
	})
}

// TestHaltPolicyCallsHaltOnce wires the Halt policy and verifies the
// halt function fires exactly once across repeated failures while
// commits keep succeeding (the engine has already applied them).
func TestHaltPolicyCallsHaltOnce(t *testing.T) {
	forJournalCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		// Op 5 is the first append's fsync: the journal latches broken and
		// every later append to it fails too.
		ffs := vfs.NewFaultFS(vfs.OS, vfs.Injection{AtOp: 5, Op: vfs.OpSync, Kind: vfs.SyncFailure})

		m1 := durableMonitor(t, n)
		logs1 := openJournals(t, dir, n, wal.WithFS(ffs))
		var halts atomic.Int64
		d1 := attachDurable(t, m1, logs1, "",
			WithFailurePolicy(Halt),
			WithHaltFunc(func(error) { halts.Add(1) }))

		insertAt(t, m1, 10, 1) // fsync fails: halt fires
		insertAt(t, m1, 20, 2) // append on the broken journal fails again
		if got := halts.Load(); got != 1 {
			t.Fatalf("halt fired %d times, want exactly 1", got)
		}
		h := d1.Health()
		if h.Status != "degraded" || h.Policy != "halt" || h.Rearms != 0 {
			t.Fatalf("health under halt policy = %+v", h)
		}
		if m1.Len() != 2 {
			t.Fatalf("commits under halt policy: Len = %d, want 2", m1.Len())
		}
	})
}

// crashRun drives one durable monitor over a fault filesystem shared by
// every journal and the checkpoint: it commits the first steps of the
// trace, runs during (the operation a crash is swept across), waits
// for the filesystem to crash or the manager to be healthy, and
// abandons everything. It returns the ops the filesystem saw before
// and after during.
func crashRun(t *testing.T, dir string, n, steps int, plan []vfs.Injection, during func(d *Durable)) (before, after uint64) {
	t.Helper()
	ffs := vfs.NewFaultFS(vfs.OS, plan...)
	m := durableMonitor(t, n)
	logs := make([]*wal.Log, n)
	for i := range logs {
		l, err := wal.Open(journalPath(dir, n, i), wal.WithFS(ffs))
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = l
	}
	d := attachDurable(t, m, logs, snapshotPath(dir), WithDurableFS(ffs),
		WithRearmBackoff(time.Millisecond, 4*time.Millisecond))
	applyAll(t, m, hrTrace(steps))
	before = ffs.OpCount()
	during(d)
	for end := time.Now().Add(10 * time.Second); !ffs.Crashed() && d.Health().Status != "ok"; {
		if time.Now().After(end) {
			t.Fatalf("neither crashed nor re-armed; health = %+v", d.Health())
		}
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	return before, ffs.OpCount()
}

// checkRecoversWholeTrace recovers dir on the real filesystem and
// requires the state of an uninterrupted run over the same steps, then
// finishes a longer trace on both to compare behaviour, not just
// counters — journaling it, so that a second crash and recovery also
// proves the journals were left aligned (a journal may still start with
// records the checkpoint covers).
func checkRecoversWholeTrace(t *testing.T, dir string, n, steps int, label string) {
	t.Helper()
	trace := hrTrace(steps + 6)
	ref := durableMonitor(t, n)
	applyAll(t, ref, trace[:steps])
	m, d, _ := recoverFrom(t, dir, n, snapshotPath(dir))
	if m.Len() != steps || m.Now() != ref.Now() || !reflect.DeepEqual(m.Stats(), ref.Stats()) {
		t.Fatalf("%s: recovered Len=%d Now=%d stats=%+v, want %d/%d %+v",
			label, m.Len(), m.Now(), m.Stats(), steps, ref.Now(), ref.Stats())
	}
	d.Attach()
	got, want := applyAll(t, m, trace[steps:]), applyAll(t, ref, trace[steps:])
	if !reflect.DeepEqual(violationKeys(got), violationKeys(want)) {
		t.Fatalf("%s: post-recovery violations = %v, want %v", label, violationKeys(got), violationKeys(want))
	}
	m, _, _ = recoverFrom(t, dir, n, snapshotPath(dir))
	if m.Len() != len(trace) || !reflect.DeepEqual(m.Stats(), ref.Stats()) {
		t.Fatalf("%s: second recovery reached Len=%d stats=%+v, want %d %+v",
			label, m.Len(), m.Stats(), len(trace), ref.Stats())
	}
}

// TestCheckpointCrashSweep crashes the disk at every filesystem op of
// one checkpoint — snapshot temp file, fsync, rename, then one reset
// per journal — and recovers on a clean filesystem. After the rename
// the journals are reset one at a time, so a crash between two resets
// leaves journals of different lengths whose surplus the checkpoint
// covers; recovery must filter by the checkpoint's clock before it
// compares journals, or it would see a torn tail and truncate.
func TestCheckpointCrashSweep(t *testing.T) {
	const steps = 7
	forJournalCounts(t, func(t *testing.T, n int) {
		checkpoint := func(d *Durable) { d.Checkpoint() }
		first, last := crashRun(t, t.TempDir(), n, steps, nil, checkpoint)
		if last-first < uint64(3+2*n) {
			t.Fatalf("a checkpoint over %d journals took %d ops; the sweep is not covering it", n, last-first)
		}
		for op := first + 1; op <= last; op++ {
			dir := t.TempDir()
			crashRun(t, dir, n, steps, []vfs.Injection{{AtOp: op, Kind: vfs.Crash}}, checkpoint)
			checkRecoversWholeTrace(t, dir, n, steps, fmt.Sprintf("crash at op %d", op))
		}
	})
}

// TestFreshRearmCrashSweep does the same for one fresh-segment re-arm:
// the last journal's final fsync fails (the record itself landed), the
// re-arm opens a staging segment per journal, writes the checkpoint and
// renames each segment into place — and the disk crashes at every op of
// that sequence in turn.
func TestFreshRearmCrashSweep(t *testing.T) {
	const steps = 5
	forJournalCounts(t, func(t *testing.T, n int) {
		// The last op of the last commit is the last journal's fsync.
		_, latchOp := crashRun(t, t.TempDir(), n, steps, nil, func(*Durable) {})
		latch := vfs.Injection{AtOp: latchOp, Op: vfs.OpSync, Kind: vfs.SyncFailure}
		_, last := crashRun(t, t.TempDir(), n, steps, []vfs.Injection{latch}, func(d *Durable) {
			if h := waitHealthy(t, d.Health); h.Rearms != 1 {
				t.Fatalf("calibration run did not re-arm once: %+v", h)
			}
		})
		if last-latchOp < uint64(3+5*n) {
			t.Fatalf("a fresh-segment re-arm over %d journals took %d ops; the sweep is not covering it", n, last-latchOp)
		}
		for op := latchOp + 1; op <= last; op++ {
			dir := t.TempDir()
			crashRun(t, dir, n, steps, []vfs.Injection{latch, {AtOp: op, Kind: vfs.Crash}}, func(*Durable) {})
			checkRecoversWholeTrace(t, dir, n, steps, fmt.Sprintf("crash at op %d", op))
		}
	})
}
