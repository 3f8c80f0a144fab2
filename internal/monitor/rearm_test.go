package monitor

import (
	"os"
	"path/filepath"
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
// journal and for several: open(1), header write(2)+sync(3), the
// directory's open(4), sync(5) and close(6), then a write and a sync
// per append — 7 and 8 for the first commit, 9 and 10 for the second.

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

// TestRearmAfterTransientFailureResetsInPlace fires one transient ENOSPC
// at a journal append: the commit is still acknowledged, the manager
// degrades and stops journaling, and the re-arm loop's rotation writes
// a checkpoint covering the degraded window and resets every journal in
// place — the caller's handles stay the live journals. A post-crash
// replay must see every commit, including the one from the degraded
// window.
func TestRearmAfterTransientFailureResetsInPlace(t *testing.T) {
	forJournalCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		snapPath := snapshotPath(dir)
		ffs := vfs.NewFaultFS(vfs.OS, vfs.Injection{AtOp: 9, Op: vfs.OpWrite, Kind: vfs.ENOSPC})

		m1 := durableMonitor(t, n)
		logs1 := openJournals(t, dir, n, wal.WithFS(ffs))
		d1 := attachDurable(t, m1, logs1, snapPath, WithRearmBackoff(5*time.Millisecond, 50*time.Millisecond))

		insertAt(t, m1, 10, 1)
		insertAt(t, m1, 20, 2) // the last journal's append fails, commit still acknowledged
		h := waitHealthy(t, d1.Health)
		if h.Rearms != 1 || h.LastCheckpointAgeSeconds < 0 {
			t.Fatalf("health after re-arm = %+v, want 1 re-arm and a checkpoint", h)
		}
		insertAt(t, m1, 30, 3)
		for i, l := range logs1 {
			if got := d1.currentLogs()[i]; got != l {
				t.Fatalf("journal %d was replaced; a usable journal must be reset in place", i)
			}
			if got := l.Records(); got != 1 {
				t.Fatalf("journal %d holds %d records after the re-arm, want the 1 commit since", i, got)
			}
		}
		d1.Stop()
		// Crash without closing; recover over the real filesystem.
		m2, _, replayed := recoverFrom(t, dir, n, snapPath)
		if replayed != 1 || m2.Now() != 30 || m2.Len() != 3 {
			t.Fatalf("recovered to Len=%d Now=%d (+%d replayed), want 3/30 with 1 replayed", m2.Len(), m2.Now(), replayed)
		}
	})
}

// TestFreshSegmentRearmAfterBrokenLog latches a journal broken (fsync
// failure) and verifies the rotation's other arm: a fresh segment is
// renamed over the latched journal — the healthy ones are reset in
// place — behind an atomic checkpoint that covers the degraded window,
// and recovery from checkpoint + journals reproduces the full state.
func TestFreshSegmentRearmAfterBrokenLog(t *testing.T) {
	forJournalCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		snapPath := snapshotPath(dir)
		// Op 10 is the second append's fsync: the write lands, the sync
		// fails, the journal latches broken.
		ffs := vfs.NewFaultFS(vfs.OS, vfs.Injection{AtOp: 10, Op: vfs.OpSync, Kind: vfs.SyncFailure})

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
		for i, l := range d1.currentLogs() {
			if replaced := l != logs1[i]; replaced != (i == n-1) {
				t.Fatalf("journal %d replaced=%v; only the latched journal takes a fresh segment", i, replaced)
			}
		}
		insertAt(t, m1, 30, 3) // lands in the emptied journals
		for i := 0; i < n; i++ {
			if _, err := os.Stat(journalPath(dir, n, i) + ".rearm"); !os.IsNotExist(err) {
				t.Fatalf("re-arm staging segment %d left behind: %v", i, err)
			}
		}

		// Crash; recover from checkpoint + journals over the real FS.
		m2, _, replayed := recoverFrom(t, dir, n, snapPath)
		if replayed != 1 {
			t.Fatalf("Recover replayed %d commits; want the 1 post-re-arm record", replayed)
		}
		if m2.Now() != 30 || m2.Len() != 3 {
			t.Fatalf("recovered to Len=%d Now=%d, want 3/30", m2.Len(), m2.Now())
		}
	})
}

// degradedFaults are the two ways a journal failure leaves the manager
// degraded: a transient ENOSPC on the first append's write (the journal
// stays usable and is reset in place) and a failed fsync on it (the
// journal latches and takes a fresh segment).
var degradedFaults = []struct {
	name string
	inj  vfs.Injection
}{
	{"enospc", vfs.Injection{AtOp: 7, Op: vfs.OpWrite, Kind: vfs.ENOSPC}},
	{"fsync", vfs.Injection{AtOp: 8, Op: vfs.OpSync, Kind: vfs.SyncFailure}},
}

// TestCheckpointWhileDegradedRearms pins that Checkpoint is a re-arm
// attempt while degraded: one that cannot write the snapshot returns
// the error and leaves the manager degraded, one that can re-arms — it
// never returns nil without writing a snapshot. Journaling resumes
// behind it.
func TestCheckpointWhileDegradedRearms(t *testing.T) {
	forJournalCounts(t, func(t *testing.T, n int) {
		for _, f := range degradedFaults {
			t.Run(f.name, func(t *testing.T) {
				dir := t.TempDir()
				snapPath := snapshotPath(dir)
				m1 := durableMonitor(t, n)
				logs1 := openJournals(t, dir, n, wal.WithFS(vfs.NewFaultFS(vfs.OS, f.inj)))
				// An hour of backoff keeps the re-arm loop asleep: only
				// Checkpoint can heal.
				d1 := attachDurable(t, m1, logs1, snapPath, WithRearmBackoff(time.Hour, time.Hour))
				defer d1.Stop()
				insertAt(t, m1, 10, 1)
				if h := d1.Health(); h.Status != "degraded" || h.DegradedSeconds <= 0 {
					t.Fatalf("health = %+v, want degraded", h)
				}
				insertAt(t, m1, 20, 2) // degraded: journaled nowhere
				for i, l := range d1.currentLogs() {
					if l.Records() > 1 {
						t.Fatalf("journal %d holds %d records; a degraded manager must stop journaling", i, l.Records())
					}
				}

				d1.snapPath = filepath.Join(dir, "no-such-dir", "state.snap")
				if err := d1.Checkpoint(); err == nil {
					t.Fatal("degraded checkpoint into a missing directory returned nil")
				}
				if h := d1.Health(); h.Status != "degraded" || h.Rearms != 0 {
					t.Fatalf("health after a failed degraded checkpoint = %+v, want still degraded", h)
				}

				d1.snapPath = snapPath
				if err := d1.Checkpoint(); err != nil {
					t.Fatalf("degraded checkpoint on a healed disk: %v", err)
				}
				if h := d1.Health(); h.Status != "ok" || h.Rearms != 1 || h.LastCheckpointAgeSeconds < 0 {
					t.Fatalf("health after a degraded checkpoint = %+v, want ok with 1 re-arm", h)
				}
				insertAt(t, m1, 30, 3)
				for i, l := range d1.currentLogs() {
					if l.Records() != 1 {
						t.Fatalf("journal %d holds %d records after the re-arm, want 1", i, l.Records())
					}
				}
			})
		}
	})
}

// TestShutdownCheckpointWhileDegraded is a daemon's shutdown while
// degraded: the re-arm loop is asleep (an hour of backoff), the disk
// heals, then Stop and a final Checkpoint. The checkpoint must be
// written and cover the degraded window, and Health must read ok — a
// shutdown must not report success while discarding those commits.
func TestShutdownCheckpointWhileDegraded(t *testing.T) {
	forJournalCounts(t, func(t *testing.T, n int) {
		for _, f := range degradedFaults {
			t.Run(f.name, func(t *testing.T) {
				dir := t.TempDir()
				snapPath := snapshotPath(dir)
				m1 := durableMonitor(t, n)
				// The one-shot injection is the whole outage: the disk has
				// healed once it fired.
				logs1 := openJournals(t, dir, n, wal.WithFS(vfs.NewFaultFS(vfs.OS, f.inj)))
				d1 := attachDurable(t, m1, logs1, snapPath, WithRearmBackoff(time.Hour, time.Hour))
				insertAt(t, m1, 10, 1) // journaling fails: degraded
				insertAt(t, m1, 20, 2)
				if h := d1.Health(); h.Status != "degraded" {
					t.Fatalf("health = %+v, want degraded", h)
				}

				d1.Stop()
				if err := d1.Checkpoint(); err != nil {
					t.Fatalf("shutdown checkpoint while degraded: %v", err)
				}
				if _, err := os.Stat(snapPath); err != nil {
					t.Fatalf("shutdown checkpoint wrote no snapshot: %v", err)
				}
				if h := d1.Health(); h.Status != "ok" || h.Rearms != 1 {
					t.Fatalf("health after the shutdown checkpoint = %+v, want ok with 1 re-arm", h)
				}

				// Crash (no CloseLogs) and recover over the real filesystem.
				m2, _, _ := recoverFrom(t, dir, n, snapPath)
				if m2.Now() != 20 || m2.Len() != 2 {
					t.Fatalf("recovered to Len=%d Now=%d, want the degraded window's 2/20", m2.Len(), m2.Now())
				}
			})
		}
	})
}

// TestRotationDirSyncFailure fails the directory fsync behind a fresh
// segment's rename: the segment sits at the live path, but a power cut
// could restore the old journal's name, so the rotation must report
// failure and keep the manager degraded — and the next attempt, which
// renames a new segment over it, must succeed. The op index of that
// directory sync is found by a calibration run: a rotation ends with
// the segment's rename, the directory's open, sync and close, and the
// replaced journal's close.
func TestRotationDirSyncFailure(t *testing.T) {
	forJournalCounts(t, func(t *testing.T, n int) {
		latch := vfs.Injection{AtOp: 8, Op: vfs.OpSync, Kind: vfs.SyncFailure}
		run := func(plan ...vfs.Injection) (*vfs.FaultFS, *Durable, string, uint64, error) {
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(vfs.OS, plan...)
			m := durableMonitor(t, n)
			logs := openJournals(t, dir, n, wal.WithFS(ffs))
			d := attachDurable(t, m, logs, snapshotPath(dir), WithDurableFS(ffs),
				WithRearmBackoff(time.Hour, time.Hour))
			t.Cleanup(d.Stop)
			insertAt(t, m, 10, 1) // fsync fails: the last journal latches
			before := ffs.OpCount()
			err := d.Checkpoint()
			return ffs, d, dir, ffs.OpCount() - before, err
		}
		ffs, _, _, ops, err := run(latch)
		if err != nil {
			t.Fatalf("calibration rotation: %v", err)
		}
		dirSync := ffs.OpCount() - 2
		ffs, d, dir, _, err := run(latch, vfs.Injection{AtOp: dirSync, Op: vfs.OpSync, Kind: vfs.SyncFailure})
		if fired := ffs.Fired(); len(fired) != 2 || fired[1].Path != dir {
			t.Fatalf("the injection missed the directory sync (rotation of %d ops): fired %+v", ops, fired)
		}
		if err == nil {
			t.Fatal("rotation reported success with its segment's directory entry unsynced")
		}
		if h := d.Health(); h.Status != "degraded" || h.Rearms != 0 {
			t.Fatalf("health after the failed rotation = %+v, want degraded", h)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatalf("second rotation: %v", err)
		}
		if h := d.Health(); h.Status != "ok" || h.Rearms != 1 {
			t.Fatalf("health after the second rotation = %+v, want ok with 1 re-arm", h)
		}
		insertAt(t, d.m, 20, 2)
		m2, _, replayed := recoverFrom(t, dir, n, snapshotPath(dir))
		if replayed != 1 || m2.Now() != 20 || m2.Len() != 2 {
			t.Fatalf("recovered to Len=%d Now=%d (+%d replayed), want 2/20 with 1 replayed", m2.Len(), m2.Now(), replayed)
		}
	})
}

// TestHaltPolicyCallsHaltOnce wires a halt function and verifies the
// halt function fires exactly once across repeated failures while
// commits keep succeeding (the engine has already applied them).
func TestHaltPolicyCallsHaltOnce(t *testing.T) {
	forJournalCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		// Op 8 is the first append's fsync: the journal latches broken and
		// every later append to it fails too.
		ffs := vfs.NewFaultFS(vfs.OS, vfs.Injection{AtOp: 8, Op: vfs.OpSync, Kind: vfs.SyncFailure})

		m1 := durableMonitor(t, n)
		logs1 := openJournals(t, dir, n, wal.WithFS(ffs))
		var halts atomic.Int64
		d1 := attachDurable(t, m1, logs1, "",
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
