package monitor_test

import (
	"fmt"
	"testing"

	"rtic/internal/chaos"
	"rtic/internal/vfs"
)

// The crash sweeps are configurations of the crash enumerator in
// internal/chaos (docs/DURABILITY.md): each picks the fault runs and
// power cuts it is about, and every disk a cut may leave is recovered
// and held to the durability invariant.

func forJournals(t *testing.T, f func(t *testing.T, n int)) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("journals=%d", n), func(t *testing.T) { f(t, n) })
	}
}

// TestCheckpointCrashSweep cuts power at every op of both checkpoint
// rotations of the enumerator's trace — snapshot temp file, fsync,
// rename, directory sync, then one reset per journal. After the rename
// the journals are reset one at a time, so a cut between two resets
// leaves journals of different lengths whose surplus the checkpoint
// covers; recovery must filter by the checkpoint's clock before it
// compares journals, or it would see a torn tail and truncate.
func TestCheckpointCrashSweep(t *testing.T) {
	forJournals(t, func(t *testing.T, n int) {
		res, err := chaos.Sweep{Dir: t.TempDir(), Journals: n,
			Faults: func(chaos.Fault) bool { return false },
			Cuts:   func(c chaos.Cut) bool { return c.In.Kind == "checkpoint" }}.Run()
		if err != nil {
			t.Fatal(err)
		}
		// A rotation is the snapshot's open, write, sync, close, rename
		// and directory sync (three ops), then a truncate and a sync per
		// journal.
		if want := 2 * (8 + 2*n); res.Runs != 1 || res.Cuts != want {
			t.Fatalf("%+v: want 1 run cut at the %d ops of two rotations", res, want)
		}
		t.Logf("%+v", res)
	})
}

// TestFreshRearmCrashSweep latches each journal in turn at the first
// commit's fsync (the record itself landed), commits on through the
// degraded window, and cuts power at every op of the re-arm rotation
// at the first checkpoint: a staging segment opened beside the latched
// journal, the checkpoint, the other journals reset in place, the
// segment renamed over the latched one and its directory synced.
// TestCrashEnumeration latches at every commit.
func TestFreshRearmCrashSweep(t *testing.T) {
	forJournals(t, func(t *testing.T, n int) {
		res, err := chaos.Sweep{Dir: t.TempDir(), Journals: n,
			Faults: func(f chaos.Fault) bool {
				return f.Kind == vfs.EIO && f.Op == vfs.OpSync && f.In.Kind == "commit" && f.In.Index == 0
			},
			Cuts: func(c chaos.Cut) bool {
				if c.Fault.AtOp == 0 {
					return false
				}
				for _, st := range c.Steps {
					if st.Kind == "checkpoint" && st.First > c.Fault.AtOp {
						return c.In == st
					}
				}
				return false
			}}.Run()
		if err != nil {
			t.Fatal(err)
		}
		// The re-arm removes a leftover segment (one op), opens the fresh
		// one (six), writes the snapshot (eight), resets the other
		// journals, renames the segment and syncs its directory (four)
		// and closes the latched journal.
		if runs, cuts := 1+n, n*(18+2*n); res.Runs != runs || res.Cuts != cuts {
			t.Fatalf("%+v: want %d runs and %d cuts", res, runs, cuts)
		}
		t.Logf("%+v", res)
	})
}

// TestShardedRecoverEveryTornSubset takes every disk a power cut leaves
// under SyncBatch over two journals, where each journal keeps any
// prefix of its unsynced commits: journal 0 ends up longer than journal
// 1 on some and shorter on others, and recovery must replay the common
// prefix and truncate the rest on both arms.
func TestShardedRecoverEveryTornSubset(t *testing.T) {
	res, err := chaos.Sweep{Dir: t.TempDir(), Journals: 2, Batch: true}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 1 || res.Longer == 0 || res.Shorter == 0 {
		t.Fatalf("%+v: want one run whose disks have journal 0 both longer and shorter", res)
	}
	t.Logf("%+v", res)
}
