package chaos

import (
	"fmt"
	"testing"

	"rtic/internal/vfs"
)

// TestChaosBaselineNoFaults pins down what a fault-free run looks
// like, so the seeded suites below are known to measure injection
// effects and not harness noise.
func TestChaosBaselineNoFaults(t *testing.T) {
	res, err := Run(Config{Dir: t.TempDir(), Seed: 0, Commits: 24, Faults: -1})
	if err != nil {
		t.Fatalf("%+v: %v", res, err)
	}
	if res.MaxDurableT != 240 || res.RecoveredT != 240 || res.Acked != 24 {
		t.Fatalf("clean run lost state: %+v", res)
	}
	if len(res.Fired) != 0 || res.Rearms != 0 {
		t.Fatalf("clean run saw faults: %+v", res)
	}
}

// TestChaosUnshardedSeeds runs the manager over one journal (WAL +
// checkpoints + the re-arm rotation, resetting usable journals and
// replacing latched ones) under seeded fault schedules mixing ENOSPC,
// EIO, short writes, fsync failures, and whole-disk crash latches.
func TestChaosUnshardedSeeds(t *testing.T) {
	seeds(t, 30, 1, false)
}

// TestChaosShardedSeeds runs the same manager over one journal per
// shard — same checkpoints, same rotation — under seeded fault
// schedules.
func TestChaosShardedSeeds(t *testing.T) {
	seeds(t, 10, 3, false)
}

// TestChaosRearmLoopSeeds never calls Checkpoint, so a degraded episode
// heals only if the re-arm loop's own rotation does: a broken loop
// cannot hide behind the every-five-commits checkpoint of the suites
// above.
func TestChaosRearmLoopSeeds(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { seeds(t, 20, shards, true) })
	}
}

// seeds runs n seeded schedules at the given shard count.
func seeds(t *testing.T, n int64, shards int, noCheckpoints bool) {
	fired, rearms := 0, uint64(0)
	for seed := int64(1); seed <= n; seed++ {
		res, err := Run(Config{Dir: t.TempDir(), Seed: seed, Commits: 24, Shards: shards, NoCheckpoints: noCheckpoints})
		if err != nil {
			t.Errorf("%+v: %v", res, err)
			continue
		}
		fired += len(res.Fired)
		rearms += res.Rearms
	}
	// The suite must actually exercise the machinery it claims to:
	// a schedule drift that stops faults from firing would otherwise
	// turn this into an expensive no-op.
	if fired == 0 {
		t.Errorf("shards=%d: no injection fired across any seed", shards)
	}
	if rearms == 0 {
		t.Errorf("shards=%d: no re-arm succeeded across any seed", shards)
	}
	t.Logf("shards=%d: %d runs, %d faults fired, %d re-arms", shards, n, fired, rearms)
}

// TestChaosConfigValidation covers the one hard requirement.
func TestChaosConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("Run without Dir succeeded")
	}
}

// TestChaosCrashKind pins the harshest fault deterministically: a
// whole-disk crash latch partway through the trace. Commits must keep
// being acknowledged against the dead disk and recovery must surface
// everything written before the latch.
func TestChaosCrashKind(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// 40 ops in, not counting the directory sync each journal's
			// Open makes (three ops).
			res, err := Run(Config{Dir: t.TempDir(), Commits: 24, Shards: shards,
				Plan: []vfs.Injection{{AtOp: 40 + 3*uint64(shards), Kind: vfs.Crash}}})
			if err != nil {
				t.Fatalf("%+v: %v", res, err)
			}
			if res.Acked != 24 {
				t.Fatalf("commits stopped being acknowledged after fault: %+v", res)
			}
		})
	}
}
