package chaos

import (
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/vfs"
	"rtic/internal/workload"
)

// cdcHistory is the chaos corpus feed: bursty, reordered, hot-keyed
// CDC traffic with injected violations, small enough that each seeded
// run stays well under a second. Commit 13 sits mid-way through the
// first burst train (commits 10–17).
func cdcHistory() (workload.History, cdcgen.Meta) {
	return cdcgen.Generate(cdcgen.Config{
		Steps: 30, Seed: 77,
		BurstLen: 8, BurstEvery: 10,
		MaxReorder:    2,
		ViolationRate: 0.2,
	})
}

// TestChaosCDCBaseline pins the fault-free CDC run: the generalized
// workload path must carry the whole feed to durability and recover it
// bit-for-bit before the seeded suite below means anything.
func TestChaosCDCBaseline(t *testing.T) {
	h, _ := cdcHistory()
	last := h.Steps[len(h.Steps)-1].Time
	res, err := Run(Config{Dir: t.TempDir(), History: &h, Faults: -1})
	if err != nil {
		t.Fatalf("%+v: %v", res, err)
	}
	if res.Acked != len(h.Steps) || res.MaxDurableT != last || res.RecoveredT != last {
		t.Fatalf("clean CDC run lost state (last t=%d): %+v", last, res)
	}
	if res.Ops == 0 {
		t.Fatalf("no filesystem ops recorded: %+v", res)
	}
}

// TestChaosCDCSeeds drives the CDC feed through 10 seeded fault
// schedules at both journal counts, asserting the same contract as
// the hire/fire suite: no commit acknowledged while durability
// reported ok may be missing after the crash, and the recovered
// monitor must behave identically to a clean replay of the prefix.
func TestChaosCDCSeeds(t *testing.T) {
	h, _ := cdcHistory()
	for _, shards := range []int{1, 2} {
		fired := 0
		for seed := int64(1); seed <= 10; seed++ {
			res, err := Run(Config{Dir: t.TempDir(), History: &h, Seed: seed, Shards: shards})
			if err != nil {
				t.Errorf("shards=%d: %+v: %v", shards, res, err)
				continue
			}
			fired += len(res.Fired)
		}
		if fired == 0 {
			t.Errorf("shards=%d: no injection fired across any CDC seed", shards)
		}
	}
}

// TestChaosCDCMidBurstCrash latches the whole disk in the middle of
// the feed's first burst train — the worst moment, with source
// captures flooding the journal — and requires that every commit keeps
// being acknowledged and nothing acknowledged durable is lost. The
// crash op index is calibrated from the baseline run's op count, then
// verified against the injection that actually fired.
func TestChaosCDCMidBurstCrash(t *testing.T) {
	h, meta := cdcHistory()
	mid := -1
	for i, b := range meta.Burst {
		if b && i+3 < len(meta.Burst) && meta.Burst[i+3] {
			mid = i + 2 // two commits into a train that runs ≥ 3 more
			break
		}
	}
	if mid < 0 {
		t.Fatal("feed has no burst train to crash inside")
	}

	clean, err := Run(Config{Dir: t.TempDir(), History: &h, Faults: -1})
	if err != nil {
		t.Fatalf("calibration run: %+v: %v", clean, err)
	}
	firstOp := uint64(3*1) + 2 // Run's default journal-setup offset, unsharded
	opsPerCommit := (clean.Ops - firstOp) / uint64(len(h.Steps))
	crashAt := firstOp + opsPerCommit*uint64(mid)

	res, err := Run(Config{Dir: t.TempDir(), History: &h,
		Plan: []vfs.Injection{{AtOp: crashAt, Kind: vfs.Crash}}})
	if err != nil {
		t.Fatalf("%+v: %v", res, err)
	}
	if !res.Crashed || len(res.Fired) != 1 {
		t.Fatalf("crash injection at op %d did not latch: %+v", crashAt, res)
	}
	if res.Acked != len(h.Steps) {
		t.Fatalf("commits stopped being acknowledged after the crash: %+v", res)
	}
	// The crash must land inside the feed, not after it — otherwise
	// this test silently degrades into the baseline.
	if res.MaxDurableT >= h.Steps[len(h.Steps)-1].Time {
		t.Fatalf("crash at op %d landed after the whole feed was durable: %+v", crashAt, res)
	}
}
