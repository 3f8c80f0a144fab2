package chaos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/vfs"
	"rtic/internal/workload"
)

// cdcHistory is a CDC feed: bursty, reordered, hot-keyed traffic with
// injected violations. Its first burst train is commits 10–17.
func cdcHistory() (workload.History, cdcgen.Meta) {
	return cdcgen.Generate(cdcgen.Config{
		Steps: 30, Seed: 77,
		BurstLen: 8, BurstEvery: 10,
		MaxReorder:    2,
		ViolationRate: 0.2,
	})
}

// TestCrashEnumeration runs the whole enumeration: one and two
// journals under SyncAlways, every fault outcome at every op past
// journal setup and every second fault inside a re-arm rotation, each
// followed by every later power cut; two journals under SyncBatch,
// every power cut; and the CDC feed at one and two journals, fault-free
// and with every fault two commits into its first burst train, cut at
// every op of the train's commits. The counts are pinned, as formgen.TestEnumerator pins its
// own: a change to the durable path's op sequence moves them, and must
// say so.
func TestCrashEnumeration(t *testing.T) {
	cdc, meta := cdcHistory()
	mid := slices.Index(meta.Burst, true) + 2
	cdcSweep := func(n int) Sweep {
		return Sweep{Journals: n, History: &cdc,
			Faults: func(f Fault) bool { return f.In.Kind == "commit" && f.In.Index == mid },
			Cuts:   func(c Cut) bool { return c.In.Kind == "commit" && meta.Burst[c.In.Index] }}
	}
	for _, c := range []struct {
		sweep        Sweep
		norace, race SweepResult
	}{
		{Sweep{Journals: 1},
			SweepResult{Runs: 88, Second: 44, Cuts: 1374, Images: 140},
			SweepResult{Runs: 82, Second: 44, Cuts: 1188, Images: 109}},
		{Sweep{Journals: 2},
			SweepResult{Runs: 165, Second: 96, Cuts: 3317, Images: 377, Longer: 125, Shorter: 113},
			SweepResult{Runs: 153, Second: 96, Cuts: 2809, Images: 283, Longer: 92, Shorter: 81}},
		{Sweep{Journals: 2, Batch: true},
			SweepResult{Runs: 1, Cuts: 43, Images: 88, Longer: 27, Shorter: 33},
			SweepResult{Runs: 1, Cuts: 39, Images: 46, Longer: 11, Shorter: 15}},
		// The CDC feed is the same length under the race detector.
		{cdcSweep(1),
			SweepResult{Runs: 4, Cuts: 58, Images: 14},
			SweepResult{Runs: 4, Cuts: 58, Images: 14}},
		{cdcSweep(2),
			SweepResult{Runs: 7, Cuts: 194, Images: 27, Longer: 11, Shorter: 2},
			SweepResult{Runs: 7, Cuts: 194, Images: 27, Longer: 11, Shorter: 2}},
	} {
		s := c.sweep
		name := fmt.Sprintf("journals=%d/batch=%v", s.Journals, s.Batch)
		if s.History != nil {
			name = fmt.Sprintf("cdc/journals=%d", s.Journals)
		}
		t.Run(name, func(t *testing.T) {
			s.Dir = t.TempDir()
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d fault runs (%d with a second fault), %d crash points, %d distinct images (journal 0 longer on %d, shorter on %d)",
				res.Runs, res.Second, res.Cuts, res.Images, res.Longer, res.Shorter)
			want := c.norace
			if raceShorter > 0 {
				want = c.race
			}
			if res != want {
				t.Fatalf("counts %+v, want %+v", res, want)
			}
		})
	}
}

// TestSweepNamesBothFaults fails the check on every disk holding a torn
// staging segment, which only a short write inside a re-arm rotation
// leaves, and requires the report to name the fault that latched the
// journal, the second fault and the power cut.
func TestSweepNamesBothFaults(t *testing.T) {
	_, err := Sweep{Dir: t.TempDir(),
		Faults: func(f Fault) bool {
			if f.After == nil {
				return f.Op == vfs.OpSync && f.In.Kind == "commit"
			}
			return f.Kind == vfs.ShortWrite
		},
		Check: func(dir string, _ int) error {
			if b, err := os.ReadFile(filepath.Join(dir, "state.wal"+rearmSuffix)); err == nil && len(b) > 0 && len(b) < 8 {
				return errors.New("torn staging segment")
			}
			return nil
		}}.Run()
	want := regexp.MustCompile(`^eio at op \d+ \(sync state\.wal, commit \d+\), then short-write at op \d+ \(write state\.wal\.rearm, checkpoint \d+\), then power cut at op \d+ \(checkpoint \d+\): torn staging segment$`)
	if err == nil || !want.MatchString(err.Error()) {
		t.Fatalf("got %v, want a failure matching %s", err, want)
	}
	t.Log(err)
}

// TestCrashImageIsACrashRun proves the premise that lets one run serve
// all of its cuts: at every op j of the fault-free run, the disk that
// keeps every op before j is byte for byte the disk a run with a Crash
// injected at j leaves behind.
func TestCrashImageIsACrashRun(t *testing.T) {
	s := &Sweep{Journals: 1}
	base, err := s.run(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for j := base.steps[0].Last + 1; j <= base.ops+1; j++ {
		ims := base.ffs.Images(base.dir, j)
		dir := t.TempDir()
		if _, err := s.run(dir, vfs.Injection{AtOp: j, Kind: vfs.Crash}); err != nil {
			t.Fatalf("crash at op %d: %v", j, err)
		}
		got := vfs.Image{}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if got[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		if got.Key() != ims[len(ims)-1].Key() {
			t.Fatalf("op %d: a crash run left %d files, the keep-everything image has %d, and they differ", j, len(got), len(ims[len(ims)-1]))
		}
	}
}
