package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rtic/internal/vfs"
)

// TestCrashEnumeration runs the whole enumeration: one and two
// journals under SyncAlways, every fault outcome at every op past
// journal setup followed by every later power cut, and two journals
// under SyncBatch, every power cut. The counts are pinned, as
// formgen.TestEnumerator pins its own: a change to the durable path's
// op sequence moves them, and must say so.
func TestCrashEnumeration(t *testing.T) {
	for _, c := range []struct {
		sweep        Sweep
		norace, race SweepResult
	}{
		{Sweep{Journals: 1},
			SweepResult{Runs: 78, Cuts: 877, Images: 126},
			SweepResult{Runs: 68, Cuts: 681, Images: 95}},
		{Sweep{Journals: 2},
			SweepResult{Runs: 121, Cuts: 1969, Images: 327, Longer: 107, Shorter: 99},
			SweepResult{Runs: 101, Cuts: 1437, Images: 235, Longer: 76, Shorter: 67}},
		{Sweep{Journals: 2, Batch: true},
			SweepResult{Runs: 1, Cuts: 43, Images: 88, Longer: 27, Shorter: 33},
			SweepResult{Runs: 1, Cuts: 39, Images: 46, Longer: 11, Shorter: 15}},
	} {
		s := c.sweep
		t.Run(fmt.Sprintf("journals=%d/batch=%v", s.Journals, s.Batch), func(t *testing.T) {
			s.Dir = t.TempDir()
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d fault runs, %d crash points, %d distinct images (journal 0 longer on %d, shorter on %d)",
				res.Runs, res.Cuts, res.Images, res.Longer, res.Shorter)
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
