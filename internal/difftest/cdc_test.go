package difftest

import (
	"bytes"
	"slices"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/workload"
)

// cdcCorpus spans the generator's knob space: steady and bursty
// traffic, ordered and reordered arrival, flat and skewed keys, clean
// and violating feeds. Sizes are kept small enough that the full
// sweep — every history through every engine leg, under -race in CI —
// stays in seconds.
func cdcCorpus() []struct {
	name string
	cfg  cdcgen.Config
} {
	corpus := []struct {
		name string
		cfg  cdcgen.Config
	}{
		{"steady-clean", cdcgen.Config{Steps: 50, Seed: 101}},
		{"steady-violating", cdcgen.Config{Steps: 50, Seed: 102, ViolationRate: 0.3}},
		{"burst", cdcgen.Config{Steps: 50, Seed: 103, BurstLen: 8, BurstEvery: 10}},
		{"burst-violating", cdcgen.Config{Steps: 50, Seed: 104, BurstLen: 8, BurstEvery: 10, ViolationRate: 0.3}},
		{"late", cdcgen.Config{Steps: 50, Seed: 105, MaxReorder: 3}},
		{"late-heavy", cdcgen.Config{Steps: 50, Seed: 106, MaxReorder: 5, LateRate: 0.6, ViolationRate: 0.2}},
		{"hot-keys", cdcgen.Config{Steps: 50, Seed: 107, Sensors: 8, ZipfS: 3.0, ViolationRate: 0.2}},
		{"flat-keys", cdcgen.Config{Steps: 50, Seed: 108, Sensors: 48, ZipfS: 1.05}},
		{"tight-windows", cdcgen.Config{Steps: 50, Seed: 109, Validity: 4, DerivedLifetime: 6, ChainWindow: 12, ViolationRate: 0.2}},
		{"burst-late-hot", cdcgen.Config{Steps: 60, Seed: 110, BurstLen: 10, BurstEvery: 12, MaxReorder: 4, Sensors: 10, ZipfS: 2.5, ViolationRate: 0.25}},
	}
	// A seed sweep on the all-knobs config on top of the shaped cases,
	// bringing the corpus past the twenty-history mark.
	for seed := int64(1); seed <= 12; seed++ {
		corpus = append(corpus, struct {
			name string
			cfg  cdcgen.Config
		}{
			name: "sweep-" + string(rune('a'+seed-1)),
			cfg: cdcgen.Config{
				Steps: 40, Seed: 200 + seed,
				BurstLen: 6, BurstEvery: 8,
				MaxReorder:    2,
				Sensors:       12,
				ViolationRate: 0.15,
			},
		})
	}
	return corpus
}

// TestDifferentialCDC replays the CDC freshness corpus (internal/
// cdcgen) through every engine leg: naive, core, active rules, and the
// shard router at fan-outs 1, 2 and 8 — the realistic-traffic
// counterpart to the formgen pairs. All three freshness constraints partition on the sensor
// variable, so the sharded legs genuinely spread this workload.
func TestDifferentialCDC(t *testing.T) {
	t.Parallel()
	for _, tc := range cdcCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			h, _ := cdcgen.Generate(tc.cfg)
			if err := Run(h, Config{}); err != nil {
				t.Fatalf("config %+v: %v", tc.cfg, err)
			}
		})
	}
}

// TestSnapshotRoundTripCDC saves the paper's checker after every commit
// of every CDC corpus history, under the corpus's constraints and under
// the policy-wide set: the save loads, and the loaded checker saves the
// same bytes; and the loaded checker's first commit reports what the
// original's does, with the same work (core.Checker.Work) — the loaded
// families and answers need no priming.
func TestSnapshotRoundTripCDC(t *testing.T) {
	t.Parallel()
	for _, tc := range cdcCorpus() {
		h, _ := cdcgen.Generate(tc.cfg)
		for _, specs := range [][]workload.ConstraintSpec{h.Constraints, cdcgen.WidePolicies(tc.cfg)} {
			orig := core.New(h.Schema)
			if err := engine.Install(orig, h.Schema, specs); err != nil {
				t.Fatal(err)
			}
			var first, second bytes.Buffer
			for i, st := range h.Steps {
				first.Reset()
				second.Reset()
				if err := orig.SaveSnapshot(&first); err != nil {
					t.Fatal(err)
				}
				loaded, err := core.LoadSnapshot(h.Schema, bytes.NewReader(first.Bytes()))
				if err != nil {
					t.Fatalf("%s, %d constraints, commit %d: %v", tc.name, len(specs), i, err)
				}
				if err := loaded.SaveSnapshot(&second); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first.Bytes(), second.Bytes()) {
					t.Fatalf("%s, %d constraints, commit %d: a loaded %d-byte snapshot saves %d other bytes", tc.name, len(specs), i, first.Len(), second.Len())
				}
				w0, l0 := orig.Work(), loaded.Work()
				want, err := orig.Step(st.Time, st.Tx.Clone())
				if err != nil {
					t.Fatal(err)
				}
				got, err := loaded.Step(st.Time, st.Tx.Clone())
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(canon(got), canon(want)) {
					t.Fatalf("%s, %d constraints, commit %d: loaded checker reports %v, original %v", tc.name, len(specs), i, canon(got), canon(want))
				}
				w1, l1 := orig.Work(), loaded.Work()
				if lw, ow := (core.Work{Visited: l1.Visited - l0.Visited, PlanExecs: l1.PlanExecs - l0.PlanExecs}), (core.Work{Visited: w1.Visited - w0.Visited, PlanExecs: w1.PlanExecs - w0.PlanExecs}); lw != ow {
					t.Fatalf("%s, %d constraints, commit %d: loaded checker's first commit did %+v, the original's %+v", tc.name, len(specs), i, lw, ow)
				}
			}
		}
	}
}

// TestDifferentialCDCCorpusSize pins the ≥20-history floor the corpus
// promises, so a trimmed table can't silently shrink the sweep.
func TestDifferentialCDCCorpusSize(t *testing.T) {
	if n := len(cdcCorpus()); n < 20 {
		t.Fatalf("CDC corpus has %d histories, want ≥ 20", n)
	}
}

// TestCDCHistoriesWellFormed sanity-checks what the harness assumes of
// generated feeds: monotone timestamps and parseable constraints are
// Run's job to exercise, but a zero-step or constraint-free history
// would make the differential pass vacuous.
func TestCDCHistoriesWellFormed(t *testing.T) {
	for _, tc := range cdcCorpus() {
		h, _ := cdcgen.Generate(tc.cfg)
		assertWellFormed(t, tc.name, h)
	}
}

func assertWellFormed(t *testing.T, name string, h workload.History) {
	t.Helper()
	if len(h.Steps) == 0 || len(h.Constraints) == 0 {
		t.Fatalf("%s: degenerate history (%d steps, %d constraints)", name, len(h.Steps), len(h.Constraints))
	}
	var last uint64
	for i, st := range h.Steps {
		if i > 0 && st.Time <= last {
			t.Fatalf("%s: non-increasing timestamp @%d at step %d", name, st.Time, i)
		}
		last = st.Time
	}
}
