package difftest

import (
	"testing"

	"rtic/internal/cdcgen"
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
// cdcgen) through every engine leg: naive, core at parallelism 1 and
// 4, active rules, and the shard router at fan-outs
// 1, 2 and 8 — the realistic-traffic counterpart to the formgen
// pairs. All three freshness constraints partition on the sensor
// variable, so the sharded legs genuinely spread this workload.
func TestDifferentialCDC(t *testing.T) {
	for _, tc := range cdcCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			h, _ := cdcgen.Generate(tc.cfg)
			if err := Run(h, Config{}); err != nil {
				t.Fatalf("config %+v: %v", tc.cfg, err)
			}
		})
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
