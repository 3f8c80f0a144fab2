package difftest

import (
	"math/rand"
	"testing"

	"rtic/internal/formgen"
	"rtic/internal/workload"
)

// TestDifferentialCorpus runs the harness over all five reconstructed
// workload scenarios, with violation rates high enough that the
// violation streams being compared are non-trivial.
func TestDifferentialCorpus(t *testing.T) {
	t.Parallel()
	corpus := []struct {
		name string
		h    workload.History
	}{
		{"uniform", workload.Uniform(workload.UniformConfig{Steps: 60, Seed: 1})},
		{"tickets", workload.Tickets(workload.TicketsConfig{Steps: 60, Seed: 2, ViolationRate: 0.3})},
		{"hr", workload.HR(workload.HRConfig{Steps: 60, Seed: 3, ViolationRate: 0.3})},
		{"library", workload.Library(workload.LibraryConfig{Steps: 60, Seed: 4, ViolationRate: 0.3})},
		{"alarms", workload.Alarms(workload.AlarmsConfig{Steps: 60, Seed: 5, ViolationRate: 0.3})},
	}
	for _, tc := range corpus {
		t.Run(tc.name, func(t *testing.T) {
			if err := Run(tc.h, Config{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// generatedPair draws one random (constraint set, trace) pair: one or
// two formgen constraints over the shared p/q/r schema, checked against
// a uniform random update stream.
func generatedPair(seed int64) workload.History {
	r := rand.New(rand.NewSource(seed))
	specs := []workload.ConstraintSpec{
		{Name: "g0", Source: formgen.Constraint(r)},
	}
	if r.Intn(2) == 0 {
		specs = append(specs, workload.ConstraintSpec{Name: "g1", Source: formgen.Constraint(r)})
	}
	h := workload.Uniform(workload.UniformConfig{
		Steps:    20 + r.Intn(15),
		OpsPerTx: 1 + r.Intn(3),
		Domain:   int64(3 + r.Intn(5)),
		GapMax:   1 + r.Intn(3),
		Seed:     r.Int63(),
	})
	h.Constraints = specs
	return h
}

// TestDifferentialGenerated is the seeded deterministic corpus: 200
// generated (constraint, trace) pairs, every engine variant in
// agreement on each. This is the bounded CI face of FuzzDifferential.
func TestDifferentialGenerated(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long differential sweep")
	}
	for seed := int64(0); seed < 200; seed++ {
		h := generatedPair(seed)
		if err := Run(h, Config{}); err != nil {
			srcs := make([]string, len(h.Constraints))
			for i, cs := range h.Constraints {
				srcs[i] = cs.Source
			}
			t.Fatalf("seed %d (constraints %q): %v", seed, srcs, err)
		}
	}
}

// FuzzDifferential lets the fuzzer hunt for divergences beyond the
// seeded corpus: each input seed derives a fresh (constraint, trace)
// pair. Run with `go test -fuzz=FuzzDifferential ./internal/difftest/`;
// under plain `go test` only the seeds below run.
func FuzzDifferential(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		h := generatedPair(seed)
		if err := Run(h, Config{ShardCounts: []int{1, 3}}); err != nil {
			srcs := make([]string, len(h.Constraints))
			for i, cs := range h.Constraints {
				srcs[i] = cs.Source
			}
			t.Fatalf("seed %d (constraints %q): %v", seed, srcs, err)
		}
	})
}
