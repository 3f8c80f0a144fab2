package difftest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/formgen"
	"rtic/internal/workload"
)

// TestDifferentialFamilies holds denial families to the specification:
// each seed draws a formgen.Family — one literal over the same operands
// at [0,b] for b ∈ {0,1,2,5,∞], which must form one denial family, and at
// [2,5] and [2,∞), which must stay families of one — installs it in a
// shuffled order and runs it through every engine variant against naive
// over a random update stream.
func TestDifferentialFamilies(t *testing.T) {
	t.Parallel()
	seeds := 150
	if testing.Short() {
		seeds = 30
	}
	families, members, steps := 0, 0, 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		r := rand.New(rand.NewSource(seed))
		srcs := formgen.Family(r)
		var specs []workload.ConstraintSpec
		for _, k := range r.Perm(len(srcs)) {
			specs = append(specs, workload.ConstraintSpec{Name: fmt.Sprintf("w%d", k), Source: srcs[k]})
		}
		h := workload.Uniform(workload.UniformConfig{
			Steps:    20 + r.Intn(15),
			OpsPerTx: 1 + r.Intn(3),
			Domain:   int64(3 + r.Intn(4)),
			GapMax:   1 + r.Intn(3),
			Seed:     r.Int63(),
		})
		h.Constraints = specs

		c := core.New(h.Schema)
		for _, cs := range specs {
			con, err := check.Parse(cs.Name, cs.Source, h.Schema)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.AddConstraint(con); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range c.Families() {
			got := strings.Join(f, " ")
			switch {
			case len(f) == 1:
			case got != "w0 w1 w2 w3 w4":
				t.Fatalf("seed %d (%q): denial family %s, want w0 … w4 narrowest first", seed, srcs[0], got)
			default:
				families++
				members += len(f)
			}
		}
		if err := Run(h, Config{}); err != nil {
			t.Fatalf("seed %d (constraints %q): %v", seed, srcs, err)
		}
		steps += len(h.Steps)
	}
	if families < seeds*9/10 {
		t.Fatalf("only %d of %d seeds formed a denial family", families, seeds)
	}
	t.Logf("%d seeds: %d denial families of %d members, %d steps through every engine variant, 0 divergences", seeds, families, members, steps)
}
