package plan_test

import (
	"testing"

	"rtic/internal/difftest"
	"rtic/internal/plan"
	"rtic/internal/workload"
)

// TestShapesEndToEnd installs every shape on every engine difftest
// compares — naive (the reference), core, active rules, the shard
// fan-outs — and runs three short random histories through them: the
// plans behind the denial, the node operands and the since chain must
// add up to the specification's violations at every step.
func TestShapesEndToEnd(t *testing.T) {
	for _, src := range plan.Shapes {
		for seed := int64(1); seed <= 3; seed++ {
			h := workload.Uniform(workload.UniformConfig{Steps: 40, OpsPerTx: 2, Domain: 4, GapMax: 3, Seed: seed})
			h.Constraints = []workload.ConstraintSpec{{Name: "shape", Source: src}}
			if err := difftest.Run(h, difftest.Config{}); err != nil {
				t.Fatalf("%s (seed %d): %v", src, seed, err)
			}
		}
	}
}
