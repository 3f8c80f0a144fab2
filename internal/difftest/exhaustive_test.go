package difftest

import (
	"strings"
	"sync/atomic"
	"testing"

	"rtic/internal/formgen"
	"rtic/internal/workload"
)

// TestExhaustiveAgreement is the small-scope exhaustive leg: every set
// of formgen.KernelSets over every history formgen.Histories yields for
// it, through every variant of Config.Exhaustive against naive.
func TestExhaustiveAgreement(t *testing.T) {
	t.Parallel()
	sets := formgen.KernelSets()
	var runs atomic.Int64
	for _, set := range sets {
		var names []string
		for _, k := range set {
			names = append(names, k.Formula)
		}
		t.Run(strings.Join(names, " & "), func(t *testing.T) {
			t.Parallel()
			formgen.Histories(set, func(h workload.History) {
				runs.Add(1)
				if err := Run(h, Config{Exhaustive: true}); err != nil {
					t.Fatalf("history %v: %v", h.Steps, err)
				}
			})
		})
	}
	t.Cleanup(func() {
		if !t.Failed() {
			t.Logf("%d kernels, %d kernel sets, %d runs of %d commits through every variant, 0 divergences",
				len(formgen.Kernels()), len(sets), runs.Load(), formgen.HistoryLen)
		}
	})
}
