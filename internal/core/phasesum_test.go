package core

import (
	"bytes"
	"fmt"
	"testing"

	"rtic/internal/obs"
	"rtic/internal/workload"
)

// phaseNamesAll mirrors the phase labels the checker exports.
var phaseNamesAll = []string{"apply", "update", "check", "carry"}

// TestPhaseSecondsSumToCommitSeconds is the attribution acceptance
// criterion: the per-phase histograms must account for the commit
// histogram — what rtic_step_phase_seconds{phase} sums to has to land
// within 10% of rtic_commit_duration_seconds, or the decomposition is
// lying about where commit time goes.
func TestPhaseSecondsSumToCommitSeconds(t *testing.T) {
	h := workload.Uniform(workload.UniformConfig{Steps: 400, Seed: 53, OpsPerTx: 4, Domain: 16})
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			c := newFromHistory(t, h, WithParallelism(par))
			m := obs.NewMetrics(obs.NewRegistry())
			c.SetObserver(&obs.Observer{Metrics: m})
			for _, s := range h.Steps {
				if _, err := c.Step(s.Time, s.Tx); err != nil {
					t.Fatal(err)
				}
			}
			commit := m.CommitSeconds.Sum()
			if commit <= 0 {
				t.Fatal("commit histogram saw nothing")
			}
			var phases float64
			for _, name := range phaseNamesAll {
				ph := m.StepPhaseSeconds.With(name)
				if ph.Count() != uint64(len(h.Steps)) {
					t.Errorf("phase %q observed %d commits, want %d", name, ph.Count(), len(h.Steps))
				}
				phases += ph.Sum()
			}
			if ratio := phases / commit; ratio < 0.9 || ratio > 1.1 {
				t.Errorf("phase sum %.6fs vs commit %.6fs: ratio %.3f outside [0.9, 1.1]",
					phases, commit, ratio)
			}
		})
	}
}

// TestCommitSpanDecomposition checks the span tree a commit emits: a
// commit root with the four phase children in pipeline order, and, on
// the parallel path, worker children under the parallel phases.
func TestCommitSpanDecomposition(t *testing.T) {
	h := workload.Uniform(workload.UniformConfig{Steps: 50, Seed: 7, OpsPerTx: 3, Domain: 8})
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			c := newFromHistory(t, h, WithParallelism(par))
			rec := obs.NewSpanRecorder(len(h.Steps))
			c.SetObserver(&obs.Observer{Spans: rec})
			for _, s := range h.Steps {
				if _, err := c.Step(s.Time, s.Tx); err != nil {
					t.Fatal(err)
				}
			}
			roots := rec.Snapshot()
			if len(roots) != len(h.Steps) {
				t.Fatalf("recorded %d commit spans, want %d", len(roots), len(h.Steps))
			}
			workers := 0
			for i, root := range roots {
				if root.Name != obs.SpanCommit {
					t.Fatalf("root %d is %q, want %q", i, root.Name, obs.SpanCommit)
				}
				if root.Time != h.Steps[i].Time {
					t.Errorf("root %d at t=%d, want %d", i, root.Time, h.Steps[i].Time)
				}
				if root.Dur <= 0 {
					t.Errorf("root %d has no duration", i)
				}
				var phaseNames []string
				var phaseSum float64
				for _, ch := range root.Children {
					phaseNames = append(phaseNames, ch.Name)
					phaseSum += ch.Dur.Seconds()
					for _, g := range ch.Children {
						if g.Name != obs.SpanWorker {
							t.Errorf("unexpected grandchild %q under %q", g.Name, ch.Name)
						}
						if g.Track < 1 {
							t.Errorf("worker span on track %d, want >= 1", g.Track)
						}
						workers++
					}
				}
				want := []string{obs.SpanApply, obs.SpanUpdate, obs.SpanCheck, obs.SpanCarry}
				if len(phaseNames) != len(want) {
					t.Fatalf("commit %d decomposes into %v, want %v", i, phaseNames, want)
				}
				for j := range want {
					if phaseNames[j] != want[j] {
						t.Errorf("commit %d phase[%d] = %q, want %q", i, j, phaseNames[j], want[j])
					}
				}
				if phaseSum > root.Dur.Seconds()*1.05 {
					t.Errorf("commit %d phases sum to %.6fs > commit %.6fs", i, phaseSum, root.Dur.Seconds())
				}
			}
			if par > 1 && workers == 0 {
				t.Error("parallel run emitted no worker spans")
			}
			if par == 1 && workers != 0 {
				t.Errorf("sequential run emitted %d worker spans", workers)
			}
		})
	}
}

// TestPoolMetrics checks the queue-wait histogram and utilization gauge
// move on the parallel path and stay untouched on the sequential one.
func TestPoolMetrics(t *testing.T) {
	h := workload.Uniform(workload.UniformConfig{Steps: 100, Seed: 11, OpsPerTx: 3, Domain: 8})
	seqM := obs.NewMetrics(obs.NewRegistry())
	seq := newFromHistory(t, h, WithParallelism(1))
	seq.SetObserver(&obs.Observer{Metrics: seqM})
	parM := obs.NewMetrics(obs.NewRegistry())
	par := newFromHistory(t, h, WithParallelism(4))
	par.SetObserver(&obs.Observer{Metrics: parM})
	for _, s := range h.Steps {
		if _, err := seq.Step(s.Time, s.Tx); err != nil {
			t.Fatal(err)
		}
		if _, err := par.Step(s.Time, s.Tx); err != nil {
			t.Fatal(err)
		}
	}
	if got := parM.PoolQueueWaitSeconds.Count(); got == 0 {
		t.Error("parallel run observed no queue waits")
	}
	if u := parM.PoolUtilization.Value(); u <= 0 || u > 1 {
		t.Errorf("pool utilization %v outside (0, 1]", u)
	}
	if got := seqM.PoolQueueWaitSeconds.Count(); got != 0 {
		t.Errorf("sequential run observed %d queue waits", got)
	}
}

// TestDefaultPipelineIsInline pins the default width: a checker built
// with no option, or with any n < 2, runs the pipeline inline — width 1
// on the gauge, and no commit ever observes a pool queue wait.
func TestDefaultPipelineIsInline(t *testing.T) {
	h := workload.Uniform(workload.UniformConfig{Steps: 100, Seed: 11, OpsPerTx: 3, Domain: 8})
	for name, opts := range map[string][]Option{
		"no option": nil,
		"n=0":       {WithParallelism(0)},
		"n=-3":      {WithParallelism(-3)},
	} {
		t.Run(name, func(t *testing.T) {
			m := obs.NewMetrics(obs.NewRegistry())
			c := newFromHistory(t, h, opts...)
			c.SetObserver(&obs.Observer{Metrics: m})
			if got := c.Parallelism(); got != 1 {
				t.Fatalf("Parallelism() = %d, want 1", got)
			}
			if got := m.ParallelWorkers.Value(); got != 1 {
				t.Errorf("rtic_parallel_workers = %d, want 1", got)
			}
			for _, s := range h.Steps {
				if _, err := c.Step(s.Time, s.Tx); err != nil {
					t.Fatal(err)
				}
			}
			if got := m.PoolQueueWaitSeconds.Count(); got != 0 {
				t.Errorf("%d default commits observed %d pool queue waits", len(h.Steps), got)
			}
		})
	}
}

// TestAuxGaugesTrackStatsEveryStep holds the storage gauges — published
// from the nodes' running accounts — to a fresh full walk after every
// commit of every workload, across a snapshot round trip, and pins the
// upkeep at zero allocations.
func TestAuxGaugesTrackStatsEveryStep(t *testing.T) {
	for name, h := range workloadTraces() {
		t.Run(name, func(t *testing.T) {
			m := obs.NewMetrics(obs.NewRegistry())
			c := newFromHistory(t, h)
			c.SetObserver(&obs.Observer{Metrics: m})
			check := func(c *Checker, i int) {
				t.Helper()
				st := c.Stats()
				got := Stats{
					Nodes:      int(m.AuxNodes.Value()),
					Entries:    int(m.AuxEntries.Value()),
					Timestamps: int(m.AuxTimestamps.Value()),
					Bytes:      int(m.AuxBytes.Value()),
				}
				if got.Nodes != st.Nodes || got.Entries != st.Entries || got.Timestamps != st.Timestamps || got.Bytes != st.Bytes {
					t.Fatalf("step %d: gauges %+v, full walk %d/%d/%d/%d", i, got, st.Nodes, st.Entries, st.Timestamps, st.Bytes)
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			half := len(h.Steps) / 2
			for i, s := range h.Steps[:half] {
				if _, err := c.Step(s.Time, s.Tx); err != nil {
					t.Fatal(err)
				}
				check(c, i)
			}
			var snap bytes.Buffer
			if err := c.SaveSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			r, err := LoadSnapshotObserved(h.Schema, &snap, &obs.Observer{Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("restored: %v", err)
			}
			for i, s := range h.Steps[half:] {
				if _, err := r.Step(s.Time, s.Tx); err != nil {
					t.Fatal(err)
				}
				check(r, half+i)
			}
			if allocs := testing.AllocsPerRun(100, func() { r.publishAuxGauges(m) }); allocs != 0 {
				t.Errorf("gauge upkeep allocates %.0f objects per commit, want 0", allocs)
			}
		})
	}
}
