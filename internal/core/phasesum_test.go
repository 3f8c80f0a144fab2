package core

import (
	"bytes"
	"testing"

	"rtic/internal/check"
	"rtic/internal/obs"
	"rtic/internal/workload"
)

// phaseNamesAll mirrors the phase labels the checker exports.
var phaseNamesAll = []string{"apply", "update", "check", "carry"}

// TestPhaseSecondsSumToCommitSeconds is the attribution acceptance
// criterion: the per-phase histograms must account for the commit
// histogram — what rtic_step_phase_seconds{phase} sums to has to land
// within 10% of rtic_commit_duration_seconds, or the decomposition is
// lying about where commit time goes. The subtest keeps the name it had
// when the pipeline came in two widths; there is one width now.
func TestPhaseSecondsSumToCommitSeconds(t *testing.T) {
	h := workload.Uniform(workload.UniformConfig{Steps: 400, Seed: 53, OpsPerTx: 4, Domain: 16})
	t.Run("parallelism=1", func(t *testing.T) {
		c := newFromHistory(t, h)
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

// TestCommitSpanDecomposition checks the span tree a commit emits to a
// sink that does not ask for detail: a commit root with the four phase
// spans as leaf children, in pipeline order. The subtest keeps the name
// it had when the pipeline came in two widths.
func TestCommitSpanDecomposition(t *testing.T) {
	h := workload.Uniform(workload.UniformConfig{Steps: 50, Seed: 7, OpsPerTx: 3, Domain: 8})
	t.Run("parallelism=1", func(t *testing.T) {
		c := newFromHistory(t, h)
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
				if len(ch.Children) != 0 {
					t.Errorf("commit %d: %s has %d children without a detail sink", i, ch.Name, len(ch.Children))
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
	})
}

// TestAuxGaugesTrackStatsEveryStep holds the storage gauges — published
// from the nodes' running accounts — to a fresh full walk after every
// commit of every workload, across a snapshot round trip, checks the
// invariants and the order of the violations at every step, and pins
// the gauge upkeep at zero allocations.
func TestAuxGaugesTrackStatsEveryStep(t *testing.T) {
	for name, h := range workloadTraces() {
		t.Run(name, func(t *testing.T) {
			m := obs.NewMetrics(obs.NewRegistry())
			c := newFromHistory(t, h)
			c.SetObserver(&obs.Observer{Metrics: m})
			verify := func(c *Checker, i int, vs []check.Violation) {
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
				k := 0 // each constraint's violations form one block, in installation order
				for _, v := range vs {
					for k < len(c.constraints) && c.constraints[k].Name != v.Constraint {
						k++
					}
					if k == len(c.constraints) {
						t.Fatalf("step %d: violations out of installation order: %v", i, vs)
					}
				}
			}
			half := len(h.Steps) / 2
			for i, s := range h.Steps[:half] {
				vs, err := c.Step(s.Time, s.Tx)
				if err != nil {
					t.Fatal(err)
				}
				verify(c, i, vs)
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
				vs, err := r.Step(s.Time, s.Tx)
				if err != nil {
					t.Fatal(err)
				}
				verify(r, half+i, vs)
			}
			if allocs := testing.AllocsPerRun(100, func() { r.publishAuxGauges(m) }); allocs != 0 {
				t.Errorf("gauge upkeep allocates %.0f objects per commit, want 0", allocs)
			}
		})
	}
}
