package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rtic/internal/check"
	"rtic/internal/engine"
	"rtic/internal/formgen"
	"rtic/internal/mtl"
	"rtic/internal/storage"
	"rtic/internal/workload"
)

func newFromHistory(t *testing.T, h workload.History) *Checker {
	t.Helper()
	c := New(h.Schema)
	for _, cs := range h.Constraints {
		con, err := check.Parse(cs.Name, cs.Source, h.Schema)
		if err != nil {
			t.Fatalf("constraint %s: %v", cs.Name, err)
		}
		if err := c.AddConstraint(con); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// workloadTraces returns every scenario generator's trace, with its
// default constraints, at a size that keeps the suite fast.
func workloadTraces() map[string]workload.History {
	return map[string]workload.History{
		"uniform": workload.Uniform(workload.UniformConfig{Steps: 200, Seed: 7, OpsPerTx: 2, Domain: 8}),
		"tickets": workload.Tickets(workload.TicketsConfig{Steps: 200, Seed: 8, ViolationRate: 0.05}),
		"hr":      workload.HR(workload.HRConfig{Steps: 200, Seed: 9, ViolationRate: 0.05}),
		"library": workload.Library(workload.LibraryConfig{Steps: 200, Seed: 10, ViolationRate: 0.05}),
		"alarms":  workload.Alarms(workload.AlarmsConfig{Steps: 200, Seed: 11, ViolationRate: 0.05}),
	}
}

// TestParallelEquivalentToSequentialOnWorkloads steps several checkers
// of one workload at once, each on its own goroutine as the shard router
// runs its shards, and holds every one to a checker stepped alone: the
// same violations in the same constraint order at every step, the
// invariants after every step and the same auxiliary state at the end.
// Checkers share nothing mutable, so running side by side changes nothing.
func TestParallelEquivalentToSequentialOnWorkloads(t *testing.T) {
	const side = 3
	for name, h := range workloadTraces() {
		t.Run(name, func(t *testing.T) {
			seq := newFromHistory(t, h)
			want := make([][]check.Violation, len(h.Steps))
			for i, s := range h.Steps {
				want[i] = mustStep(t, seq, s.Time, s.Tx.Clone())
			}
			par := make([]*Checker, side)
			txs := make([][]*storage.Transaction, side)
			for k := range par {
				par[k] = newFromHistory(t, h)
				for _, s := range h.Steps {
					txs[k] = append(txs[k], s.Tx.Clone())
				}
			}
			errs := make([]error, side)
			var wg sync.WaitGroup
			for k, c := range par {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, s := range h.Steps {
						got, err := c.Step(s.Time, txs[k][i])
						if err != nil {
							errs[k] = fmt.Errorf("step %d: %v", i, err)
							return
						}
						if cg, cw := canon(got), canon(want[i]); !sameCanon(cg, cw) {
							errs[k] = fmt.Errorf("step %d (t=%d):\nside by side: %v\nalone:        %v", i, s.Time, cg, cw)
							return
						}
						// Binding order within one constraint is unspecified,
						// but per-constraint blocks come in installation order.
						for j := range got {
							if got[j].Constraint != want[i][j].Constraint {
								errs[k] = fmt.Errorf("step %d: constraint order diverged at %d: %s vs %s",
									i, j, got[j].Constraint, want[i][j].Constraint)
								return
							}
						}
						if err := c.CheckInvariants(); err != nil {
							errs[k] = fmt.Errorf("step %d: invariants: %v", i, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			ss := seq.Stats()
			for k, c := range par {
				if errs[k] != nil {
					t.Fatalf("checker %d of %d: %v", k, side, errs[k])
				}
				ps := c.Stats()
				if ss.Nodes != ps.Nodes || ss.Entries != ps.Entries || ss.Timestamps != ps.Timestamps || ss.Bytes != ps.Bytes {
					t.Fatalf("checker %d: auxiliary state diverged: alone %+v, side by side %+v", k, ss, ps)
				}
			}
		})
	}
}

// operands returns the immediate subformulas of a temporal operator.
func operands(f mtl.Formula) []mtl.Formula {
	switch n := f.(type) {
	case *mtl.Prev:
		return []mtl.Formula{n.F}
	case *mtl.Once:
		return []mtl.Formula{n.F}
	case *mtl.Since:
		return []mtl.Formula{n.L, n.R}
	default:
		return nil
	}
}

// scheduleInvariants checks what the update phase relies on when it runs
// c.nodes in order: every node sits there exactly once, after each of its
// direct temporal children (so every child updates before its parents).
func scheduleInvariants(c *Checker) error {
	pos := make(map[auxNode]int, len(c.nodes))
	for i, n := range c.nodes {
		if prev, dup := pos[n]; dup {
			return fmt.Errorf("node %q registered twice (at %d and %d)", n.formula().String(), prev, i)
		}
		pos[n] = i
	}
	for f, n := range c.byNode {
		if _, ok := pos[n]; !ok {
			return fmt.Errorf("node of %q missing from the registration order", f.String())
		}
	}
	for i, n := range c.nodes {
		var kids []mtl.Formula
		for _, op := range operands(n.formula()) {
			directTemporal(op, &kids)
		}
		for _, k := range kids {
			child, ok := c.byNode[k]
			if !ok {
				return fmt.Errorf("child %q of %q unregistered", k.String(), n.formula().String())
			}
			if pos[child] >= i {
				return fmt.Errorf("child %q (at %d) not before parent %q (at %d)",
					k.String(), pos[child], n.formula().String(), i)
			}
		}
	}
	return nil
}

func TestScheduleShapes(t *testing.T) {
	s := equivSchema()
	cases := []struct {
		srcs  []string
		nodes []string // registration order
	}{
		{[]string{"p(x) -> not once[0,3] q(x)"}, []string{"once[0,3] q(x)"}},
		{[]string{"p(x) -> not once[0,4] prev q(x)"}, []string{"prev q(x)", "once[0,4] prev q(x)"}},
		{
			[]string{"p(x) -> not once[0,50] prev once[0,50] q(x)"},
			[]string{"once[0,50] q(x)", "prev once[0,50] q(x)", "once[0,50] prev once[0,50] q(x)"},
		},
		{
			// Shared shapes dedup.
			[]string{
				"p(x) -> not once[0,3] q(x)",
				"p(x) -> not once[0,5] q(x)",
				"q(x) -> not once[0,3] q(x)", // same shape as the first: shared node
			},
			[]string{"once[0,3] q(x)", "once[0,5] q(x)"},
		},
		{
			[]string{
				"p(x) -> not once[0,3] q(x)",
				"p(x) -> not once[0,4] prev q(x)",
			},
			[]string{"once[0,3] q(x)", "prev q(x)", "once[0,4] prev q(x)"},
		},
		{
			// A narrower window joins its family after a reader of a
			// wider member: registration order, not window order.
			[]string{
				"q(x) -> once[0,3] once[0,5] p(x)",
				"q(x) -> once[0,2] p(x)",
			},
			[]string{"once[0,5] p(x)", "once[0,3] once[0,5] p(x)", "once[0,2] p(x)"},
		},
	}
	for _, tc := range cases {
		c := New(s)
		for i, src := range tc.srcs {
			addConstraint(t, c, s, fmt.Sprintf("c%d", i), src)
		}
		var got []string
		for _, n := range c.nodes {
			got = append(got, n.formula().String())
		}
		if !slices.Equal(got, tc.nodes) {
			t.Fatalf("%v: nodes %q, want %q", tc.srcs, got, tc.nodes)
		}
		if err := scheduleInvariants(c); err != nil {
			t.Fatalf("%v: %v", tc.srcs, err)
		}
	}
}

// FuzzLevelSchedule draws random safe constraints from formgen's
// grammar and checks the registration order's invariant after every
// installation.
func FuzzLevelSchedule(f *testing.F) {
	for _, seed := range []int64{1, 42, 777, 9000} {
		f.Add(seed, uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, nCons uint8) {
		r := rand.New(rand.NewSource(seed))
		s := formgen.Schema()
		c := New(s)
		n := int(nCons%5) + 1
		for k := 0; k < n; k++ {
			src := formgen.Constraint(r)
			con, err := check.Parse(fmt.Sprintf("c%d", k), src, s)
			if err != nil {
				t.Fatalf("formgen produced unparseable constraint %q: %v", src, err)
			}
			if err := c.AddConstraint(con); err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			if err := scheduleInvariants(c); err != nil {
				t.Fatalf("after installing %q: %v", src, err)
			}
		}
	})
}

// failNode is an auxiliary node whose update fails with err.
type failNode struct {
	auxNode
	err error
}

func (f failNode) phaseA(*stepCtx, uint64) error { return f.err }

// TestStepReturnsFirstErrorInScheduleOrder: when several node updates
// of one commit fail, Step returns the error of the first in
// registration order and commits nothing.
func TestStepReturnsFirstErrorInScheduleOrder(t *testing.T) {
	s := equivSchema()
	c := New(s)
	addConstraint(t, c, s, "c0", "p(x) -> not once[0,3] q(x)")
	addConstraint(t, c, s, "c1", "p(x) -> not once[0,4] prev q(x)")
	if len(c.nodes) != 3 {
		t.Fatalf("%d nodes, want once[0,3] q(x), prev q(x) and once[0,4] prev q(x)", len(c.nodes))
	}
	first := errors.New("second node")
	c.nodes[2] = failNode{c.nodes[2], errors.New("third node")}
	c.nodes[1] = failNode{c.nodes[1], first}
	if _, err := c.Step(1, ins("p", 1)); err != first {
		t.Fatalf("Step returned %v, want %v", err, first)
	}
	if c.Len() != 0 {
		t.Fatalf("a failed commit counted: Len() = %d", c.Len())
	}
}

// engine.SerialBatch over Step is the batch commit of every engine
// (rtic.Batch calls it): same violations as stepping one at a time, and
// on a failing step the committed prefix stays committed.
func TestStepBatchMatchesSteps(t *testing.T) {
	h := workload.Tickets(workload.TicketsConfig{Steps: 120, Seed: 21, ViolationRate: 0.1})
	single := newFromHistory(t, h)
	batch := newFromHistory(t, h)

	steps := make([]engine.Step, len(h.Steps))
	var want [][]check.Violation
	for i, s := range h.Steps {
		steps[i] = engine.Step{Time: s.Time, Tx: s.Tx}
		vs, err := single.Step(s.Time, s.Tx)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want = append(want, vs)
	}
	got, err := engine.SerialBatch(batch.Step, steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch returned %d slices, want %d", len(got), len(want))
	}
	for i := range got {
		if !sameCanon(canon(got[i]), canon(want[i])) {
			t.Fatalf("step %d: batch %v vs single %v", i, canon(got[i]), canon(want[i]))
		}
	}
	if single.Len() != batch.Len() || single.Now() != batch.Now() {
		t.Fatalf("clocks diverged: single (%d, %d), batch (%d, %d)",
			single.Len(), single.Now(), batch.Len(), batch.Now())
	}
}

func TestStepBatchPrefixOnError(t *testing.T) {
	h := workload.Uniform(workload.UniformConfig{Steps: 4, Seed: 3, OpsPerTx: 1, Domain: 4})
	c := newFromHistory(t, h)
	steps := []engine.Step{
		{Time: h.Steps[0].Time, Tx: h.Steps[0].Tx},
		{Time: h.Steps[1].Time, Tx: h.Steps[1].Tx},
		{Time: h.Steps[0].Time, Tx: h.Steps[2].Tx}, // non-increasing: fails
		{Time: h.Steps[3].Time, Tx: h.Steps[3].Tx},
	}
	out, err := engine.SerialBatch(c.Step, steps)
	if err == nil {
		t.Fatal("batch with a non-increasing timestamp committed")
	}
	if len(out) != 2 {
		t.Fatalf("prefix has %d slices, want 2", len(out))
	}
	if c.Len() != 2 {
		t.Fatalf("checker committed %d states, want the 2-step prefix", c.Len())
	}
}
