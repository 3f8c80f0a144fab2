package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/check"
	"rtic/internal/engine"
	"rtic/internal/formgen"
	"rtic/internal/mtl"
	"rtic/internal/workload"
)

// The parallel commit pipeline must be observationally identical to the
// sequential one: same violations, same auxiliary state, same errors —
// on every trace. These tests hold WithParallelism(4) to
// WithParallelism(1) the same way the equivalence suite holds the
// incremental checker to the naive semantics.

func newFromHistory(t *testing.T, h workload.History, opts ...Option) *Checker {
	t.Helper()
	c := New(h.Schema, opts...)
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

func TestParallelEquivalentToSequentialOnWorkloads(t *testing.T) {
	for name, h := range workloadTraces() {
		t.Run(name, func(t *testing.T) {
			seq := newFromHistory(t, h, WithParallelism(1))
			par := newFromHistory(t, h, WithParallelism(4))
			if got := seq.Parallelism(); got != 1 {
				t.Fatalf("sequential checker reports parallelism %d", got)
			}
			if got := par.Parallelism(); got != 4 {
				t.Fatalf("parallel checker reports parallelism %d", got)
			}
			for i, s := range h.Steps {
				want, err := seq.Step(s.Time, s.Tx)
				if err != nil {
					t.Fatalf("step %d: sequential: %v", i, err)
				}
				got, err := par.Step(s.Time, s.Tx)
				if err != nil {
					t.Fatalf("step %d: parallel: %v", i, err)
				}
				if cg, cw := canon(got), canon(want); !sameCanon(cg, cw) {
					t.Fatalf("step %d (t=%d):\nparallel:   %v\nsequential: %v", i, s.Time, cg, cw)
				}
				// Binding order within one constraint is unspecified (it
				// follows evaluator enumeration), but the parallel check
				// phase must still flatten per-constraint blocks in
				// installation order.
				if len(got) != len(want) {
					t.Fatalf("step %d: %d vs %d violations", i, len(got), len(want))
				}
				for k := range got {
					if got[k].Constraint != want[k].Constraint {
						t.Fatalf("step %d: constraint order diverged at %d: %s vs %s",
							i, k, got[k].Constraint, want[k].Constraint)
					}
				}
				if err := par.CheckInvariants(); err != nil {
					t.Fatalf("step %d: parallel invariants: %v", i, err)
				}
			}
			ss, ps := seq.Stats(), par.Stats()
			if ss.Nodes != ps.Nodes || ss.Entries != ps.Entries || ss.Timestamps != ps.Timestamps || ss.Bytes != ps.Bytes {
				t.Fatalf("auxiliary state diverged: sequential %+v, parallel %+v", ss, ps)
			}
		})
	}
}

// TestParallelEquivalenceRandomConstraints drives the width comparison
// over the full operator pool instead of the scenario constraints, with
// several constraints installed so the check phase actually fans out.
func TestParallelEquivalenceRandomConstraints(t *testing.T) {
	s := equivSchema()
	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(3000 + seed))
		seq := New(s, WithParallelism(1))
		par := New(s, WithParallelism(4))
		nCons := 2 + r.Intn(4)
		var names []string
		for k := 0; k < nCons; k++ {
			src := constraintPool[r.Intn(len(constraintPool))]
			name := fmt.Sprintf("c%d", k)
			con, err := check.Parse(name, src, s)
			if err != nil {
				t.Fatalf("seed %d: %q: %v", seed, src, err)
			}
			if err := seq.AddConstraint(con); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			con2, _ := check.Parse(name, src, s)
			if err := par.AddConstraint(con2); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			names = append(names, src)
		}
		tm := uint64(0)
		for i := 0; i < 40; i++ {
			tm += uint64(1 + r.Intn(3))
			tx := randomTx(r, 4)
			want, err := seq.Step(tm, tx.Clone())
			if err != nil {
				t.Fatalf("seed %d step %d: sequential: %v\nconstraints: %q", seed, i, err, names)
			}
			got, err := par.Step(tm, tx)
			if err != nil {
				t.Fatalf("seed %d step %d: parallel: %v\nconstraints: %q", seed, i, err, names)
			}
			if cg, cw := canon(got), canon(want); !sameCanon(cg, cw) {
				t.Fatalf("seed %d step %d (t=%d, tx=%s):\nparallel:   %v\nsequential: %v\nconstraints: %q",
					seed, i, tm, tx, cg, cw, names)
			}
		}
	}
}

// TestParallelFamilyOnCDCFeed is the race leg of the shared table: four
// windows over reading(s) are one family, updated by one task of its
// level while the tasks of its other members — and of the unrelated
// since node beside them — run on other workers; then four check tasks
// probe the one table at once. Run under -race (tier 1 does); the pool
// must report what the inline pipeline reports and hold what it holds.
func TestParallelFamilyOnCDCFeed(t *testing.T) {
	cfg := cdcgen.Config{Steps: 400, Seed: 11, Sensors: 16, BurstLen: 4, BurstEvery: 10, MaxReorder: 2, ViolationRate: 0.05}
	h, _ := cdcgen.Generate(cfg)
	h.Constraints = append(h.Constraints,
		workload.ConstraintSpec{Name: "fresh_serve_3", Source: "serve(s) -> once[0,3] reading(s)"},
		workload.ConstraintSpec{Name: "ever_read", Source: "serve(s) -> once reading(s)"},
	)
	seq := newFromHistory(t, h)
	par := newFromHistory(t, h, WithParallelism(4))
	if fam := memberOf(t, par, "fresh_serve").fam; len(fam.members) != 4 || len(par.nodes) != 5 {
		t.Fatalf("want a family of four and one more node, have %d members among %d nodes", len(fam.members), len(par.nodes))
	}
	violations := 0
	for i, s := range h.Steps {
		want, err := seq.Step(s.Time, s.Tx.Clone())
		if err != nil {
			t.Fatalf("step %d: inline: %v", i, err)
		}
		got, err := par.Step(s.Time, s.Tx)
		if err != nil {
			t.Fatalf("step %d: pool: %v", i, err)
		}
		if cg, cw := canon(got), canon(want); !sameCanon(cg, cw) {
			t.Fatalf("step %d (t=%d):\npool:   %v\ninline: %v", i, s.Time, cg, cw)
		}
		ss, ps := seq.Stats(), par.Stats()
		if ss.Entries != ps.Entries || ss.Timestamps != ps.Timestamps || ss.Bytes != ps.Bytes {
			t.Fatalf("step %d: auxiliary state diverged: inline %+v, pool %+v", i, ss, ps)
		}
		violations += len(got)
	}
	if err := par.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if violations == 0 {
		t.Fatal("the feed reported no violation: the comparison checked nothing")
	}
}

// TestParallelPropagatesErrors: a failing constraint check must surface
// the same error at every pool width, and the checker must refuse the
// same malformed inputs.
func TestParallelPropagatesErrors(t *testing.T) {
	h := workload.Uniform(workload.UniformConfig{Steps: 5, Seed: 1, OpsPerTx: 1, Domain: 4})
	for _, par := range []int{1, 4} {
		c := newFromHistory(t, h, WithParallelism(par))
		if _, err := c.Step(h.Steps[0].Time, h.Steps[0].Tx); err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		// Non-increasing timestamp: rejected before any phase runs.
		if _, err := c.Step(h.Steps[0].Time, h.Steps[1].Tx); err == nil {
			t.Fatalf("par %d: non-increasing timestamp accepted", par)
		}
	}
}

// scheduleInvariants checks the leveled schedule's structural
// guarantees: every registered node appears in exactly one level, and
// every node's level is strictly above all its direct temporal
// children's levels (so a level barrier is a correct dependency
// barrier).
func scheduleInvariants(c *Checker) error {
	seen := make(map[auxNode]int, len(c.nodes))
	count := 0
	for lvl, level := range c.levels {
		for _, n := range level {
			if prev, dup := seen[n]; dup {
				return fmt.Errorf("node %q scheduled twice (levels %d and %d)", n.formula().String(), prev, lvl)
			}
			if c.levelOf[n] != lvl {
				return fmt.Errorf("node %q: levelOf says %d, scheduled at %d", n.formula().String(), c.levelOf[n], lvl)
			}
			seen[n] = lvl
			count++
		}
	}
	if count != len(c.nodes) {
		return fmt.Errorf("schedule covers %d nodes, checker has %d", count, len(c.nodes))
	}
	for _, n := range c.nodes {
		lvl, ok := seen[n]
		if !ok {
			return fmt.Errorf("node %q missing from the schedule", n.formula().String())
		}
		var kids []mtl.Formula
		for _, op := range operands(n.formula()) {
			directTemporal(op, &kids)
		}
		for _, k := range kids {
			child, ok := c.byNode[k]
			if !ok {
				return fmt.Errorf("child %q of %q unregistered", k.String(), n.formula().String())
			}
			if seen[child] >= lvl {
				return fmt.Errorf("child %q (level %d) not strictly below parent %q (level %d)",
					k.String(), seen[child], n.formula().String(), lvl)
			}
		}
	}
	return nil
}

func TestScheduleShapes(t *testing.T) {
	s := equivSchema()
	cases := []struct {
		srcs   []string
		levels []int // nodes per level
	}{
		{[]string{"p(x) -> not once[0,3] q(x)"}, []int{1}},
		{[]string{"p(x) -> not once[0,4] prev q(x)"}, []int{1, 1}},
		{[]string{"p(x) -> not once[0,50] prev once[0,50] q(x)"}, []int{1, 1, 1}},
		{
			// Independent windows land on one level; shared shapes dedup.
			[]string{
				"p(x) -> not once[0,3] q(x)",
				"p(x) -> not once[0,5] q(x)",
				"q(x) -> not once[0,3] q(x)", // same shape as the first: shared node
			},
			[]int{2},
		},
		{
			[]string{
				"p(x) -> not once[0,3] q(x)",
				"p(x) -> not once[0,4] prev q(x)",
			},
			[]int{2, 1},
		},
	}
	for _, tc := range cases {
		c := New(s)
		for i, src := range tc.srcs {
			con, err := check.Parse(fmt.Sprintf("c%d", i), src, s)
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			if err := c.AddConstraint(con); err != nil {
				t.Fatalf("%q: %v", src, err)
			}
		}
		sched := c.Schedule()
		if len(sched) != len(tc.levels) {
			t.Fatalf("%v: %d levels, want %d (%v)", tc.srcs, len(sched), len(tc.levels), sched)
		}
		for i, want := range tc.levels {
			if len(sched[i]) != want {
				t.Fatalf("%v: level %d has %d nodes, want %d (%v)", tc.srcs, i, len(sched[i]), want, sched)
			}
		}
		if err := scheduleInvariants(c); err != nil {
			t.Fatalf("%v: %v", tc.srcs, err)
		}
	}
}

// FuzzLevelSchedule draws random safe constraints from formgen's
// grammar and checks the scheduler's ordering invariant after every
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
