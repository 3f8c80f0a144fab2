package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/check"
	"rtic/internal/engine"
	"rtic/internal/formgen"
	"rtic/internal/mtl"
	"rtic/internal/naive"
	"rtic/internal/schema"
	"rtic/internal/spec"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/workload"
)

// The delta-driven check path (compiled plans, skip/seed decisions,
// node refresh) must be invisible in the answers: the checker and
// internal/naive, which walks the whole history with the tree-walking
// evaluator, report identical violations on arbitrary histories.

func TestPlannedMatchesTreeWalk(t *testing.T) {
	s := equivSchema()
	actions := map[SkipAction]int{}
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		nCons := 1 + r.Intn(3)
		planned := New(s)
		walk := naive.New(s)
		var names []string
		for k := 0; k < nCons; k++ {
			src := constraintPool[r.Intn(len(constraintPool))]
			name := fmt.Sprintf("c%d", k)
			for _, c := range []engine.Engine{planned, walk} {
				con, err := check.Parse(name, src, s)
				if err != nil {
					t.Fatalf("seed %d: constraint %q: %v", seed, src, err)
				}
				if err := c.AddConstraint(con); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			names = append(names, src)
		}
		tm := uint64(0)
		steps := 30 + r.Intn(20)
		for i := 0; i < steps; i++ {
			tm += uint64(1 + r.Intn(3))
			tx := randomTx(r, 4)
			got, err := planned.Step(tm, tx.Clone())
			if err != nil {
				t.Fatalf("seed %d step %d: planned: %v\nconstraints: %v", seed, i, err, names)
			}
			want, err := walk.Step(tm, tx)
			if err != nil {
				t.Fatalf("seed %d step %d: naive: %v", seed, i, err)
			}
			cg, cw := canon(got), canon(want)
			if !sameCanon(cg, cw) {
				t.Fatalf("seed %d step %d (t=%d, tx=%s):\nplanned: %v\nnaive:   %v\nconstraints: %v",
					seed, i, tm, tx, cg, cw, names)
			}
			if err := planned.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
			for _, si := range planned.LastSkips() {
				actions[si.Action]++
			}
		}
	}
	// The differential only means something if the cheap strategies
	// actually fired: the fixed seeds must exercise reuse, semi-naive
	// seeding and full plan execution.
	for _, a := range []SkipAction{ActionSkipped, ActionSeeded, ActionPlanned} {
		if actions[a] == 0 {
			t.Fatalf("action %q never chosen across all seeds (distribution %v)", a, actions)
		}
	}
}

// LastSkips must attribute the right strategy: a commit that touches
// nothing a constraint reads skips it; a commit touching its relations
// re-derives it from the delta.
func TestLastSkipsDecisions(t *testing.T) {
	s := equivSchema()
	c := New(s)
	for name, src := range map[string]string{
		"onP": "p(x) -> not once[0,5] p(x)",
		"onQ": "not (exists x: q(x) and prev q(x))",
	} {
		con, err := check.Parse(name, src, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddConstraint(con); err != nil {
			t.Fatal(err)
		}
	}
	actionOf := func(name string) SkipInfo {
		t.Helper()
		for _, si := range c.LastSkips() {
			if si.Constraint == name {
				return si
			}
		}
		t.Fatalf("no skip record for %q in %v", name, c.LastSkips())
		return SkipInfo{}
	}

	// First commit: no previous answers, both run in full.
	tx := storage.NewTransaction()
	tx.Insert("p", tuple.Ints(1))
	if _, err := c.Step(1, tx); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"onP", "onQ"} {
		if got := actionOf(name); got.Action != ActionPlanned {
			t.Fatalf("first commit: %s = %v, want %v", name, got, ActionPlanned)
		}
	}

	// Second commit touches only p: the q-constraint is skipped.
	tx = storage.NewTransaction()
	tx.Insert("p", tuple.Ints(2))
	if _, err := c.Step(2, tx); err != nil {
		t.Fatal(err)
	}
	if got := actionOf("onQ"); got.Action != ActionSkipped {
		t.Fatalf("p-only commit: onQ = %v, want %v", got, ActionSkipped)
	}
	if got := actionOf("onP"); got.Action == ActionSkipped {
		t.Fatalf("p-only commit: onP skipped despite p changing: %v", got)
	}

	// A no-op transaction (net delta empty, no node changes): everything
	// is skipped.
	if _, err := c.Step(3, storage.NewTransaction()); err != nil {
		t.Fatal(err)
	}
	if got := actionOf("onQ"); got.Action != ActionSkipped {
		t.Fatalf("empty commit: onQ = %v, want %v", got, ActionSkipped)
	}
	// onP's once node still dirties while fresh anchors age in, so no
	// assertion on it here; see TestPlannedMatchesTreeWalk for the
	// answer-level guarantee.
}

// A skipped constraint must re-report its violations (same bindings) at
// the new state, not suppress them.
func TestSkipReemitsViolations(t *testing.T) {
	s := equivSchema()
	c := New(s)
	con, err := check.Parse("dupQ", "not (exists x: q(x) and once[0,9] q(x))", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddConstraint(con); err != nil {
		t.Fatal(err)
	}
	tx := storage.NewTransaction()
	tx.Insert("q", tuple.Ints(7))
	vs, err := c.Step(1, tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("violations at t=1: %v", vs)
	}
	// Commit touching only p: dupQ's read set is clean, yet the
	// violation persists in the new state and must be re-reported.
	tx = storage.NewTransaction()
	tx.Insert("p", tuple.Ints(1))
	vs, err = c.Step(2, tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Time != 2 {
		t.Fatalf("violations at t=2: %v", vs)
	}
	if got := c.LastSkips()[0]; got.Action != ActionSkipped {
		t.Fatalf("dupQ = %v, want %v", got, ActionSkipped)
	}
}

// TestPlannerIsTotal is the planner-coverage table as an assertion:
// whatever check.Parse admits of 10,000 formgen constraints, 10,000
// formulas from the edge of the safe fragment, the shipped spec files,
// the five workloads and the cdcgen policies installs — the denial,
// every node operand and every since chain compile, since the engine
// has no other evaluator to run them with. mtl.CheckSafe is the one
// definition of the language; plan.Compile's range-restriction errors
// are unreachable from anything it admits.
func TestPlannerIsTotal(t *testing.T) {
	installed, refused := map[string]int{}, map[string]int{}
	install := func(corpus string, s *schema.Schema, src string) {
		con, err := check.Parse("c", src, s)
		if err != nil {
			refused[corpus]++
			return // outside the language: not the planner's call
		}
		if err := New(s).AddConstraint(con); err != nil {
			t.Errorf("%s: %q (denial %q): %v", corpus, src, con.Denial.String(), err)
		}
		installed[corpus]++
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		install("formgen", formgen.Schema(), formgen.Constraint(r))
		install("nearly-safe", formgen.Schema(), formgen.NearlySafe(r))
	}
	paths, err := filepath.Glob("../../examples/specs/*.rtic")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no spec files found: %v", err)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spec.ParseSpec(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, cs := range sp.Constraints {
			install("specs", sp.Schema, cs.Source)
		}
	}
	cdc, _ := cdcgen.Generate(cdcgen.Config{Steps: 1})
	for _, h := range []workload.History{
		workload.Uniform(workload.UniformConfig{Steps: 1}),
		workload.Tickets(workload.TicketsConfig{Steps: 1}),
		workload.HR(workload.HRConfig{Steps: 1}),
		workload.Library(workload.LibraryConfig{Steps: 1}),
		workload.Alarms(workload.AlarmsConfig{Steps: 1}),
		cdc,
	} {
		for _, cs := range h.Constraints {
			install("workloads", h.Schema, cs.Source)
		}
	}
	if installed["formgen"] != 10000 || installed["specs"] == 0 || installed["workloads"] < 9 {
		t.Fatalf("installed %v: want 10000 formgen constraints, the spec files' and the nine workload and cdcgen ones", installed)
	}
	// The edge generator is only a test of the line if it lands on both
	// sides of it.
	if installed["nearly-safe"] < 2000 || refused["nearly-safe"] < 2000 {
		t.Fatalf("nearly-safe: %d installed, %d refused of 10000: want at least 2000 of each", installed["nearly-safe"], refused["nearly-safe"])
	}
	t.Logf("installed %v, refused by check.Parse %v", installed, refused)
}

// A quantified variable that no enumerable literal provides can only be
// decided by ranging over the active domain, which no read set covers.
// The language refuses it (mtl.CheckSafe, for every engine), so
// check.Parse never hands one to AddConstraint; a denial built around
// the compiler still meets the planner's backstop and leaves nothing
// installed.
func TestAddConstraintRefusesUnrestrictedQuantifier(t *testing.T) {
	s := equivSchema()
	for _, src := range []string{
		"p(x) -> (forall y: r(x, y))",
		"p(x) -> not ((exists y: not r(x, y)) since q(x))",
		"p(x) -> not once[0,4] (q(x) and (exists y: not r(x, y)))",
	} {
		var se *mtl.SafetyError
		if _, err := check.Parse("c", src, s); !errors.As(err, &se) {
			t.Errorf("check.Parse(%q) = %v, want a *mtl.SafetyError", src, err)
		} else if _, ok := se.Node.(*mtl.Exists); !ok || se.Pos == 0 {
			t.Errorf("check.Parse(%q) blames %q at position %d, want the quantifier", src, se.Node, se.Pos)
		}
		f := mtl.MustParse(src)
		con := &check.Constraint{
			Name:    "c",
			Formula: f,
			Denial:  mtl.Simplify(mtl.Normalize(&mtl.Not{F: f})),
			Vars:    mtl.FreeVars(f),
		}
		c := New(s)
		if err := c.AddConstraint(con); err == nil {
			t.Errorf("%q installed; its denial %q quantifies over the active domain", src, con.Denial.String())
		}
		if n := len(c.ConstraintNames()); n != 0 {
			t.Errorf("%q: refused, yet %d constraints are installed", src, n)
		}
	}
}
