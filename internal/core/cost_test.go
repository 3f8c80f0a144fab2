package core

import (
	"testing"

	"rtic/internal/check"
	"rtic/internal/schema"
)

func costChecker(t *testing.T, src string) *Checker {
	t.Helper()
	s := schema.NewBuilder().
		Relation("p", 1).
		Relation("q", 1).
		Relation("r", 2).
		MustBuild()
	c := New(s)
	con, err := check.Parse("c", src, s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	if err := c.AddConstraint(con); err != nil {
		t.Fatalf("AddConstraint(%q): %v", src, err)
	}
	return c
}

func TestScheduleCosts(t *testing.T) {
	cases := []struct {
		src       string
		formula   string
		span      uint64
		arity     int
		weight    uint64
		wantNodes int
	}{
		// A window with lower bound 0 is decided by its newest anchor.
		{`p(x) -> not once[0,9] p(x)`, "", 1, 1, 1, 1},
		// once[2,9] p(x) needs every anchor of ages 0..9.
		{`p(x) -> not once[2,9] p(x)`, "", 10, 1, 10, 1},
		// Unbounded window retains a single timestamp per binding.
		{`p(x) -> not once q(x)`, "", 1, 1, 1, 1},
		// prev stores exactly one state.
		{`p(x) -> prev[1,5] p(x)`, "", 1, 1, 1, 1},
		// Binary binding space doubles the weight.
		{`r(x, y) -> not once[1,4] r(x, y)`, "", 5, 2, 10, 1},
	}
	for _, tc := range cases {
		c := costChecker(t, tc.src)
		costs := c.ScheduleCosts()
		if len(costs) != tc.wantNodes {
			t.Errorf("%q: %d nodes, want %d", tc.src, len(costs), tc.wantNodes)
			continue
		}
		nc := costs[0]
		if nc.Span != tc.span || nc.Arity != tc.arity || nc.Weight != tc.weight {
			t.Errorf("%q: got span=%d arity=%d weight=%d, want span=%d arity=%d weight=%d",
				tc.src, nc.Span, nc.Arity, nc.Weight, tc.span, tc.arity, tc.weight)
		}
	}
}

// TestScheduleCostsLevels checks costs come out in schedule order with
// correct levels for nested temporal formulas.
func TestScheduleCostsLevels(t *testing.T) {
	c := costChecker(t, `p(x) -> not once[0,3] prev[0,9] p(x)`)
	costs := c.ScheduleCosts()
	if len(costs) != 2 {
		t.Fatalf("got %d nodes, want 2", len(costs))
	}
	if costs[0].Level != 0 || costs[1].Level != 1 {
		t.Errorf("levels = %d,%d, want 0,1", costs[0].Level, costs[1].Level)
	}
	for i := 1; i < len(costs); i++ {
		if costs[i].Level < costs[i-1].Level {
			t.Errorf("costs not in schedule order: level %d after %d", costs[i].Level, costs[i-1].Level)
		}
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	max := ^uint64(0)
	if got := satAdd(max, 1); got != max {
		t.Errorf("satAdd(max,1) = %d", got)
	}
	if got := satMul(max, 2); got != max {
		t.Errorf("satMul(max,2) = %d", got)
	}
	if got := satMul(0, max); got != 0 {
		t.Errorf("satMul(0,max) = %d", got)
	}
}
