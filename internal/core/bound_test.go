package core

import (
	"fmt"
	"testing"
)

// TestNodeBounds is the bound table: the most timestamps one binding of
// each node retains under DESIGN.md's pruning rules.
func TestNodeBounds(t *testing.T) {
	cases := []struct {
		srcs  []string
		nodes []string // in registration order
		want  []uint64
	}{
		// A window with lower bound 0 is decided by its newest anchor.
		{[]string{`p(x) -> not once[0,9] p(x)`}, []string{"once[0,9] p(x)"}, []uint64{1}},
		// once[2,9] p(x) needs every anchor of ages 0..9.
		{[]string{`p(x) -> not once[2,9] p(x)`}, []string{"once[2,9] p(x)"}, []uint64{10}},
		// An unbounded window keeps its earliest anchor, from any lower bound.
		{[]string{`p(x) -> not once q(x)`}, []string{"once q(x)"}, []uint64{1}},
		{[]string{`p(x) -> not once[3,*] q(x)`}, []string{"once[3,*] q(x)"}, []uint64{1}},
		// prev stores exactly one state.
		{[]string{`p(x) -> prev[1,5] p(x)`}, []string{"prev[1,5] p(x)"}, []uint64{1}},
		// The bound is per binding: arity does not enter it.
		{[]string{`r(x, y) -> not once[1,4] r(x, y)`}, []string{"once[1,4] r(x, y)"}, []uint64{5}},
		{[]string{`p(x) -> not (q(x) since[2,6] p(x))`}, []string{"q(x) since[2,6] p(x)"}, []uint64{7}},
		// Nested windows are bounded one by one, children first.
		{[]string{`p(x) -> not once[0,3] prev[0,9] p(x)`},
			[]string{"prev[0,9] p(x)", "once[0,3] prev[0,9] p(x)"}, []uint64{1, 1}},
		// A family's table is bounded once, on its widest window.
		{[]string{`p(x) -> not once[0,9] q(x)`, `p(x) -> not once[0,3] q(x)`},
			[]string{"once[0,9] q(x)", "once[0,3] q(x)"}, []uint64{1, 0}},
	}
	s := equivSchema()
	for _, tc := range cases {
		c := New(s)
		for i, src := range tc.srcs {
			addConstraint(t, c, s, fmt.Sprintf("c%d", i), src)
		}
		bs := c.NodeBounds()
		if len(bs) != len(tc.nodes) {
			t.Errorf("%q: %d nodes, want %d", tc.srcs, len(bs), len(tc.nodes))
			continue
		}
		for i, b := range bs {
			if b.Node.String() != tc.nodes[i] || b.Bound != tc.want[i] {
				t.Errorf("%q: node %d is %s bounded %d, want %s bounded %d",
					tc.srcs, i, b.Node, b.Bound, tc.nodes[i], tc.want[i])
			}
		}
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	max := ^uint64(0)
	if got := satAdd(max, 1); got != max {
		t.Errorf("satAdd(max,1) = %d", got)
	}
}
