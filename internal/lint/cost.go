package lint

import (
	"fmt"

	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/mtl"
	"rtic/internal/schema"
)

// maxBound is the per-binding space bound above which the cost pass
// warns.
const maxBound = 100_000

// The cost pass states the paper's space bound: the most timestamps one
// binding of an auxiliary node retains, whatever the history's length
// (core.NodeBounds, DESIGN.md's pruning rules). It installs the
// constraint on a throwaway core checker, so the bound is the one the
// engine keeps, not a re-derivation, and warns when a node's bound
// exceeds maxBound. Only a window [a,b] with a > 0 can: it keeps every
// anchor aged 0..b, b+1 of them; prev, [0,b] and [a,∞) keep one.
func lintCost(name string, con *check.Constraint, s *schema.Schema, out *[]Diagnostic) {
	c := core.New(s)
	if err := c.AddConstraint(con); err != nil {
		// The compiler admits only what the planner compiles, so this is
		// unreachable for a compiled constraint; a hand-built one that
		// the engine refuses is reported the way the compiler would.
		*out = append(*out, unsafeDiag(name, err))
		return
	}
	var worst core.NodeBound
	for _, nb := range c.NodeBounds() {
		if nb.Bound > worst.Bound {
			worst = nb
		}
	}
	if worst.Bound <= maxBound {
		return
	}
	node := worst.Node.String()
	*out = append(*out, Diagnostic{
		Rule:       "cost",
		Severity:   Warning,
		Constraint: name,
		Node:       node,
		Pos:        mtl.NodePos(worst.Node),
		Message: fmt.Sprintf("%q keeps up to %d timestamps per binding, above %d: a window [a,b] with a > 0 keeps every anchor aged 0..b",
			node, worst.Bound, maxBound),
		Suggestion: "tighten the metric window",
	})
}
