package lint

import (
	"fmt"

	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/mtl"
	"rtic/internal/schema"
)

// The cost pass estimates the worst-case bounded-history footprint of
// a compiled constraint. It installs the constraint on a throwaway
// core checker — so the estimate is computed from the *actual* leveled
// schedule the engine would run, not a re-derivation — and sums the
// per-node weights (window span × binding arity, see
// core.ScheduleCosts). Constraints whose total exceeds the threshold
// get a Warning naming the dominant node.
func lintCost(name string, con *check.Constraint, s *schema.Schema, threshold uint64, out *[]Diagnostic) {
	if threshold == NoCostCheck {
		return
	}
	c := core.New(s)
	if err := c.AddConstraint(con); err != nil {
		// The compiler admits only what the planner compiles, so this is
		// unreachable for a compiled constraint; a hand-built one that
		// the engine refuses is reported the way the compiler would.
		*out = append(*out, unsafeDiag(name, err))
		return
	}
	costs := c.ScheduleCosts()
	var total uint64
	var dom core.NodeCost
	for _, nc := range costs {
		total = satAdd(total, nc.Weight)
		if nc.Weight > dom.Weight {
			dom = nc
		}
	}
	// The evaluation-side weight comes from the denial plan the checker
	// compiled — the physical operators it actually runs, with indexed
	// joins priced below cross-products and temporal scans in between.
	pc := c.DenialCosts()[0]
	total = satAdd(total, pc.Weight)
	evalDetail := fmt.Sprintf("denial plan weight %d: %s", pc.Weight, pc.Shape)
	if total <= threshold {
		return
	}
	d := Diagnostic{
		Rule:       "cost",
		Severity:   Warning,
		Constraint: name,
		Node:       dom.Formula,
		Message: fmt.Sprintf("worst-case bounded-history weight %d exceeds threshold %d (%d aux nodes; dominant node %q: window span %d × arity %d; %s)",
			total, threshold, len(costs), dom.Formula, dom.Span, dom.Arity, evalDetail),
		Suggestion: "tighten the metric window or reduce the number of free variables carried through it",
	}
	if dom.Node != nil {
		d.Pos = mtl.NodePos(dom.Node)
	}
	*out = append(*out, d)
}

func satAdd(a, b uint64) uint64 {
	s := a + b
	if s < a {
		return ^uint64(0)
	}
	return s
}
