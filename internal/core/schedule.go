package core

import (
	"rtic/internal/mtl"
	"rtic/internal/plan"
)

// The commit pipeline's schedule: auxiliary nodes are grouped into
// dependency levels at AddConstraint time — a node's level is one more
// than the deepest temporal subformula nested inside it, so every level
// only reads answers of strictly lower levels. The update phase runs the
// levels in order.

// directTemporal appends the outermost temporal subformulas of f to
// out: recursion descends through the first-order skeleton and stops at
// Prev/Once/Since without entering them (their own nesting is already
// accounted for in their level).
func directTemporal(f mtl.Formula, out *[]mtl.Formula) {
	switch n := f.(type) {
	case *mtl.Prev, *mtl.Once, *mtl.Since:
		*out = append(*out, f)
	case *mtl.Not:
		directTemporal(n.F, out)
	case *mtl.And:
		directTemporal(n.L, out)
		directTemporal(n.R, out)
	case *mtl.Or:
		directTemporal(n.L, out)
		directTemporal(n.R, out)
	case *mtl.Exists:
		directTemporal(n.F, out)
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

// nodeLevel computes the dependency level of the temporal formula f:
// zero when f contains no nested temporal subformulas, otherwise one
// more than the deepest child level. compile registers children before
// parents, so every child's node is already leveled.
func (c *Checker) nodeLevel(f mtl.Formula) int {
	var kids []mtl.Formula
	for _, op := range operands(f) {
		directTemporal(op, &kids)
	}
	lvl := 0
	for _, k := range kids {
		child, ok := c.byNode[k]
		if !ok {
			continue // unreachable: compile registers bottom-up
		}
		if cl := c.levelOf[child] + 1; cl > lvl {
			lvl = cl
		}
	}
	return lvl
}

// schedule places a freshly registered node into its level.
func (c *Checker) schedule(f mtl.Formula, node auxNode) {
	lvl := c.nodeLevel(f)
	c.levelOf[node] = lvl
	for len(c.levels) <= lvl {
		c.levels = append(c.levels, nil)
	}
	c.levels[lvl] = append(c.levels[lvl], node)
}

// Schedule describes the leveled update plan, outermost slice per
// level, each entry a node's canonical formula; exposed for tests and
// diagnostics.
func (c *Checker) Schedule() [][]string {
	out := make([][]string, len(c.levels))
	for i, level := range c.levels {
		for _, n := range level {
			out[i] = append(out[i], n.formula().String())
		}
	}
	return out
}

// NodeCost is the worst-case bounded-history estimate for one
// auxiliary node of the leveled schedule: Span is the number of
// timestamps a single binding may retain inside the metric window
// (1 for prev, for unbounded-above windows and for windows with lower
// bound 0, Hi+1 otherwise; 0 for a window that reads the table of a wider
// one over the same operands — a family's history is stored, and priced,
// once, on its widest window),
// Arity the number of free variables spanning the binding space, and
// Weight their saturating product — the per-binding storage bound the
// linter's cost pass sums per constraint.
type NodeCost struct {
	Formula string      // canonical rendering
	Node    mtl.Formula // the temporal subformula itself
	Level   int         // dependency level in the schedule
	Span    uint64
	Arity   int
	Weight  uint64
}

// ScheduleCosts reports the per-node cost estimates of the current
// leveled schedule, in schedule order (level by level).
func (c *Checker) ScheduleCosts() []NodeCost {
	var out []NodeCost
	for lvl, level := range c.levels {
		for _, n := range level {
			f := n.formula()
			span := windowSpan(f)
			if sn, ok := n.(*sinceNode); ok && sn != sn.fam.widest() {
				span = 0
			}
			arity := len(mtl.FreeVars(f))
			w := arity
			if w < 1 {
				w = 1
			}
			out = append(out, NodeCost{
				Formula: f.String(),
				Node:    f,
				Level:   lvl,
				Span:    span,
				Arity:   arity,
				Weight:  satMul(span, uint64(w)),
			})
		}
	}
	return out
}

// DenialCosts reports the plan-derived evaluation estimate of every
// installed constraint's denial, in installation order.
func (c *Checker) DenialCosts() []plan.Cost {
	out := make([]plan.Cost, len(c.conStates))
	for i, cs := range c.conStates {
		out[i] = cs.plan.Cost()
	}
	return out
}

// windowSpan bounds how many timestamps one binding of the node can
// retain: prev stores a single state, an unbounded-above window keeps
// only its earliest timestamp (satisfaction is monotone in age), a
// window with lower bound 0 only its newest (satisfaction is "the newest
// anchor is at most Hi old"), and any other bounded window prunes ages
// beyond Hi, leaving at most Hi+1 live timestamps (ages 0..Hi — pruning
// ignores Lo, young anchors may still age into the window).
func windowSpan(f mtl.Formula) uint64 {
	var iv mtl.Interval
	switch n := f.(type) {
	case *mtl.Prev:
		return 1
	case *mtl.Once:
		iv = n.I
	case *mtl.Since:
		iv = n.I
	default:
		return 1
	}
	if iv.Unbounded || iv.Lo == 0 {
		return 1
	}
	return satAdd(iv.Hi, 1)
}

func satAdd(a, b uint64) uint64 {
	s := a + b
	if s < a {
		return ^uint64(0)
	}
	return s
}

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/a != b {
		return ^uint64(0)
	}
	return p
}
