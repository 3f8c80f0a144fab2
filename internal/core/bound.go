package core

import "rtic/internal/mtl"

// directTemporal appends the outermost temporal subformulas of f to
// out: recursion descends through the first-order skeleton and stops at
// Prev/Once/Since without entering them.
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

// NodeBound is the space bound of one auxiliary node: the most
// timestamps one binding of it retains, independent of history length
// (windowSpan; 0 for a window that reads the table of a wider one over
// the same operands — a family's history is stored, and bounded, once,
// on its widest window).
type NodeBound struct {
	Node  mtl.Formula // the temporal subformula
	Bound uint64
}

// NodeBounds reports every auxiliary node's bound, in registration order.
func (c *Checker) NodeBounds() []NodeBound {
	out := make([]NodeBound, len(c.nodes))
	for i, n := range c.nodes {
		bound := windowSpan(n.formula())
		if sn, ok := n.(*sinceNode); ok && sn != sn.fam.widest() {
			bound = 0
		}
		out[i] = NodeBound{Node: n.formula(), Bound: bound}
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
