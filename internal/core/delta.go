package core

import (
	"sort"

	"rtic/internal/mtl"
	"rtic/internal/storage"
	"rtic/internal/tuple"
)

// Delta-driven checking: each commit computes the transaction's *net*
// per-relation delta (membership before vs after the apply phase) and a
// read-set index decides, per constraint and per auxiliary node, whether
// anything it reads changed. Untouched constraints reuse their previous
// denial answer, touched seedable ones re-derive only the answers
// reachable from the delta (see checkConstraint), and auxiliary nodes
// with clean sources run a cached-recurrence refresh instead of
// re-evaluating their formulas (see aux.go).

// relDelta is the net change of one relation in one commit: tuples
// absent before and present after (inserted), and vice versa (deleted).
// Slices are reused across commits; rows alias transaction tuples and
// are only valid during the commit.
type relDelta struct {
	inserted []tuple.Tuple
	deleted  []tuple.Tuple
}

func (d *relDelta) changed() bool { return len(d.inserted)+len(d.deleted) > 0 }

// stepCtx carries one commit's delta and mode through the pipeline
// phases. A ctx with planned=false (tree-walk mode) disables every
// delta-driven shortcut: nodes and constraints evaluate in full.
type stepCtx struct {
	c       *Checker
	t       uint64
	planned bool
	delta   map[string]*relDelta
	orc     oracle
	// dom and inline serve the tree-walk fallback: the commit's one
	// active-domain computation and the inline pipeline's evaluator,
	// neither touched by a fully planned commit.
	dom    domainCache
	inline lazyEval
}

// relsChanged reports whether the commit touched any of rels (net).
func (sc *stepCtx) relsChanged(rels []string) bool {
	for _, r := range rels {
		if d := sc.delta[r]; d != nil && d.changed() {
			return true
		}
	}
	return false
}

// relDeltaOf returns the net delta of rel (nil slices when untouched).
func (sc *stepCtx) relDeltaOf(rel string) *relDelta { return sc.delta[rel] }

// anyDirty reports whether any node's answer changed this commit.
func anyDirty(nodes []auxNode) bool {
	for _, n := range nodes {
		if n.dirty() {
			return true
		}
	}
	return false
}

// computeDelta fills sc.delta with the transaction's net effect on
// c.cur. Must run before the transaction is applied (it reads
// pre-membership). The per-relation slots persist across commits so the
// steady state allocates nothing.
func (c *Checker) computeDelta(sc *stepCtx, tx *storage.Transaction) error {
	if c.delta == nil {
		c.delta = make(map[string]*relDelta)
	}
	for _, d := range c.delta {
		d.inserted = d.inserted[:0]
		d.deleted = d.deleted[:0]
	}
	sc.delta = c.delta
	ops := tx.Ops()
	// Only the last op on a given (relation, tuple) decides its final
	// membership; earlier ops on the same tuple are shadowed. Small
	// transactions detect shadowing by allocation-free pairwise scan;
	// large ones build a last-index map to stay linear.
	const smallTxOps = 32
	var lastOf map[string]int
	var kb []byte
	if len(ops) > smallTxOps {
		lastOf = make(map[string]int, len(ops))
		for i, op := range ops {
			kb = appendOpKey(kb[:0], op.Rel, op.Tuple)
			lastOf[string(kb)] = i
		}
	}
	for i, op := range ops {
		last := true
		if lastOf != nil {
			kb = appendOpKey(kb[:0], op.Rel, op.Tuple)
			last = lastOf[string(kb)] == i
		} else {
			for j := i + 1; j < len(ops); j++ {
				if ops[j].Rel == op.Rel && ops[j].Tuple.Equal(op.Tuple) {
					last = false
					break
				}
			}
		}
		if !last {
			continue
		}
		rel, err := c.cur.Relation(op.Rel)
		if err != nil {
			return err
		}
		pre := rel.Contains(op.Tuple)
		if pre == op.Insert {
			continue // no net change
		}
		d := c.delta[op.Rel]
		if d == nil {
			d = &relDelta{}
			c.delta[op.Rel] = d
		}
		if op.Insert {
			d.inserted = append(d.inserted, op.Tuple)
		} else {
			d.deleted = append(d.deleted, op.Tuple)
		}
	}
	return nil
}

// appendOpKey appends a (relation, tuple) map key: the relation name, a
// NUL separator (relation names are identifiers), and the tuple key.
func appendOpKey(dst []byte, rel string, t tuple.Tuple) []byte {
	dst = append(dst, rel...)
	dst = append(dst, 0)
	return t.AppendKeyTo(dst)
}

// collectRels gathers the relations of the first-order skeleton of f —
// atoms not nested under a temporal operator, whose membership the
// formula's truth reads directly. Temporal subformulas are cut off:
// their state dependencies surface through node dirtiness instead.
func collectRels(f mtl.Formula, out map[string]bool) {
	switch n := f.(type) {
	case *mtl.Atom:
		out[n.Rel] = true
	case *mtl.Not:
		collectRels(n.F, out)
	case *mtl.And:
		collectRels(n.L, out)
		collectRels(n.R, out)
	case *mtl.Or:
		collectRels(n.L, out)
		collectRels(n.R, out)
	case *mtl.Exists:
		collectRels(n.F, out)
	case *mtl.Forall:
		collectRels(n.F, out)
	}
}

// skeletonRels returns collectRels as a sorted slice.
func skeletonRels(fs ...mtl.Formula) []string {
	set := map[string]bool{}
	for _, f := range fs {
		collectRels(f, set)
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// domainDependent reports whether f's first-order skeleton can change
// truth when the active domain changes — universal quantification ranges
// over the active domain, so a commit touching *any* relation may flip
// it. Such formulas are never skipped or refreshed on unrelated commits.
func domainDependent(f mtl.Formula) bool {
	switch n := f.(type) {
	case *mtl.Forall:
		return true
	case *mtl.Not:
		return domainDependent(n.F)
	case *mtl.And:
		return domainDependent(n.L) || domainDependent(n.R)
	case *mtl.Or:
		return domainDependent(n.L) || domainDependent(n.R)
	case *mtl.Exists:
		return domainDependent(n.F)
	case *mtl.Implies:
		return domainDependent(n.L) || domainDependent(n.R)
	case *mtl.Iff:
		return domainDependent(n.L) || domainDependent(n.R)
	default:
		return false
	}
}

// directNodes resolves the outermost temporal subformulas of f to their
// auxiliary nodes (children of those nodes cascade through node
// dirtiness and need not be listed).
func (c *Checker) directNodes(fs ...mtl.Formula) []auxNode {
	var forms []mtl.Formula
	for _, f := range fs {
		directTemporal(f, &forms)
	}
	var out []auxNode
	seen := map[auxNode]bool{}
	for _, f := range forms {
		if n, ok := c.byNode[f]; ok && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}
