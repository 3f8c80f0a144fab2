package core

import (
	"sort"

	"rtic/internal/mtl"
	"rtic/internal/plan"
	"rtic/internal/storage"
	"rtic/internal/tuple"
)

// Delta-driven checking: each commit computes the transaction's *net*
// per-relation delta (membership before vs after the apply phase) and a
// read-set index decides, per constraint and per auxiliary node, whether
// anything it reads changed. Untouched constraints reuse their previous
// denial answer, touched seedable ones re-derive only the answers
// reachable from the delta (see seedFamily), and auxiliary nodes touch
// only the entries whose anchor row entered or left ⟦ψ⟧ or whose
// deadline fell due (see aux.go). Both re-derivations run through one
// routine: seeded.

// relDelta is the net change of one relation in one commit: tuples
// absent before and present after (inserted), and vice versa (deleted).
// Slices are reused across commits; rows alias transaction tuples and
// are only valid during the commit.
type relDelta struct {
	inserted []tuple.Tuple
	deleted  []tuple.Tuple
}

func (d *relDelta) changed() bool { return len(d.inserted)+len(d.deleted) > 0 }

// stepCtx carries one commit through the pipeline phases: the checker,
// the commit's timestamp and the oracle answering temporal literals at it.
type stepCtx struct {
	c   *Checker
	t   uint64
	orc oracle
}

// anyChanged reports whether the commit touched any of the relations
// whose delta slots are ds (net).
//
//rtic:noalloc
func anyChanged(ds []*relDelta) bool {
	for _, d := range ds {
		if d.changed() {
			return true
		}
	}
	return false
}

// seeded is a compiled plan with its seedable source literals resolved
// against the checker: relation sources read the commit's net relation
// delta, temporal sources the exact answer delta of their auxiliary
// node. It is the one maintained-answer routine behind a constraint's
// denial (conState) and a since/once node's anchor formula ψ: a row can
// enter the plan's answer in a commit only through a source row that
// moved in the adding direction (insertions/added for a positive
// literal, deletions/removed for a negated one), and can leave it only
// if a source row moved the other way. canSeed is false when the plan's
// shape defeats seeding; callers then evaluate in full.
type seeded struct {
	plan    *plan.Plan
	sources []plan.Source
	// Parallel to sources: a relation source's delta slot, a temporal
	// source's node; the other is nil.
	srcDelta []*relDelta
	srcNode  []auxNode
	canSeed  bool
}

// seedsOf resolves p's sources. Every temporal subformula of a compiled
// formula is registered before its sources are resolved, so the lookup
// only fails on a bug; seeding is then disabled and the plan kept.
func (c *Checker) seedsOf(p *plan.Plan) seeded {
	m := seeded{plan: p}
	if !p.Seedable() {
		return m
	}
	m.sources = p.Sources()
	m.srcDelta = make([]*relDelta, len(m.sources))
	m.srcNode = make([]auxNode, len(m.sources))
	m.canSeed = true
	for i, src := range m.sources {
		if src.IsRel {
			m.srcDelta[i] = c.delta[src.Rel]
			continue
		}
		node, ok := c.byNode[src.Temp]
		if !ok {
			m.canSeed = false
			break
		}
		m.srcNode[i] = node
	}
	return m
}

// inexactDirty reports whether any temporal source changed without an
// exact row-level delta (prev nodes) — seeding would miss derivations,
// so the caller falls back to full evaluation.
func (m *seeded) inexactDirty() bool {
	for _, n := range m.srcNode {
		if n == nil {
			continue
		}
		if _, _, exact := n.answerDelta(); !exact && n.dirty() {
			return true
		}
	}
	return false
}

// movedRows returns the rows of source k that moved in this commit in
// the direction that can add an answer (gain) or, with gain false, in
// the direction that can drop one.
func (m *seeded) movedRows(k int, gain bool) []tuple.Tuple {
	arrivals := m.sources[k].Positive == gain
	if d := m.srcDelta[k]; d != nil {
		if arrivals {
			return d.inserted
		}
		return d.deleted
	}
	node := m.srcNode[k]
	if !node.dirty() {
		return nil
	}
	added, removed, _ := node.answerDelta()
	if arrivals {
		return added
	}
	return removed
}

// moved reports whether any source has rows in the given direction.
func (m *seeded) moved(gain bool) bool {
	for k := range m.sources {
		if len(m.movedRows(k, gain)) > 0 {
			return true
		}
	}
	return false
}

// derive emits every answer of the plan in the new state that uses a
// source row which moved in the adding direction — a superset of the
// rows that entered the answer (a row that already held may be
// re-derived) — and returns how many seed rows it ran. Only valid when
// canSeed and !inexactDirty(): an inexact source exposes no rows to seed
// from.
func (m *seeded) derive(sc *stepCtx, emit func(tuple.Tuple) bool) (int, error) {
	n := 0
	for k, src := range m.sources {
		seeds := m.movedRows(k, true)
		if len(seeds) == 0 {
			continue
		}
		n += len(seeds)
		if err := m.plan.ExecuteSeeded(sc.c.cur, &sc.orc, src, seeds, emit); err != nil {
			return n, err
		}
	}
	return n, nil
}

// anyDirty reports whether any node's answer changed this commit.
func anyDirty(nodes []auxNode) bool {
	for _, n := range nodes {
		if n.dirty() {
			return true
		}
	}
	return false
}

// computeDelta fills c.delta with the transaction's net effect on
// c.cur. Must run before the transaction is applied (it reads
// pre-membership). The per-relation slots live as long as the checker —
// read sets and seed sources hold pointers to them, so no commit looks a
// relation up by name — and the steady state allocates nothing.
func (c *Checker) computeDelta(tx *storage.Transaction) error {
	for _, d := range c.delta {
		d.inserted = d.inserted[:0]
		d.deleted = d.deleted[:0]
	}
	ops := tx.Ops()
	// Only the last op on a given (relation, tuple) decides its final
	// membership; earlier ops on the same tuple are shadowed. Small
	// transactions detect shadowing by allocation-free pairwise scan;
	// large ones build a last-index map to stay linear.
	const smallTxOps = 32
	var lastOf map[string]int
	var kb []byte
	if len(ops) > smallTxOps {
		lastOf = make(map[string]int, len(ops)) //rtic:allocok transactions over 32 ops; no benchmark workload sends one
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

// skeletonDeltas returns the delta slots of the relations collectRels
// finds in fs, in name order.
func (c *Checker) skeletonDeltas(fs ...mtl.Formula) []*relDelta {
	set := map[string]bool{}
	for _, f := range fs {
		collectRels(f, set)
	}
	names := make([]string, 0, len(set))
	for r := range set {
		names = append(names, r)
	}
	sort.Strings(names)
	out := make([]*relDelta, 0, len(names))
	for _, r := range names {
		if d := c.delta[r]; d != nil {
			out = append(out, d)
		}
	}
	return out
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
