package core

import (
	"fmt"
	"slices"
	"sort"

	"rtic/internal/fol"
	"rtic/internal/mtl"
	"rtic/internal/plan"
	"rtic/internal/relation"
	"rtic/internal/tuple"
)

// auxNode is the per-temporal-subformula state of the bounded history
// encoding. Each committed transaction drives every node through two
// phases:
//
//   - phase A brings the node's *answer* up to the new state i, using
//     only the previous auxiliary state and evaluations in state i
//     (children are updated first, so nested temporal subformulas
//     already answer for state i);
//   - phase B computes and then commits state the node must carry to
//     state i+1 (only prev nodes defer work to phase B: their stored
//     enumeration must keep answering for state i while other nodes —
//     and the constraint check — still run against state i).
//
// Nodes additionally maintain their answer *as a set* across commits:
// enumerate at the current time returns the maintained set without
// rebuilding it, dirty reports whether the answer changed in the latest
// commit, and answerDelta exposes the exact rows that entered and left
// it — the inputs of the checker's delta-driven constraint evaluation.
type auxNode interface {
	formula() mtl.Formula
	phaseA(sc *stepCtx, t uint64) error
	phaseBCompute(sc *stepCtx, t uint64) error
	phaseBCommit(t uint64)
	enumerate(now uint64) (*fol.Bindings, error)
	test(env fol.Env, now uint64) (bool, error)
	// testKey decides the node under the binding whose tuple.Key encoding
	// (aligned with the node's sorted free variables) is key — the
	// allocation-free probe of plan execution.
	testKey(key []byte, now uint64) (bool, error)
	// dirty reports whether the node's answer changed in the last commit.
	dirty() bool
	// answerDelta returns the rows that entered and left the answer in
	// the last commit. exact is false when the node does not track the
	// delta row-by-row (prev nodes); callers must then fall back to full
	// evaluation whenever the node is dirty.
	answerDelta() (added, removed []tuple.Tuple, exact bool)
	// stats walks the node's storage and reports it, formula included.
	stats() NodeStats
	// account reports the same three sums from running totals the node
	// maintains where entries are inserted, aged and pruned — no walk of
	// unchanged storage, no allocation; what the per-commit storage
	// gauges read. CheckInvariants holds it equal to the stats walk.
	account() (entries, timestamps, bytes int)
}

// NodeStats describes the auxiliary storage of one temporal subformula.
type NodeStats struct {
	Formula    string
	Entries    int // bindings currently tracked
	Timestamps int // timestamps stored across all bindings
	Bytes      int // estimated footprint
}

// nodeDeps is the read-set every node derives at registration time: the
// relations its formulas read directly and its child nodes.
type nodeDeps struct {
	srcRels  []*relDelta
	children []auxNode
}

// clean reports whether nothing the node reads changed in this commit.
//
//rtic:noalloc
func (d *nodeDeps) clean() bool {
	return !anyChanged(d.srcRels) && !anyDirty(d.children)
}

// prevNode implements ⊖_I φ: it stores the enumeration of φ in the
// previous state together with the previous timestamp — one state's
// worth of bindings, never more.
type prevNode struct {
	n     *mtl.Prev
	fvars []string
	deps  nodeDeps
	fPlan *plan.Plan

	stored     *fol.Bindings
	storedTime uint64
	has        bool
	// storedBytes caches the footprint of measured, the set it was last
	// taken for: published bindings are immutable, so account re-measures
	// only after stored was replaced — and only if someone asks.
	storedBytes int
	measured    *fol.Bindings

	pending     *fol.Bindings
	pendingTime uint64

	// lastServed is the answer the node served in the previous commit;
	// comparing against the current answer yields the dirty bit. Prev
	// nodes do not track row-level answer deltas (answerDelta is
	// inexact): the answer can swap wholesale every step.
	lastServed *fol.Bindings
	dirtyBit   bool
}

func newPrevNode(n *mtl.Prev) *prevNode {
	return &prevNode{n: n, fvars: mtl.FreeVars(n.F)}
}

func (p *prevNode) formula() mtl.Formula { return p.n }

// phaseA computes the dirty bit: the answer served for this state vs the
// previous one. The stored enumeration itself only advances in phase B.
func (p *prevNode) phaseA(sc *stepCtx, t uint64) error {
	cur, err := p.enumerate(t)
	if err != nil {
		return err
	}
	p.dirtyBit = !bindingsEqual(p.lastServed, cur)
	p.lastServed = cur
	return nil
}

func bindingsEqual(a, b *fol.Bindings) bool {
	if a == b {
		return true
	}
	if a == nil {
		return b.Empty()
	}
	if b == nil {
		return a.Empty()
	}
	return a.Equal(b)
}

func (p *prevNode) phaseBCompute(sc *stepCtx, t uint64) error {
	// Refresh fast path: when nothing φ reads changed in this commit,
	// φ's enumeration in the new state equals the stored one — alias it
	// (bindings are immutable once published).
	if p.has && p.deps.clean() {
		p.pending, p.pendingTime = p.stored, t
		return nil
	}
	b, err := p.fPlan.Eval(sc.c.cur, &sc.orc, nil)
	if err != nil {
		return fmt.Errorf("core: prev %q: %w", p.n.String(), err)
	}
	p.pending, p.pendingTime = b, t
	return nil
}

func (p *prevNode) phaseBCommit(uint64) {
	p.stored, p.storedTime, p.has = p.pending, p.pendingTime, true
	p.pending = nil
}

func (p *prevNode) enumerate(now uint64) (*fol.Bindings, error) {
	if !p.has || !p.n.I.Contains(now-p.storedTime) {
		return fol.NewBindings(p.fvars), nil
	}
	return p.stored, nil
}

func (p *prevNode) test(env fol.Env, now uint64) (bool, error) {
	if !p.has || !p.n.I.Contains(now-p.storedTime) {
		return false, nil
	}
	return p.stored.Contains(env)
}

func (p *prevNode) testKey(key []byte, now uint64) (bool, error) {
	if !p.has || !p.n.I.Contains(now-p.storedTime) {
		return false, nil
	}
	return p.stored.ContainsKeyBytes(key), nil
}

func (p *prevNode) dirty() bool { return p.dirtyBit }

func (p *prevNode) answerDelta() ([]tuple.Tuple, []tuple.Tuple, bool) {
	return nil, nil, false
}

func (p *prevNode) stats() NodeStats {
	s := NodeStats{Formula: p.n.String()}
	if p.has {
		s.Entries = p.stored.Len()
		s.Bytes = p.stored.Size() + 16
	}
	return s
}

func (p *prevNode) account() (entries, timestamps, bytes int) {
	if !p.has {
		return 0, 0, 0
	}
	if p.measured != p.stored {
		p.storedBytes, p.measured = p.stored.Size()+16, p.stored
	}
	return p.stored.Len(), 0, p.storedBytes
}

// sinceEntry is the bounded history the checker keeps for one binding θ
// of a since/once family: the timestamps t_j at which the anchor ψ held
// with the chain φ unbroken since, pruned by the family's rules. liveIx
// and keep cache the entry's recurrence inputs as of the family's last
// commit (row ∈ ⟦ψ⟧? and θ ⊨ φ?), so a commit only has to visit the
// entries whose inputs moved or whose deadline fell due.
//
// An entry's row is the one its family's rows relation holds in the
// entry's slot: a dropped entry's slot, and the entry with it, is the
// next new row's.
type sinceEntry struct {
	slot int32 // the row's slot in sinceFamily.rows, and the entry's in entries
	// gen numbers the rows the entry has held: anchors logged for an
	// earlier one are stale.
	gen    uint32
	fixed  int       // entryFixedBytes(row), kept while the entry lives
	times  []uint64  // ascending
	first  [1]uint64 // backing store of times while one timestamp suffices
	liveIx int       // index in sinceFamily.live while row ∈ ⟦ψ⟧, else -1
	keep   bool
	// sat is the entry's place in the members' answers as of the last
	// commit: members[sat:] hold the row, the narrower windows before them
	// do not (len(members) = nobody).
	sat  int
	seen uint64 // epoch of the commit that last queued the entry for resolve
	mark uint64 // epoch of the full enumeration of ⟦ψ⟧ that last produced row
}

// entryChunk is the fewest entries a family makes at once.
const entryChunk = 16

// anchor is one timestamp tm of entry e, logged when it is stored: a
// window [a,b] must look at e at the first commit at or after tm+a, when
// tm ages into it, and at the first at or after tm+b+1, when it ages out.
type anchor struct {
	tm  uint64
	e   *sinceEntry
	gen uint32 // e.gen when logged
}

// stale reports whether a's entry has been dropped since a was logged.
func (a anchor) stale() bool { return a.gen != a.e.gen }

// anchorLog is the FIFO of a family's anchors in ascending tm order —
// commit times ascend, so appending in commit order keeps it sorted with
// no heap. It has several readers, each with a cursor of its own: an
// absolute position, stable while the log drops its consumed prefix.
type anchorLog struct {
	ev   []anchor
	base int // position of ev[0]
}

func (q *anchorLog) push(tm uint64, e *sinceEntry) { q.ev = append(q.ev, anchor{tm, e, e.gen}) }

func (q *anchorLog) end() int { return q.base + len(q.ev) }

func (q *anchorLog) at(pos int) anchor { return q.ev[pos-q.base] }

// due reports whether the reader at pos has an anchor that is at least
// age old at time t.
//
//rtic:noalloc
func (q *anchorLog) due(pos int, age, t uint64) bool {
	return pos < q.end() && satAdd(q.ev[pos-q.base].tm, age) <= t
}

// release drops the anchors before pos, which every reader has consumed.
func (q *anchorLog) release(pos int) {
	n := pos - q.base
	if n == len(q.ev) || (n > 32 && n*2 > len(q.ev)) {
		kept := copy(q.ev, q.ev[n:])
		clear(q.ev[kept:])
		q.ev, q.base = q.ev[:kept], pos
	}
}

// sinceFamily is the auxiliary relation of φ S_I ψ (and once_I ψ, with
// φ = true): the recurrence S_i(θ) = (i ⊨θ φ ? S_{i−1}(θ) : ∅) ∪
// (i ⊨θ ψ ? {t_i} : ∅), with θ satisfied at i iff some t ∈ S_i(θ) has
// t_i − t ∈ I = [a,b].
//
// Three pruning rules keep S small (DESIGN.md): a timestamp older than b
// never re-enters the window; with b = ∞ the earliest timestamp subsumes
// the others; and with a = 0 the newest one does (newest) — satisfaction
// is t_i − max S ≤ b. Under that third rule a live entry, one whose row
// is in ⟦ψ⟧ now, has max S = t_i by construction: it is satisfied and
// needs no per-commit touch at all; its single slot is not read until
// the commit its row leaves ⟦ψ⟧, which stores the previous commit's time.
//
// Under that rule the stored state does not depend on b, so every window
// [0,b] over the same φ and ψ reads one relation: the family's members
// are those windows, narrowest first, and the table is kept to the widest
// (its last member). A member owns only what depends on b — its cursor in
// the anchor log, its answer delta — and answers from the shared table. A
// window the third rule does not cover (a > 0, or the pruning ablation)
// is a family of one, its only member the widest.
//
// A commit climbs a ladder (update) and costs what moved, not what is
// stored or how many windows read it: nothing the family reads changed
// and no deadline is due — only the clock advances; otherwise Δ⟦ψ⟧ is
// derived from the commit's delta (seeded) and only the entries it
// names, those whose chain broke and those with a due deadline are
// resolved; the full enumerate-and-walk primes the family (first commit,
// first commit after LoadSnapshot) and serves the inputs the delta rung
// cannot: a ψ whose plan is not seedable, children without exact deltas,
// and the pruning ablation.
type sinceFamily struct {
	left  mtl.Formula // Truth{true} for once
	right mtl.Formula
	once  bool
	vars  []string // fv(node), sorted; equals fv(right) by safety
	lvars []string
	lPos  []int // position in vars of each of lvars

	// members are the family's windows in ascending order of b, an
	// unbounded one last; they share the lower bound lo.
	members []*sinceNode
	lo      uint64

	// deps is the family's whole read set, leftRels/leftNodes the chain's
	// share of it; rhs is ψ's plan with its seed sources, chain φ's plan
	// with lvars as its inputs (nil for once).
	deps      nodeDeps
	leftRels  []*relDelta
	leftNodes []auxNode
	rhs       seeded
	chain     *plan.Plan

	// noPrune disables all three pruning rules (the space ablation);
	// answers are unchanged, storage grows with history.
	noPrune bool
	newest  bool // a = 0 and pruning on: the third rule applies

	// rows holds every entry's row; entries[s] is the entry of slot s,
	// made in chunks as rows reaches a new high-water mark, so entering
	// and dropping rows allocate nothing after that.
	rows    *relation.Relation
	entries []*sinceEntry
	live    []*sinceEntry // entries whose row is in ⟦ψ⟧ as of lastT
	// anchors logs every stored timestamp some window has yet to see age
	// in (a > 0; enterCur reads those) or out (finite b; each member's
	// cursor). Nothing is logged under noPrune, which walks every entry
	// on every commit.
	anchors  anchorLog
	enterCur int
	// nTimes and fixedBytes are the running storage account: timestamps
	// held across all entries, and the entries' footprint apart from
	// their timestamps (entryFixedBytes, constant while an entry lives).
	// Every site that adds or drops an entry or a timestamp keeps them.
	nTimes     int
	fixedBytes int

	// The table answers for time lastT once primed. epoch numbers the
	// commits that got past the first rung; touched and envBuf are the
	// update's scratch.
	lastT   uint64
	primed  bool
	epoch   uint64
	touched []*sinceEntry
	envBuf  fol.Env

	// visited counts the entries update resolved since the family was
	// built; Checker.Work reads it.
	visited int
}

// sinceNode is one window of a family: the auxiliary node of one
// once/since subformula. Its answer is the shared table read through its
// window; added/removed are the rows that entered and left that answer in
// the last commit — net: an entry is resolved once per commit, so a row
// that expires and is re-anchored in one commit is in neither.
type sinceNode struct {
	node mtl.Formula // *mtl.Once or *mtl.Since
	iv   mtl.Interval
	fam  *sinceFamily
	idx  int // position in fam.members
	// cursor is the first anchor of the family's log that has yet to age
	// out of this window (finite b only).
	cursor  int
	added   []tuple.Tuple
	removed []tuple.Tuple
}

func newOnceNode(n *mtl.Once, noPrune bool) (*sinceNode, error) {
	return newSinceLike(n, n.I, mtl.Truth{Bool: true}, n.F, noPrune)
}

func newSinceNode(n *mtl.Since, noPrune bool) (*sinceNode, error) {
	return newSinceLike(n, n.I, n.L, n.R, noPrune)
}

// newSinceLike builds the node as the only member of a family of its
// own; bindNode moves it to the family of its operands if there is one.
func newSinceLike(node mtl.Formula, iv mtl.Interval, left, right mtl.Formula, noPrune bool) (*sinceNode, error) {
	vars := mtl.FreeVars(node)
	rvars := mtl.FreeVars(right)
	if len(vars) != len(rvars) {
		return nil, fmt.Errorf("core: %q: binding space must be generated by the right-hand side (fv %v vs %v)",
			node.String(), vars, rvars)
	}
	lvars := mtl.FreeVars(left)
	for _, lv := range lvars {
		if i := sort.SearchStrings(vars, lv); i >= len(vars) || vars[i] != lv {
			return nil, fmt.Errorf("core: %q: left-hand variable %q not bound by the right-hand side",
				node.String(), lv)
		}
	}
	truth, isTruth := left.(mtl.Truth)
	s := &sinceNode{node: node, iv: iv}
	s.fam = &sinceFamily{
		left:    left,
		right:   right,
		once:    isTruth && truth.Bool,
		vars:    vars,
		lvars:   lvars,
		lPos:    varPositions(vars, lvars),
		members: []*sinceNode{s},
		lo:      iv.Lo,
		noPrune: noPrune,
		newest:  iv.Lo == 0 && !noPrune,
		rows:    relation.New(len(vars)),
		envBuf:  make(fol.Env, len(lvars)),
	}
	return s, nil
}

// shareKey names the family a window may join — same chain, same anchor,
// the newest-anchor rule in force — or is empty for a window that shares
// with nobody.
func (f *sinceFamily) shareKey() string {
	if !f.newest {
		return ""
	}
	return f.left.String() + "\x00" + f.right.String()
}

// bindSince gives a new window its table. One the newest-anchor rule
// covers joins the family of its operands, if one is installed and has
// not begun its history: a table that is already primed has been pruned
// to the windows it had. Any other window keeps the family it was built
// with, which gets its read set and its plans here.
func (c *Checker) bindSince(n *sinceNode) error {
	f := n.fam
	key := f.shareKey()
	if shared := c.families[key]; shared != nil && !shared.primed {
		shared.adopt(n)
		return nil
	}
	f.deps = nodeDeps{
		srcRels:  c.skeletonDeltas(f.left, f.right),
		children: c.directNodes(f.left, f.right),
	}
	f.leftRels = c.skeletonDeltas(f.left)
	f.leftNodes = c.directNodes(f.left)
	var err error
	if !f.once {
		if f.chain, err = plan.Compile(f.left, c.cur, f.lvars); err != nil {
			return err
		}
	}
	p, err := plan.Compile(f.right, c.cur, nil)
	if err != nil {
		return err
	}
	f.rhs = c.seedsOf(p)
	if key != "" {
		c.families[key] = f
	}
	return nil
}

// adopt files s among the members at its window's place.
func (f *sinceFamily) adopt(s *sinceNode) {
	at := sort.Search(len(f.members), func(i int) bool { return s.narrowerThan(f.members[i]) })
	f.members = slices.Insert(f.members, at, s)
	for i, m := range f.members {
		m.fam, m.idx = f, i
	}
}

func (s *sinceNode) narrowerThan(o *sinceNode) bool {
	return !s.iv.Unbounded && (o.iv.Unbounded || s.iv.Hi < o.iv.Hi)
}

// widest is the member whose window decides what the table keeps.
func (f *sinceFamily) widest() *sinceNode { return f.members[len(f.members)-1] }

// name renders the family as its widest member, for error messages.
func (f *sinceFamily) name() string { return f.widest().node.String() }

func (s *sinceNode) formula() mtl.Formula { return s.node }

// phaseA updates the family once per commit, in whichever member runs
// first. That is the member registered first, ahead of every node that
// reads any member; it need not be the narrowest (idx 0), which may join
// after a node reading a wider window.
func (s *sinceNode) phaseA(sc *stepCtx, t uint64) error {
	if s.fam.primed && s.fam.lastT == t {
		return nil
	}
	if err := s.fam.update(sc, t); err != nil {
		return fmt.Errorf("core: %q: %w", s.node.String(), err)
	}
	return nil
}

func (f *sinceFamily) update(sc *stepCtx, t uint64) error {
	for _, m := range f.members {
		m.added, m.removed = m.added[:0], m.removed[:0]
	}
	clean := f.primed && f.deps.clean()
	if clean && f.nothingDue(t) {
		f.lastT = t
		return nil
	}
	prev := f.lastT
	f.lastT = t
	f.epoch++
	if !f.primed {
		f.loadAnchors()
	}
	walk := !f.primed || f.noPrune
	var err error
	switch {
	case clean:
		// Only time passed.
	case f.primed && !f.noPrune && f.rhs.canSeed && !f.rhs.inexactDirty():
		if anyChanged(f.leftRels) || anyDirty(f.leftNodes) {
			err = f.retestChain(sc)
		}
		if err == nil {
			err = f.deltaAnchors(sc, prev)
		}
	default:
		walk = true
		if err = f.retestChain(sc); err == nil {
			err = f.enumerateAnchors(sc, prev)
		}
	}
	if err != nil {
		return err
	}
	switch {
	case walk:
		f.eachEntry(f.touch)
	case !f.newest:
		// The semantics need every anchor of a window with a > 0: a live
		// entry takes this commit's timestamp.
		for _, e := range f.live {
			f.touch(e)
		}
	}
	f.popDue(t)
	for i, e := range f.touched {
		f.touched[i] = nil
		f.resolve(e, t)
	}
	f.touched = f.touched[:0]
	f.primed = true
	return nil
}

// nothingDue completes the ladder's first rung: with nothing the family
// reads changed, no live entry in need of this commit's timestamp and no
// anchor due at any reader, every entry's recurrence step is the identity
// and only the clock moves (which is all a live entry under the newest-
// anchor rule needs).
//
//rtic:noalloc
func (f *sinceFamily) nothingDue(t uint64) bool {
	if f.noPrune || !(f.newest || len(f.live) == 0) || (f.lo > 0 && f.anchors.due(f.enterCur, f.lo, t)) {
		return false
	}
	for _, m := range f.members {
		if !m.iv.Unbounded && f.anchors.due(m.cursor, m.leaveAge(), t) {
			return false
		}
	}
	return true
}

// leaveAge is the age at which an anchor has left a finite window.
func (s *sinceNode) leaveAge() uint64 { return satAdd(s.iv.Hi, 1) }

// touch queues e for this commit's resolve, once.
func (f *sinceFamily) touch(e *sinceEntry) {
	if e.seen != f.epoch {
		e.seen = f.epoch
		f.touched = append(f.touched, e)
	}
}

// row returns e's row, which aliases its slot in f.rows.
//
//rtic:noalloc
func (f *sinceFamily) row(e *sinceEntry) tuple.Tuple { return f.rows.Row(e.slot) }

// find returns the entry holding row, or nil.
//
//rtic:noalloc
func (f *sinceFamily) find(row tuple.Tuple) *sinceEntry {
	if s := f.rows.Slot(row); s >= 0 {
		return f.entries[s]
	}
	return nil
}

// findKey returns the entry whose row's tuple.Key encoding is key, or
// nil.
//
//rtic:noalloc
func (f *sinceFamily) findKey(key []byte) *sinceEntry {
	if s := f.rows.SlotKey(key); s >= 0 {
		return f.entries[s]
	}
	return nil
}

// take copies row, which no entry holds, into f.rows and returns the
// entry of its slot with no timestamps. The entry's other fields are the
// caller's to set.
//
//rtic:noalloc
func (f *sinceFamily) take(row tuple.Tuple) (*sinceEntry, error) {
	s, _, err := f.rows.InsertSlot(row)
	if err != nil {
		return nil, err
	}
	if int(s) == len(f.entries) {
		chunk := make([]sinceEntry, max(entryChunk, len(f.entries)/4)) //rtic:allocok once per new high-water mark of the family's rows
		for i := range chunk {
			chunk[i].slot = int32(len(f.entries))
			chunk[i].times = chunk[i].first[:0]
			f.entries = append(f.entries, &chunk[i])
		}
	}
	e := f.entries[s]
	e.times = e.times[:0]
	e.fixed = entryFixedBytes(row)
	return e, nil
}

// drop frees e: its row leaves f.rows, anchors logged for it turn stale,
// and its slot is the next row's.
//
//rtic:noalloc
func (f *sinceFamily) drop(e *sinceEntry) {
	f.rows.Delete(f.row(e))
	e.gen++
}

// eachEntry calls fn with every entry in the table, in slot order.
func (f *sinceFamily) eachEntry(fn func(*sinceEntry)) {
	f.rows.EachSlot(func(s int32) bool {
		fn(f.entries[s])
		return true
	})
}

// enter records that row is in ⟦ψ⟧ now, creating its entry if need be:
// the entry of row's slot in f.rows.
//
//rtic:noalloc
func (f *sinceFamily) enter(sc *stepCtx, row tuple.Tuple) (*sinceEntry, error) {
	e := f.find(row)
	if e == nil {
		var err error
		if e, err = f.take(row); err != nil {
			return nil, err
		}
		e.liveIx, e.keep, e.seen, e.mark = -1, true, 0, 0
		if !f.once {
			keep, err := f.chainHolds(sc, e)
			if err != nil {
				return nil, err
			}
			e.keep = keep
		}
		f.insert(e)
	}
	if e.liveIx < 0 {
		e.liveIx = len(f.live)
		f.live = append(f.live, e)
	}
	// An entry every member answers already stays in every answer with
	// nothing to resolve: it would have been dropped by now had its chain
	// broken. One that is new, or has aged out of the narrower windows,
	// enters theirs. (Outside the newest-anchor rule update resolves
	// every live entry anyway.)
	if e.sat > 0 {
		f.touch(e)
	}
	return e, nil
}

// leave records that e's row is no longer in ⟦ψ⟧. Under the newest-
// anchor rule this is where the entry's slot is written: the newest
// anchor of S_{i−1} is the previous commit, the last one that saw the
// row — and if that is still inside the widest window now and the chain
// holds, the entry stays with nothing to resolve; a narrower window it
// has already left finds that out from its cursor.
func (f *sinceFamily) leave(e *sinceEntry, prev uint64) {
	last := f.live[len(f.live)-1]
	f.live[e.liveIx], last.liveIx = last, e.liveIx
	f.live[len(f.live)-1] = nil
	f.live = f.live[:len(f.live)-1]
	e.liveIx = -1
	if f.newest {
		e.times[0] = prev
		f.log(prev, e)
		if e.keep && f.widest().iv.Contains(f.lastT-prev) {
			return
		}
	}
	f.touch(e)
}

// log appends timestamp tm of e to the anchor log, if any reader waits
// for it: the enter cursor, or the narrowest member if its window (and so
// any window) is finite.
func (f *sinceFamily) log(tm uint64, e *sinceEntry) {
	if f.lo > 0 || !f.members[0].iv.Unbounded {
		f.anchors.push(tm, e)
	}
}

// loadAnchors rebuilds the log from the stored timestamps — the priming
// step after LoadSnapshot, whose format holds rows and times only.
func (f *sinceFamily) loadAnchors() {
	if f.noPrune {
		return
	}
	var all []anchor
	f.eachEntry(func(e *sinceEntry) {
		for _, tm := range e.times {
			all = append(all, anchor{tm, e, e.gen})
		}
	})
	sort.Slice(all, func(i, j int) bool { return all[i].tm < all[j].tm })
	for _, a := range all {
		f.log(a.tm, a.e)
	}
}

// popDue advances every reader of the anchor log to t. An anchor that
// aged into the window (a > 0) or out of the widest one queues its entry
// for resolve. One that aged out of a narrower window changes nothing
// stored: the row leaves that member's answer and that is all. Stale
// anchors — of a dropped entry, or under the newest-anchor rule of a slot
// that has since gone live or been rewritten — are passed over.
func (f *sinceFamily) popDue(t uint64) {
	for f.lo > 0 && f.anchors.due(f.enterCur, f.lo, t) {
		if a := f.anchors.at(f.enterCur); !a.stale() {
			f.touch(a.e)
		}
		f.enterCur++
	}
	slowest := f.enterCur
	for i, m := range f.members {
		if m.iv.Unbounded {
			break
		}
		for age := m.leaveAge(); f.anchors.due(m.cursor, age, t); m.cursor++ {
			a := f.anchors.at(m.cursor)
			switch e := a.e; {
			case a.stale() || (f.newest && (e.liveIx >= 0 || e.times[0] != a.tm)):
			case m == f.widest():
				f.touch(e)
			case e.sat == i:
				e.sat++
				m.removed = append(m.removed, f.row(e))
			}
		}
		slowest = m.cursor
	}
	f.anchors.release(slowest)
}

// deltaAnchors is the ladder's delta rung: Δ⟦ψ⟧ from the commit's net
// relation deltas and the children's exact answer deltas. A live row is
// retested only when some source moved in the direction that can drop
// an answer; rows that may have entered are derived from the sources
// that moved the other way.
func (f *sinceFamily) deltaAnchors(sc *stepCtx, prev uint64) error {
	if len(f.live) > 0 && f.rhs.moved(false) {
		for i := len(f.live) - 1; i >= 0; i-- {
			e := f.live[i]
			ok, err := f.rhs.plan.RetestRow(sc.c.cur, &sc.orc, f.row(e))
			if err != nil {
				return err
			}
			if !ok {
				f.leave(e, prev)
			}
		}
	}
	if !f.rhs.moved(true) {
		return nil
	}
	var eerr error
	_, err := f.rhs.derive(sc, func(row tuple.Tuple) bool {
		_, eerr = f.enter(sc, row)
		return eerr == nil
	})
	if err == nil {
		err = eerr
	}
	return err
}

// enumerateAnchors is the full rung: enumerate ⟦ψ⟧ in the new state and
// diff it against the live entries. The plan streams rows without
// materializing the binding set.
func (f *sinceFamily) enumerateAnchors(sc *stepCtx, prev uint64) error {
	var eerr error
	err := f.rhs.plan.Execute(sc.c.cur, &sc.orc, nil, func(row tuple.Tuple) bool {
		var e *sinceEntry
		if e, eerr = f.enter(sc, row); eerr != nil {
			return false
		}
		e.mark = f.epoch
		return true
	})
	if err == nil {
		err = eerr
	}
	if err != nil {
		return err
	}
	for i := len(f.live) - 1; i >= 0; i-- {
		if e := f.live[i]; e.mark != f.epoch {
			f.leave(e, prev)
		}
	}
	return nil
}

// chainHolds evaluates θ ⊨ φ for e's binding in the current state: φ's
// plan, its inputs bound from e's row, stopped at the first row it emits.
func (f *sinceFamily) chainHolds(sc *stepCtx, e *sinceEntry) (bool, error) {
	row := f.row(e)
	for i, p := range f.lPos {
		f.envBuf[f.lvars[i]] = row[p]
	}
	holds := false
	err := f.chain.Execute(sc.c.cur, &sc.orc, f.envBuf, func(tuple.Tuple) bool { //rtic:allocok closure does not escape Execute
		holds = true
		return false
	})
	if err != nil {
		return false, fmt.Errorf("testing chain: %w", err) //rtic:allocok cold path: the chain plan failed
	}
	return holds, nil
}

// retestChain re-evaluates φ for every entry — needed only on commits
// where something φ reads changed — and queues the entries whose chain
// is broken: their recurrence step drops S_{i−1}.
func (f *sinceFamily) retestChain(sc *stepCtx) error {
	if f.once {
		return nil
	}
	var err error
	f.eachEntry(func(e *sinceEntry) {
		if err != nil {
			return
		}
		var keep bool
		if keep, err = f.chainHolds(sc, e); err == nil {
			if e.keep = keep; !keep {
				f.touch(e)
			}
		}
	})
	return err
}

// resolve applies one entry's recurrence step from its cached inputs,
// prunes to the widest window, moves the row in and out of the members'
// answers, and drops the entry once it holds nothing. It runs at most
// once per entry per commit, which is what keeps added/removed net.
func (f *sinceFamily) resolve(e *sinceEntry, t uint64) {
	f.visited++
	live := e.liveIx >= 0
	if f.newest && live {
		// Satisfied by construction; the slot only has to exist.
		if len(e.times) == 0 {
			e.times = append(e.times, t)
			f.nTimes++
		}
	} else {
		held := len(e.times)
		if !e.keep {
			e.times = e.times[:0]
		}
		// An unbounded window keeps only its earliest timestamp, so a new
		// anchor matters to it only when it holds none.
		if live && (f.noPrune || !f.widest().iv.Unbounded || len(e.times) == 0) {
			e.times = append(e.times, t)
			if !f.noPrune {
				f.log(t, e)
			}
		}
		f.prune(e, t)
		f.nTimes += len(e.times) - held
	}
	// A wider window holds whatever a narrower one does, so the members
	// that answer the row are those from the first satisfied one on.
	sat := len(f.members)
	for i, m := range f.members {
		if m.satisfied(e, t) {
			sat = i
			break
		}
	}
	for _, m := range f.members[min(sat, e.sat):e.sat] {
		m.added = append(m.added, f.row(e))
	}
	for _, m := range f.members[e.sat:max(sat, e.sat)] {
		m.removed = append(m.removed, f.row(e))
	}
	e.sat = sat
	if len(e.times) == 0 {
		f.fixedBytes -= e.fixed
		f.drop(e)
	}
}

// prune enforces the bounded history encoding: timestamps older than the
// widest window's upper bound can never re-enter any window; with an
// unbounded window, satisfaction is monotone in age so the earliest
// timestamp subsumes all others. (The newest-anchor rule needs no step
// of its own: its entries never hold a second timestamp, and the first
// rule drops the one they hold when it ages out.)
func (f *sinceFamily) prune(e *sinceEntry, now uint64) {
	if f.noPrune {
		return
	}
	iv := f.widest().iv
	if iv.Unbounded {
		if len(e.times) > 1 {
			e.times = e.times[:1]
		}
		return
	}
	cut := 0
	for cut < len(e.times) && now-e.times[cut] > iv.Hi {
		cut++
	}
	if cut > 0 {
		e.times = append(e.times[:0], e.times[cut:]...)
	}
}

func (s *sinceNode) phaseBCompute(*stepCtx, uint64) error { return nil }
func (s *sinceNode) phaseBCommit(uint64)                  {}

// anchorsOf returns the timestamps e stands for: the stored ones, or for
// a live entry under the newest-anchor rule the current time it carries
// implicitly.
func (f *sinceFamily) anchorsOf(e *sinceEntry) []uint64 {
	if f.newest && e.liveIx >= 0 {
		return []uint64{f.lastT}
	}
	return e.times
}

// satisfied reads e through the member's window.
func (s *sinceNode) satisfied(e *sinceEntry, now uint64) bool {
	if s.fam.newest && e.liveIx >= 0 {
		return s.iv.Contains(now - s.fam.lastT)
	}
	for _, tm := range e.times {
		if s.iv.Contains(now - tm) {
			return true
		}
	}
	return false
}

// enumerate builds the answer as a set for a plan that scans the node —
// work of the order of the scan it serves; probes (testKey) read the
// table and build nothing.
func (s *sinceNode) enumerate(now uint64) (*fol.Bindings, error) {
	out := fol.NewBindings(s.fam.vars)
	var err error
	s.fam.eachEntry(func(e *sinceEntry) {
		if err == nil && s.satisfied(e, now) {
			err = out.AddRow(s.fam.row(e))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// rowOf builds the entry row for a full binding of the node's variables.
func (s *sinceNode) rowOf(env fol.Env) (tuple.Tuple, error) {
	row := make(tuple.Tuple, len(s.fam.vars))
	for i, v := range s.fam.vars {
		val, ok := env[v]
		if !ok {
			return nil, fmt.Errorf("core: test of %q misses variable %q", s.node.String(), v)
		}
		row[i] = val
	}
	return row, nil
}

func (s *sinceNode) test(env fol.Env, now uint64) (bool, error) {
	row, err := s.rowOf(env)
	if err != nil {
		return false, err
	}
	e := s.fam.find(row)
	return e != nil && s.satisfied(e, now), nil
}

func (s *sinceNode) testKey(key []byte, now uint64) (bool, error) {
	e := s.fam.findKey(key)
	return e != nil && s.satisfied(e, now), nil
}

// place returns the place of the row whose key is key in the members'
// answers as of the last commit: members[place:] hold it.
//
//rtic:noalloc
func (f *sinceFamily) place(key []byte) int {
	if e := f.findKey(key); e != nil {
		return e.sat
	}
	return len(f.members)
}

func (s *sinceNode) dirty() bool { return len(s.added)+len(s.removed) > 0 }

func (s *sinceNode) answerDelta() ([]tuple.Tuple, []tuple.Tuple, bool) {
	return s.added, s.removed, true
}

// insert opens the storage account of an entry just taken from the slab,
// which no member answers yet.
func (f *sinceFamily) insert(e *sinceEntry) {
	e.sat = len(f.members)
	f.nTimes += len(e.times)
	f.fixedBytes += e.fixed
}

// entryFixedBytes estimates one entry's footprint apart from its
// timestamps: the row's key text, the row, and the entry and slice
// headers — the estimate of an entry filed under its key string, which
// the figures the experiments publish were taken with.
//
//rtic:noalloc
func entryFixedBytes(row tuple.Tuple) int {
	var buf [64]byte
	return len(row.AppendKeyTo(buf[:0])) + row.Size() + 48
}

// stats and account report a family's table once, on the member whose
// window it is kept to; the narrower members hold nothing of their own.
func (s *sinceNode) stats() NodeStats {
	st := NodeStats{Formula: s.node.String()}
	if s != s.fam.widest() {
		return st
	}
	st.Entries = s.fam.rows.Len()
	s.fam.eachEntry(func(e *sinceEntry) {
		st.Timestamps += len(e.times)
		st.Bytes += e.fixed + 8*len(e.times)
	})
	return st
}

func (s *sinceNode) account() (entries, timestamps, bytes int) {
	f := s.fam
	if s != f.widest() {
		return 0, 0, 0
	}
	return f.rows.Len(), f.nTimes, f.fixedBytes + 8*f.nTimes
}

// invariants returns an error if the family's internal invariants are
// broken; the property tests call it after every step. ev evaluates in
// the current state.
func (f *sinceFamily) invariants(now uint64, ev *fol.Evaluator) error {
	for i, m := range f.members {
		if m.fam != f || m.idx != i || (i > 0 && !f.members[i-1].narrowerThan(m)) {
			return fmt.Errorf("core: %q: member %d (%s) is out of place", f.name(), i, m.node.String())
		}
		if m.iv.Lo != f.lo || (len(f.members) > 1 && !f.newest) {
			return fmt.Errorf("core: %q: window %s shares a table the newest-anchor rule does not cover", f.name(), m.iv.String())
		}
	}
	for s, e := range f.entries {
		if e.slot != int32(s) {
			return fmt.Errorf("core: %q: entry of slot %d filed at %d", f.name(), e.slot, s)
		}
	}
	var held []*sinceEntry
	f.eachEntry(func(e *sinceEntry) { held = append(held, e) })
	nLive := 0
	for _, e := range held {
		if f.find(f.row(e)) != e {
			return fmt.Errorf("core: %q: entry %s is not found under its row", f.name(), f.row(e))
		}
		if e.liveIx >= 0 {
			nLive++
			if e.liveIx >= len(f.live) || f.live[e.liveIx] != e {
				return fmt.Errorf("core: %q: live entry %s not at its place in the live list", f.name(), f.row(e))
			}
		}
	}
	if nLive != len(f.live) {
		return fmt.Errorf("core: %q: live list has %d entries, %d entries are live", f.name(), len(f.live), nLive)
	}
	if err := f.liveMatches(ev); err != nil {
		return err
	}
	if f.primed && now == f.lastT {
		// Every member's answer is the table read through its window.
		for i, m := range f.members {
			for _, e := range held {
				if holds := m.satisfied(e, now); holds != (i >= e.sat) {
					return fmt.Errorf("core: %q: entry %s satisfied=%v, filed from member %d on", m.node.String(), f.row(e), holds, e.sat)
				}
			}
		}
	}
	if f.noPrune {
		return nil // the ablation deliberately violates the space bounds
	}
	// logged maps each anchor to its last position in the log.
	logged := make(map[anchor]int)
	for i, a := range f.anchors.ev {
		if i > 0 && f.anchors.ev[i-1].tm > a.tm {
			return fmt.Errorf("core: %q: anchor log out of order: %d before %d", f.name(), f.anchors.ev[i-1].tm, a.tm)
		}
		logged[a] = f.anchors.base + i
	}
	ahead := func(a anchor, cursor int) bool {
		pos, ok := logged[a]
		return ok && pos >= cursor
	}
	wide := f.widest().iv
	bound := windowSpan(f.widest().node)
	for _, e := range held {
		key := f.row(e)
		if len(e.times) == 0 {
			return fmt.Errorf("core: %q: empty entry %s retained", f.name(), key)
		}
		if uint64(len(e.times)) > bound {
			return fmt.Errorf("core: %q: window %s kept %d timestamps, bound %d", f.name(), wide.String(), len(e.times), bound)
		}
		if f.newest && e.liveIx >= 0 {
			continue // the slot is not read while the entry is live
		}
		if f.primed && f.newest && e.sat == len(f.members) {
			return fmt.Errorf("core: %q: entry %s kept outside the widest window", f.name(), key)
		}
		for i, tm := range e.times {
			if i > 0 && e.times[i-1] >= tm {
				return fmt.Errorf("core: %q: timestamps not strictly ascending: %v", f.name(), e.times)
			}
			if !wide.Unbounded && now-tm > wide.Hi {
				return fmt.Errorf("core: %q: stale timestamp %d at now=%d (window %s)", f.name(), tm, now, wide.String())
			}
			if !f.primed {
				continue
			}
			// Every reader that has yet to see tm age in or out finds it
			// at or after its cursor.
			if satAdd(tm, f.lo) > now && !ahead(anchor{tm, e, e.gen}, f.enterCur) {
				return fmt.Errorf("core: %q: entry %s: timestamp %d is not ahead of the enter cursor", f.name(), key, tm)
			}
			for _, m := range f.members {
				if !m.iv.Unbounded && now-tm <= m.iv.Hi && !ahead(anchor{tm, e, e.gen}, m.cursor) {
					return fmt.Errorf("core: %q: entry %s: timestamp %d is not ahead of the cursor of %s", f.name(), key, tm, m.node.String())
				}
			}
		}
	}
	return nil
}

// liveMatches holds the live entries equal to ⟦ψ⟧ enumerated afresh. A
// prev child has by now (after the carry phase) moved on to the answer it
// serves at the next state, so ψ can no longer be evaluated as the update
// phase saw it; such families are not checked.
func (f *sinceFamily) liveMatches(ev *fol.Evaluator) error {
	if !f.primed {
		return nil
	}
	for _, child := range f.deps.children {
		if _, ok := child.(*prevNode); ok {
			return nil
		}
	}
	rb, err := ev.Eval(f.right)
	if err != nil {
		return err
	}
	if rb.Len() != len(f.live) {
		return fmt.Errorf("core: %q: %d live entries, ⟦ψ⟧ has %d rows", f.name(), len(f.live), rb.Len())
	}
	for _, e := range f.live {
		if !rb.ContainsRow(f.row(e)) {
			return fmt.Errorf("core: %q: live entry %s is not in ⟦ψ⟧", f.name(), f.row(e))
		}
	}
	return nil
}

func varPositions(vars, subset []string) []int {
	out := make([]int, len(subset))
	for i, v := range subset {
		out[i] = sort.SearchStrings(vars, v)
	}
	return out
}
