package core

import (
	"fmt"
	"sort"

	"rtic/internal/fol"
	"rtic/internal/mtl"
	"rtic/internal/plan"
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
// of a since/once subformula: the timestamps t_j at which the anchor ψ
// held with the chain φ unbroken since, pruned by the node's rules.
// liveIx and keep cache the entry's recurrence inputs as of the node's
// last commit (row ∈ ⟦ψ⟧? and θ ⊨ φ?), so a commit only has to visit the
// entries whose inputs moved or whose deadline fell due.
type sinceEntry struct {
	key    string // tuple.Key of row: the entry's key in the node and in its answer
	row    tuple.Tuple
	times  []uint64  // ascending
	first  [1]uint64 // backing store of times while one timestamp suffices
	liveIx int       // index in sinceNode.live while row ∈ ⟦ψ⟧, else -1
	keep   bool
	seen   uint64 // epoch of the commit that last queued the entry for resolve
	mark   uint64 // epoch of the full enumeration of ⟦ψ⟧ that last produced row
	gone   bool   // dropped from the node: deadlines still queued for it are stale
}

// deadline says that e must be looked at by the first commit at or after
// due: one of its timestamps enters or leaves the metric window then.
type deadline struct {
	due uint64
	e   *sinceEntry
}

// deadlineQueue is a FIFO of deadlines in ascending due order. Commit
// times ascend and every deadline is a fixed offset from the commit time
// it was derived from, so pushing in commit order keeps it sorted with
// no heap.
type deadlineQueue struct {
	ev   []deadline
	head int
}

func (q *deadlineQueue) push(due uint64, e *sinceEntry) {
	if q.head > 32 && q.head*2 > len(q.ev) {
		n := copy(q.ev, q.ev[q.head:])
		for i := n; i < len(q.ev); i++ {
			q.ev[i] = deadline{}
		}
		q.ev, q.head = q.ev[:n], 0
	}
	q.ev = append(q.ev, deadline{due, e})
}

//rtic:noalloc
func (q *deadlineQueue) due(t uint64) bool {
	return q.head < len(q.ev) && q.ev[q.head].due <= t
}

func (q *deadlineQueue) pop() deadline {
	d := q.ev[q.head]
	q.ev[q.head] = deadline{}
	q.head++
	if q.head == len(q.ev) {
		q.ev, q.head = q.ev[:0], 0
	}
	return d
}

func (q *deadlineQueue) pending() []deadline { return q.ev[q.head:] }

// sinceNode implements φ S_I ψ (and once_I ψ, with φ = true) via the
// recurrence S_i(θ) = (i ⊨θ φ ? S_{i−1}(θ) : ∅) ∪ (i ⊨θ ψ ? {t_i} : ∅),
// with θ satisfied at i iff some t ∈ S_i(θ) has t_i − t ∈ I = [a,b].
//
// Three pruning rules keep S small (DESIGN.md): a timestamp older than b
// never re-enters the window; with b = ∞ the earliest timestamp subsumes
// the others; and with a = 0 the newest one does (newest) — satisfaction
// is t_i − max S ≤ b. Under that third rule a live entry, one whose row
// is in ⟦ψ⟧ now, has max S = t_i by construction: it is satisfied and
// needs no per-commit touch at all; its single slot is not read until
// the commit its row leaves ⟦ψ⟧, which stores the previous commit's time.
//
// A commit climbs a ladder (phaseA) and costs what moved, not what is
// stored: nothing the node reads changed and no deadline is due — only
// the clock advances; otherwise Δ⟦ψ⟧ is derived from the commit's delta
// (seeded) and only the entries it names, those whose chain broke and
// those with a due deadline are resolved; the full enumerate-and-walk
// primes the node (first commit, first commit after LoadSnapshot) and
// serves the inputs the delta rung cannot: a ψ whose plan is not
// seedable, children without exact deltas, and the pruning ablation.
type sinceNode struct {
	node  mtl.Formula // *mtl.Once or *mtl.Since
	iv    mtl.Interval
	left  mtl.Formula // Truth{true} for once
	right mtl.Formula
	once  bool
	vars  []string // fv(node), sorted; equals fv(right) by safety
	lvars []string
	lPos  []int // position in vars of each of lvars

	// deps is the node's whole read set, leftRels/leftNodes the chain's
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

	entries map[string]*sinceEntry
	live    []*sinceEntry // entries whose row is in ⟦ψ⟧ as of lastT
	// enterQ holds t+a for timestamps that have yet to age into the
	// window (a > 0 only), leaveQ t+b+1 for timestamps that will age out
	// of it (finite b only). Neither is filled under noPrune, which walks
	// every entry on every commit.
	enterQ, leaveQ deadlineQueue
	// nTimes and fixedBytes are the running storage account: timestamps
	// held across all entries, and the entries' footprint apart from
	// their timestamps (entryFixedBytes, constant while an entry lives).
	// Every site that adds or drops an entry or a timestamp keeps them.
	nTimes     int
	fixedBytes int

	// The maintained answer: ans holds exactly the rows satisfied at
	// lastT (valid once primed), added/removed the rows that entered and
	// left it in the last commit — net: an entry is resolved once per
	// commit, so a row that expires and is re-anchored in one commit is in
	// neither. touched, envBuf and keyBuf are single-goroutine scratch
	// (one goroutine updates a node per commit).
	ans     *fol.Bindings
	lastT   uint64
	primed  bool
	dirtied bool
	added   []tuple.Tuple
	removed []tuple.Tuple
	epoch   uint64
	touched []*sinceEntry
	envBuf  fol.Env
	keyBuf  []byte

	// visited counts the entries phaseA resolved since the node was
	// built; tests and benchmarks read it, nothing else does.
	visited int
}

func newOnceNode(n *mtl.Once, noPrune bool) (*sinceNode, error) {
	return newSinceLike(n, n.I, mtl.Truth{Bool: true}, n.F, noPrune)
}

func newSinceNode(n *mtl.Since, noPrune bool) (*sinceNode, error) {
	return newSinceLike(n, n.I, n.L, n.R, noPrune)
}

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
	return &sinceNode{
		node:    node,
		iv:      iv,
		left:    left,
		right:   right,
		once:    isTruth && truth.Bool,
		vars:    vars,
		lvars:   lvars,
		lPos:    varPositions(vars, lvars),
		noPrune: noPrune,
		newest:  iv.Lo == 0 && !noPrune,
		entries: make(map[string]*sinceEntry),
		ans:     fol.NewBindings(vars),
		envBuf:  make(fol.Env, len(lvars)),
	}, nil
}

func (s *sinceNode) formula() mtl.Formula { return s.node }

func (s *sinceNode) phaseA(sc *stepCtx, t uint64) error {
	s.added = s.added[:0]
	s.removed = s.removed[:0]
	clean := s.primed && s.deps.clean()
	if clean && s.nothingDue(t) {
		s.lastT = t
		s.dirtied = false
		return nil
	}
	prev := s.lastT
	s.lastT = t
	s.epoch++
	if !s.primed {
		s.loadDeadlines()
	}
	walk := !s.primed || s.noPrune
	var err error
	switch {
	case clean:
		// Only time passed.
	case s.primed && !s.noPrune && s.rhs.canSeed && !s.rhs.inexactDirty():
		if anyChanged(s.leftRels) || anyDirty(s.leftNodes) {
			err = s.retestChain(sc)
		}
		if err == nil {
			err = s.deltaAnchors(sc, prev)
		}
	default:
		walk = true
		if err = s.retestChain(sc); err == nil {
			err = s.enumerateAnchors(sc, prev)
		}
	}
	if err != nil {
		return fmt.Errorf("core: %q: %w", s.node.String(), err)
	}
	switch {
	case walk:
		for _, e := range s.entries {
			s.touch(e)
		}
	case !s.newest:
		// The semantics need every anchor of a window with a > 0: a live
		// entry takes this commit's timestamp.
		for _, e := range s.live {
			s.touch(e)
		}
	}
	s.popDue(&s.enterQ, t)
	s.popDue(&s.leaveQ, t)
	for i, e := range s.touched {
		s.touched[i] = nil
		if err := s.resolve(e, t); err != nil {
			return err
		}
	}
	s.touched = s.touched[:0]
	s.primed = true
	s.dirtied = len(s.added)+len(s.removed) > 0
	return nil
}

// nothingDue completes the ladder's first rung: with nothing the node
// reads changed, no live entry in need of this commit's timestamp and no
// deadline due, every entry's recurrence step is the identity and only
// the clock moves (which is all a live entry under the newest-anchor
// rule needs).
//
//rtic:noalloc
func (s *sinceNode) nothingDue(t uint64) bool {
	return !s.noPrune && (s.newest || len(s.live) == 0) && !s.enterQ.due(t) && !s.leaveQ.due(t)
}

// touch queues e for this commit's resolve, once.
func (s *sinceNode) touch(e *sinceEntry) {
	if e.seen != s.epoch {
		e.seen = s.epoch
		s.touched = append(s.touched, e)
	}
}

// enter records that row is in ⟦ψ⟧ now, creating its entry if need be.
func (s *sinceNode) enter(sc *stepCtx, row tuple.Tuple) (*sinceEntry, error) {
	s.keyBuf = row.AppendKeyTo(s.keyBuf[:0])
	e, ok := s.entries[string(s.keyBuf)]
	if !ok {
		e = &sinceEntry{key: string(s.keyBuf), row: row.Clone(), liveIx: -1, keep: true}
		e.times = e.first[:0]
		if !s.once {
			keep, err := s.chainHolds(sc, e)
			if err != nil {
				return nil, err
			}
			e.keep = keep
		}
		s.insert(e)
	}
	if e.liveIx < 0 {
		e.liveIx = len(s.live)
		s.live = append(s.live, e)
	}
	// Only a new entry has to be resolved for entering: under the newest-
	// anchor rule one that was already held is in the answer and stays
	// there (it would have been dropped by now had its anchor aged out or
	// its chain broken), and under the other rules phaseA resolves every
	// live entry anyway.
	if !ok {
		s.touch(e)
	}
	return e, nil
}

// leave records that e's row is no longer in ⟦ψ⟧. Under the newest-
// anchor rule this is where the entry's slot is written: the newest
// anchor of S_{i−1} is the previous commit, the last one that saw the
// row — and if that is still inside the window now and the chain holds,
// the entry stays in the answer with nothing to resolve.
func (s *sinceNode) leave(e *sinceEntry, prev uint64) {
	last := s.live[len(s.live)-1]
	s.live[e.liveIx], last.liveIx = last, e.liveIx
	s.live[len(s.live)-1] = nil
	s.live = s.live[:len(s.live)-1]
	e.liveIx = -1
	if s.newest {
		e.times[0] = prev
		s.schedule(prev, e)
		if e.keep && s.iv.Contains(s.lastT-prev) {
			return
		}
	}
	s.touch(e)
}

// schedule queues the deadlines of timestamp tm of e.
func (s *sinceNode) schedule(tm uint64, e *sinceEntry) {
	if s.iv.Lo > 0 {
		s.enterQ.push(satAdd(tm, s.iv.Lo), e)
	}
	if !s.iv.Unbounded {
		s.leaveQ.push(s.leaveDue(tm), e)
	}
}

// leaveDue is the first time at which tm has aged out of a finite window.
func (s *sinceNode) leaveDue(tm uint64) uint64 { return satAdd(satAdd(tm, s.iv.Hi), 1) }

// loadDeadlines rebuilds both queues from the stored timestamps — the
// priming step after LoadSnapshot, whose format holds rows and times only.
func (s *sinceNode) loadDeadlines() {
	if s.noPrune {
		return
	}
	var all []deadline
	for _, e := range s.entries {
		for _, tm := range e.times {
			all = append(all, deadline{tm, e})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].due < all[j].due })
	for _, d := range all {
		s.schedule(d.due, d.e)
	}
}

// popDue queues every entry with a deadline at or before t. Stale
// deadlines — of a dropped entry, or under the newest-anchor rule of a
// slot that has since gone live or been rewritten — are discarded.
func (s *sinceNode) popDue(q *deadlineQueue, t uint64) {
	for q.due(t) {
		d := q.pop()
		if d.e.gone || (s.newest && (d.e.liveIx >= 0 || s.leaveDue(d.e.times[0]) != d.due)) {
			continue
		}
		s.touch(d.e)
	}
}

// deltaAnchors is the ladder's delta rung: Δ⟦ψ⟧ from the commit's net
// relation deltas and the children's exact answer deltas. A live row is
// retested only when some source moved in the direction that can drop
// an answer; rows that may have entered are derived from the sources
// that moved the other way.
func (s *sinceNode) deltaAnchors(sc *stepCtx, prev uint64) error {
	if len(s.live) > 0 && s.rhs.moved(false) {
		for i := len(s.live) - 1; i >= 0; i-- {
			e := s.live[i]
			ok, err := s.rhs.plan.RetestRow(sc.c.cur, &sc.orc, e.row)
			if err != nil {
				return err
			}
			if !ok {
				s.leave(e, prev)
			}
		}
	}
	if !s.rhs.moved(true) {
		return nil
	}
	var eerr error
	err := s.rhs.derive(sc, func(row tuple.Tuple) bool {
		_, eerr = s.enter(sc, row)
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
func (s *sinceNode) enumerateAnchors(sc *stepCtx, prev uint64) error {
	var eerr error
	err := s.rhs.plan.Execute(sc.c.cur, &sc.orc, nil, func(row tuple.Tuple) bool {
		var e *sinceEntry
		if e, eerr = s.enter(sc, row); eerr != nil {
			return false
		}
		e.mark = s.epoch
		return true
	})
	if err == nil {
		err = eerr
	}
	if err != nil {
		return err
	}
	for i := len(s.live) - 1; i >= 0; i-- {
		if e := s.live[i]; e.mark != s.epoch {
			s.leave(e, prev)
		}
	}
	return nil
}

// chainHolds evaluates θ ⊨ φ for e's binding in the current state: φ's
// plan, its inputs bound from e's row, stopped at the first row it emits.
func (s *sinceNode) chainHolds(sc *stepCtx, e *sinceEntry) (bool, error) {
	for i, p := range s.lPos {
		s.envBuf[s.lvars[i]] = e.row[p]
	}
	holds := false
	err := s.chain.Execute(sc.c.cur, &sc.orc, s.envBuf, func(tuple.Tuple) bool {
		holds = true
		return false
	})
	if err != nil {
		return false, fmt.Errorf("testing chain: %w", err)
	}
	return holds, nil
}

// retestChain re-evaluates φ for every entry — needed only on commits
// where something φ reads changed — and queues the entries whose chain
// is broken: their recurrence step drops S_{i−1}.
func (s *sinceNode) retestChain(sc *stepCtx) error {
	if s.once {
		return nil
	}
	for _, e := range s.entries {
		keep, err := s.chainHolds(sc, e)
		if err != nil {
			return err
		}
		if e.keep = keep; !keep {
			s.touch(e)
		}
	}
	return nil
}

// resolve applies one entry's recurrence step from its cached inputs,
// prunes, maintains the answer set, and drops the entry once it holds
// nothing. It runs at most once per entry per commit, which is what
// keeps added/removed net.
func (s *sinceNode) resolve(e *sinceEntry, t uint64) error {
	s.visited++
	live := e.liveIx >= 0
	if s.newest && live {
		// Satisfied by construction; the slot only has to exist.
		if len(e.times) == 0 {
			e.times = append(e.times, t)
			s.nTimes++
		}
	} else {
		held := len(e.times)
		if !e.keep {
			e.times = e.times[:0]
		}
		// An unbounded window keeps only its earliest timestamp, so a new
		// anchor matters to it only when it holds none.
		if live && (s.noPrune || !s.iv.Unbounded || len(e.times) == 0) {
			e.times = append(e.times, t)
			if !s.noPrune {
				s.schedule(t, e)
			}
		}
		s.prune(e, t)
		s.nTimes += len(e.times) - held
	}
	before := s.ans.ContainsKey(e.key)
	after := s.satisfied(e, t)
	if len(e.times) == 0 {
		delete(s.entries, e.key)
		s.fixedBytes -= entryFixedBytes(e.key, e.row)
		e.gone = true
	}
	if before && !after {
		s.ans.RemoveKey(e.key)
		s.removed = append(s.removed, e.row)
	} else if !before && after {
		if err := s.ans.AddKeyedRow(e.key, e.row); err != nil {
			return err
		}
		s.added = append(s.added, e.row)
	}
	return nil
}

// prune enforces the bounded history encoding: timestamps older than the
// upper window bound can never re-enter the window; with an unbounded
// window, satisfaction is monotone in age so the earliest timestamp
// subsumes all others. (The newest-anchor rule needs no step of its own:
// its entries never hold a second timestamp, and the first rule drops
// the one they hold when it ages out.)
func (s *sinceNode) prune(e *sinceEntry, now uint64) {
	if s.noPrune {
		return
	}
	if s.iv.Unbounded {
		if len(e.times) > 1 {
			e.times = e.times[:1]
		}
		return
	}
	cut := 0
	for cut < len(e.times) && now-e.times[cut] > s.iv.Hi {
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
func (s *sinceNode) anchorsOf(e *sinceEntry) []uint64 {
	if s.newest && e.liveIx >= 0 {
		return []uint64{s.lastT}
	}
	return e.times
}

func (s *sinceNode) satisfied(e *sinceEntry, now uint64) bool {
	if s.newest && e.liveIx >= 0 {
		return s.iv.Contains(now - s.lastT)
	}
	for _, tm := range e.times {
		if s.iv.Contains(now - tm) {
			return true
		}
	}
	return false
}

func (s *sinceNode) enumerate(now uint64) (*fol.Bindings, error) {
	if s.primed && now == s.lastT {
		return s.ans, nil
	}
	out := fol.NewBindings(s.vars)
	for _, e := range s.entries {
		if s.satisfied(e, now) {
			if err := out.AddRow(e.row); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// rowOf builds the entry row for a full binding of the node's variables.
func (s *sinceNode) rowOf(env fol.Env) (tuple.Tuple, error) {
	row := make(tuple.Tuple, len(s.vars))
	for i, v := range s.vars {
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
	e, ok := s.entries[row.Key()]
	if !ok {
		return false, nil
	}
	return s.satisfied(e, now), nil
}

func (s *sinceNode) testKey(key []byte, now uint64) (bool, error) {
	if s.primed && now == s.lastT {
		return s.ans.ContainsKeyBytes(key), nil
	}
	e, ok := s.entries[string(key)]
	return ok && s.satisfied(e, now), nil
}

func (s *sinceNode) dirty() bool { return s.dirtied }

func (s *sinceNode) answerDelta() ([]tuple.Tuple, []tuple.Tuple, bool) {
	return s.added, s.removed, true
}

// insert adds a new entry under its row key and opens its storage
// account.
func (s *sinceNode) insert(e *sinceEntry) {
	s.entries[e.key] = e
	s.nTimes += len(e.times)
	s.fixedBytes += entryFixedBytes(e.key, e.row)
}

// entryFixedBytes estimates one entry's footprint apart from its
// timestamps: map key, row, and the entry and slice headers.
func entryFixedBytes(key string, row tuple.Tuple) int {
	return len(key) + row.Size() + 48
}

func (s *sinceNode) stats() NodeStats {
	st := NodeStats{Formula: s.node.String(), Entries: len(s.entries)}
	for _, e := range s.entries {
		st.Timestamps += len(e.times)
		st.Bytes += entryFixedBytes(e.key, e.row) + 8*len(e.times)
	}
	return st
}

func (s *sinceNode) account() (entries, timestamps, bytes int) {
	return len(s.entries), s.nTimes, s.fixedBytes + 8*s.nTimes
}

// invariants returns an error if the node's internal invariants are
// broken; the property tests call it after every step. ev evaluates in
// the current state.
func (s *sinceNode) invariants(now uint64, ev *fol.Evaluator) error {
	if s.primed && now == s.lastT {
		sat := 0
		for key, e := range s.entries {
			if s.satisfied(e, now) {
				sat++
				if !s.ans.ContainsKey(key) {
					return fmt.Errorf("core: %q: maintained answer misses satisfied entry %s", s.node.String(), key)
				}
			} else if s.ans.ContainsKey(key) {
				return fmt.Errorf("core: %q: maintained answer retains unsatisfied entry %s", s.node.String(), key)
			}
		}
		if s.ans.Len() != sat {
			return fmt.Errorf("core: %q: maintained answer has %d rows, %d entries satisfied",
				s.node.String(), s.ans.Len(), sat)
		}
	}
	nLive := 0
	for key, e := range s.entries {
		if e.key != key || e.gone {
			return fmt.Errorf("core: %q: entry %s filed under %s (gone=%v)", s.node.String(), e.key, key, e.gone)
		}
		if e.liveIx >= 0 {
			nLive++
			if e.liveIx >= len(s.live) || s.live[e.liveIx] != e {
				return fmt.Errorf("core: %q: live entry %s not at its place in the live list", s.node.String(), key)
			}
		}
	}
	if nLive != len(s.live) {
		return fmt.Errorf("core: %q: live list has %d entries, %d entries are live", s.node.String(), len(s.live), nLive)
	}
	if err := s.liveMatches(ev); err != nil {
		return err
	}
	if s.noPrune {
		return nil // the ablation deliberately violates the space bounds
	}
	queued := make(map[deadline]bool)
	for _, q := range []*deadlineQueue{&s.enterQ, &s.leaveQ} {
		pend := q.pending()
		for i, d := range pend {
			if i > 0 && pend[i-1].due > d.due {
				return fmt.Errorf("core: %q: deadline queue out of order: %d before %d", s.node.String(), pend[i-1].due, d.due)
			}
			queued[d] = true
		}
	}
	for key, e := range s.entries {
		if len(e.times) == 0 {
			return fmt.Errorf("core: %q: empty entry %s retained", s.node.String(), key)
		}
		if (s.newest || s.iv.Unbounded) && len(e.times) > 1 {
			return fmt.Errorf("core: %q: window %s kept %d timestamps", s.node.String(), s.iv.String(), len(e.times))
		}
		if s.newest && e.liveIx >= 0 {
			continue // the slot is not read while the entry is live
		}
		for i, tm := range e.times {
			if i > 0 && e.times[i-1] >= tm {
				return fmt.Errorf("core: %q: timestamps not strictly ascending: %v", s.node.String(), e.times)
			}
			if !s.iv.Unbounded {
				if now-tm > s.iv.Hi {
					return fmt.Errorf("core: %q: stale timestamp %d at now=%d (window %s)", s.node.String(), tm, now, s.iv.String())
				}
				if s.primed && !queued[deadline{s.leaveDue(tm), e}] {
					return fmt.Errorf("core: %q: entry %s: no leave deadline queued for timestamp %d", s.node.String(), key, tm)
				}
			}
			if due := satAdd(tm, s.iv.Lo); s.primed && due > now && !queued[deadline{due, e}] {
				return fmt.Errorf("core: %q: entry %s: no enter deadline queued for timestamp %d", s.node.String(), key, tm)
			}
		}
	}
	return nil
}

// liveMatches holds the live entries equal to ⟦ψ⟧ enumerated afresh. A
// prev child has by now (after the carry phase) moved on to the answer it
// serves at the next state, so ψ can no longer be evaluated as the update
// phase saw it; such nodes are not checked.
func (s *sinceNode) liveMatches(ev *fol.Evaluator) error {
	if !s.primed {
		return nil
	}
	for _, child := range s.deps.children {
		if _, ok := child.(*prevNode); ok {
			return nil
		}
	}
	rb, err := ev.Eval(s.right)
	if err != nil {
		return err
	}
	if rb.Len() != len(s.live) {
		return fmt.Errorf("core: %q: %d live entries, ⟦ψ⟧ has %d rows", s.node.String(), len(s.live), rb.Len())
	}
	for _, e := range s.live {
		if !rb.ContainsKey(e.key) {
			return fmt.Errorf("core: %q: live entry %s is not in ⟦ψ⟧", s.node.String(), e.key)
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
