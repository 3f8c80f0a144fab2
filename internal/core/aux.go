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
	phaseA(sc *stepCtx, ev *lazyEval, t uint64) error
	phaseBCompute(sc *stepCtx, ev *lazyEval, t uint64) error
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
// relations its formulas read directly, its child nodes, and whether the
// refresh fast path is sound for it (no universal quantification — see
// domainDependent). srcPlan holds the compiled query plan of the node's
// update formula when its shape is plannable; nil falls back to the
// tree-walking evaluator.
type nodeDeps struct {
	srcRels  []string
	children []auxNode
	domDep   bool
}

// clean reports whether nothing the node reads changed in this commit.
func (d *nodeDeps) clean(sc *stepCtx) bool {
	return sc != nil && sc.planned && !d.domDep &&
		!sc.relsChanged(d.srcRels) && !anyDirty(d.children)
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
func (p *prevNode) phaseA(sc *stepCtx, ev *lazyEval, t uint64) error {
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

func (p *prevNode) phaseBCompute(sc *stepCtx, ev *lazyEval, t uint64) error {
	// Refresh fast path: when nothing φ reads changed in this commit,
	// φ's enumeration in the new state equals the stored one — alias it
	// (bindings are immutable once published).
	if p.has && p.deps.clean(sc) {
		p.pending, p.pendingTime = p.stored, t
		return nil
	}
	var b *fol.Bindings
	var err error
	if p.fPlan != nil && sc != nil && sc.planned {
		b, err = p.fPlan.Eval(sc.c.cur, &sc.orc, nil)
	} else {
		b, err = ev.get().Eval(p.n.F)
		if err == nil {
			// The evaluator may hand back a child node's maintained
			// answer (φ a bare temporal subformula); that set mutates in
			// place on later commits, so snapshot before retaining.
			b = b.Clone()
		}
	}
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
// held with the chain φ unbroken since, pruned to the metric window
// (a single timestamp suffices when the window is unbounded above).
// inRB and keep cache the entry's last evaluated recurrence inputs
// (row ∈ ⟦ψ⟧? and θ ⊨ φ?) so commits that touch nothing the node reads
// can replay the recurrence without re-evaluating either formula.
type sinceEntry struct {
	row   tuple.Tuple
	times []uint64 // ascending
	inRB  bool
	keep  bool
	stamp uint64 // t+1 of the commit that created the entry
}

// sinceNode implements φ S_I ψ (and once_I ψ, with φ = true) via the
// recurrence S_i(θ) = (i ⊨θ φ ? S_{i−1}(θ) : ∅) ∪ (i ⊨θ ψ ? {t_i} : ∅).
type sinceNode struct {
	node  mtl.Formula // *mtl.Once or *mtl.Since
	iv    mtl.Interval
	left  mtl.Formula // Truth{true} for once
	right mtl.Formula
	vars  []string // fv(node), sorted; equals fv(right) by safety
	lvars []string

	deps      nodeDeps
	rightPlan *plan.Plan

	// noPrune disables the bounded-encoding pruning rules (the space
	// ablation); answers are unchanged, storage grows with history.
	noPrune bool

	entries map[string]*sinceEntry
	// nTimes and fixedBytes are the running storage account: timestamps
	// held across all entries, and the entries' footprint apart from
	// their timestamps (entryFixedBytes, constant while an entry lives).
	// Every site that adds or drops an entry or a timestamp keeps them.
	nTimes     int
	fixedBytes int

	// The maintained answer: ans holds exactly the rows satisfied at
	// lastT (valid once primed), added/removed the rows that entered and
	// left it in the last commit. envBuf and keyBuf are single-goroutine
	// scratch (one goroutine updates a node per commit).
	ans     *fol.Bindings
	lastT   uint64
	primed  bool
	dirtied bool
	added   []tuple.Tuple
	removed []tuple.Tuple
	envBuf  fol.Env
	keyBuf  []byte
}

func newOnceNode(n *mtl.Once) (*sinceNode, error) {
	return newSinceLike(n, n.I, mtl.Truth{Bool: true}, n.F)
}

func newSinceNode(n *mtl.Since) (*sinceNode, error) {
	return newSinceLike(n, n.I, n.L, n.R)
}

func newSinceLike(node mtl.Formula, iv mtl.Interval, left, right mtl.Formula) (*sinceNode, error) {
	vars := mtl.FreeVars(node)
	rvars := mtl.FreeVars(right)
	if len(vars) != len(rvars) {
		return nil, fmt.Errorf("core: %q: binding space must be generated by the right-hand side (fv %v vs %v)",
			node.String(), vars, rvars)
	}
	for _, lv := range mtl.FreeVars(left) {
		if i := sort.SearchStrings(vars, lv); i >= len(vars) || vars[i] != lv {
			return nil, fmt.Errorf("core: %q: left-hand variable %q not bound by the right-hand side",
				node.String(), lv)
		}
	}
	return &sinceNode{
		node:    node,
		iv:      iv,
		left:    left,
		right:   right,
		vars:    vars,
		lvars:   mtl.FreeVars(left),
		entries: make(map[string]*sinceEntry),
		ans:     fol.NewBindings(vars),
	}, nil
}

func (s *sinceNode) formula() mtl.Formula { return s.node }

func (s *sinceNode) isOnce() bool {
	t, ok := s.left.(mtl.Truth)
	return ok && t.Bool
}

func (s *sinceNode) phaseA(sc *stepCtx, ev *lazyEval, t uint64) error {
	s.added = s.added[:0]
	s.removed = s.removed[:0]

	// Refresh fast path: nothing the recurrence reads changed, so each
	// entry's cached inRB/keep inputs still hold — replay the recurrence
	// from the cache. Aging (times entering and leaving the metric
	// window) still runs, so answers stay exact.
	if s.primed && s.deps.clean(sc) {
		s.refresh(t)
		s.finish(t)
		return nil
	}

	for _, e := range s.entries {
		e.inRB = false
	}

	// Enumerate ⟦ψ⟧ in the new state: mark surviving entries, create
	// fresh anchors. The compiled plan streams rows without materializing
	// the binding set; the tree-walking evaluator is the fallback.
	newRow := func(row tuple.Tuple, key []byte) error {
		if e, ok := s.entries[string(key)]; ok {
			e.inRB = true
			return nil
		}
		e := &sinceEntry{row: row.Clone(), times: []uint64{t}, inRB: true, keep: true, stamp: t + 1}
		s.insert(string(key), e)
		if s.iv.Contains(0) {
			if err := s.ans.AddRow(e.row); err != nil {
				return err
			}
			s.added = append(s.added, e.row)
		}
		return nil
	}
	if s.rightPlan != nil && sc != nil && sc.planned {
		var emitErr error
		err := s.rightPlan.Execute(sc.c.cur, &sc.orc, nil, func(row tuple.Tuple) bool {
			s.keyBuf = row.AppendKeyTo(s.keyBuf[:0])
			if e := newRow(row, s.keyBuf); e != nil {
				emitErr = e
				return false
			}
			return true
		})
		if err == nil {
			err = emitErr
		}
		if err != nil {
			return fmt.Errorf("core: %q: %w", s.node.String(), err)
		}
	} else {
		rb, err := ev.get().Eval(s.right)
		if err != nil {
			return fmt.Errorf("core: %q: %w", s.node.String(), err)
		}
		if !sameStrings(rb.Vars(), s.vars) {
			return fmt.Errorf("core: %q: right-hand side bound %v, node needs %v",
				s.node.String(), rb.Vars(), s.vars)
		}
		var rowErr error
		rb.EachRow(func(row tuple.Tuple) bool {
			s.keyBuf = row.AppendKeyTo(s.keyBuf[:0])
			if e := newRow(row, s.keyBuf); e != nil {
				rowErr = e
				return false
			}
			return true
		})
		if rowErr != nil {
			return rowErr
		}
	}

	// Update surviving entries per the recurrence, re-evaluating the
	// chain φ, and maintain the answer set.
	once := s.isOnce()
	lPos := varPositions(s.vars, s.lvars)
	if s.envBuf == nil {
		s.envBuf = make(fol.Env, len(s.lvars)+1)
	}
	var chain *fol.Evaluator
	if !once && len(s.entries) > 0 {
		chain = ev.get()
	}
	for key, e := range s.entries {
		keep := once
		if !once {
			for i, p := range lPos {
				s.envBuf[s.lvars[i]] = e.row[p]
			}
			ok, err := chain.Test(s.left, s.envBuf)
			if err != nil {
				return fmt.Errorf("core: %q: testing chain: %w", s.node.String(), err)
			}
			keep = ok
		}
		// Cache the chain's truth for the refresh fast path — fresh
		// anchors included: their recurrence ignores φ this commit (times
		// is just {t}), but the next clean commit replays from the cache.
		e.keep = keep
		if e.stamp == t+1 {
			continue // created above; times already [t], answer updated
		}
		if err := s.applyRecurrence(key, e, keep, t); err != nil {
			return err
		}
	}
	s.finish(t)
	return nil
}

// applyRecurrence replays one entry's recurrence step from keep/inRB,
// prunes, deletes empty entries, and maintains the answer set.
func (s *sinceNode) applyRecurrence(key string, e *sinceEntry, keep bool, t uint64) error {
	before := s.ans.ContainsKey(key)
	held := len(e.times)
	if !keep {
		e.times = e.times[:0]
	}
	if e.inRB {
		e.times = append(e.times, t)
	}
	s.prune(e, t)
	after := len(e.times) > 0 && s.satisfied(e, t)
	s.nTimes += len(e.times) - held
	if len(e.times) == 0 {
		delete(s.entries, key)
		s.fixedBytes -= entryFixedBytes(key, e.row)
	}
	if before && !after {
		s.ans.RemoveKey(key)
		s.removed = append(s.removed, e.row)
	} else if !before && after {
		if err := s.ans.AddRow(e.row); err != nil {
			return err
		}
		s.added = append(s.added, e.row)
	}
	return nil
}

// refresh replays the recurrence for every entry from the cached
// inRB/keep flags — no formula evaluation, no fresh anchors (an
// unchanged ⟦ψ⟧ cannot contain a row without an entry: every ⟦ψ⟧ row is
// an entry with inRB set, and inRB entries always retain the current
// timestamp and so are never deleted).
func (s *sinceNode) refresh(t uint64) {
	once := s.isOnce()
	for key, e := range s.entries {
		// applyRecurrence cannot error here: it only errors on AddRow of
		// a stable entry row, whose arity matched when first added.
		_ = s.applyRecurrence(key, e, once || e.keep, t)
	}
}

// finish seals the commit: answers now served for time t.
func (s *sinceNode) finish(t uint64) {
	s.lastT = t
	s.primed = true
	s.dirtied = len(s.added)+len(s.removed) > 0
}

// prune enforces the bounded history encoding: timestamps older than the
// upper window bound can never re-enter the window; with an unbounded
// window, satisfaction is monotone in age so the earliest timestamp
// subsumes all others.
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

func (s *sinceNode) phaseBCompute(*stepCtx, *lazyEval, uint64) error { return nil }
func (s *sinceNode) phaseBCommit(uint64)                             {}

func (s *sinceNode) satisfied(e *sinceEntry, now uint64) bool {
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

// insert adds a new entry under its row key (the tuple.Key encoding of
// e.row) and opens its storage account.
func (s *sinceNode) insert(key string, e *sinceEntry) {
	s.entries[key] = e
	s.nTimes += len(e.times)
	s.fixedBytes += entryFixedBytes(key, e.row)
}

// entryFixedBytes estimates one entry's footprint apart from its
// timestamps: map key, row, and the entry and slice headers.
func entryFixedBytes(key string, row tuple.Tuple) int {
	return len(key) + row.Size() + 48
}

func (s *sinceNode) stats() NodeStats {
	st := NodeStats{Formula: s.node.String(), Entries: len(s.entries)}
	for key, e := range s.entries {
		st.Timestamps += len(e.times)
		st.Bytes += entryFixedBytes(key, e.row) + 8*len(e.times)
	}
	return st
}

func (s *sinceNode) account() (entries, timestamps, bytes int) {
	return len(s.entries), s.nTimes, s.fixedBytes + 8*s.nTimes
}

// Invariants returns an error if the node's internal invariants are
// broken; the property tests call it after every step.
func (s *sinceNode) invariants(now uint64) error {
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
	if s.noPrune {
		return nil // the ablation deliberately violates the space bounds
	}
	for key, e := range s.entries {
		if len(e.times) == 0 {
			return fmt.Errorf("core: %q: empty entry %s retained", s.node.String(), key)
		}
		for i := 1; i < len(e.times); i++ {
			if e.times[i-1] >= e.times[i] {
				return fmt.Errorf("core: %q: timestamps not strictly ascending: %v", s.node.String(), e.times)
			}
		}
		if s.iv.Unbounded && len(e.times) > 1 {
			return fmt.Errorf("core: %q: unbounded window kept %d timestamps", s.node.String(), len(e.times))
		}
		if !s.iv.Unbounded {
			for _, tm := range e.times {
				if now-tm > s.iv.Hi {
					return fmt.Errorf("core: %q: stale timestamp %d at now=%d (window %s)", s.node.String(), tm, now, s.iv.String())
				}
			}
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

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
