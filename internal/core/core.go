// Package core implements the paper's contribution: incremental checking
// of real-time (metric past-temporal) integrity constraints using
// bounded history encoding.
//
// The checker never stores the history. Instead, for every temporal
// subformula of every installed constraint it maintains a small
// auxiliary relation (see aux.go) that is updated once per committed
// transaction; the constraint's denial is then evaluated against the
// current state with temporal subformulas answered from the auxiliary
// relations. Space is bounded by the constraints' metric windows and the
// data that flowed through the database — independent of history length
// — and so is per-transaction checking time.
//
// A commit runs as an explicit four-phase pipeline, on the committing
// goroutine:
//
//	apply   — validate and apply the transaction to the current state
//	update  — phase A of every auxiliary node, in registration order
//	check   — evaluate every constraint's denial in the new state
//	carry   — phase B: compute then commit next-state carry-over
package core

import (
	"fmt"
	"time"

	"rtic/internal/check"
	"rtic/internal/fol"
	"rtic/internal/mono"
	"rtic/internal/mtl"
	"rtic/internal/obs"
	"rtic/internal/plan"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
)

// Checker is the incremental bounded-history checker.
type Checker struct {
	schema *schema.Schema
	// relNames are the schema's relations, sorted: the order a snapshot
	// writes them in.
	relNames    []string
	cur         *storage.State
	constraints []*check.Constraint
	conNames    map[string]struct{}

	nodes  []auxNode // registration order (children before parents)
	byNode map[mtl.Formula]auxNode
	// byShape dedups structurally identical temporal subformulas across
	// constraints: one auxiliary node serves every occurrence with the
	// same canonical form (the form includes variable names and
	// intervals, so equal shape means equal semantics).
	byShape map[string]auxNode
	// families files every once/since family other windows may join under
	// its shareKey.
	families map[string]*sinceFamily

	// conStates holds the per-constraint planning state, parallel to
	// constraints; delta holds the reusable per-relation net-delta slots;
	// lastSkips records what the last commit did per constraint; sc is
	// the commit's context, reset by every step (the phases take its
	// address, so a fresh one per step would escape to the heap).
	conStates []*conState
	delta     map[string]*relDelta
	lastSkips []SkipInfo
	sc        stepCtx
	// out is the violations slice Step returns, reused by the next Step.
	out []check.Violation
	// denials are the check phase's units of work, in the order of their
	// first constraints; denialKeys files those other denials may join
	// under their denialKey.
	denials    []*denialFamily
	denialKeys map[string]*denialFamily

	index   int
	now     uint64
	started bool

	pruningDisabled bool

	// snap is the buffer SaveSnapshot encodes into, snapIdx its map from a
	// once/since entry's slot to its place in its table's record; both
	// kept from save to save.
	snap    []byte
	snapIdx []int32

	obs *obs.Observer
	// conMetrics caches the per-constraint metric handles (violation
	// counter, check-latency histogram), parallel to constraints, so the
	// commit path never does a labelled lookup.
	conMetrics []conMetrics
	// phaseHist caches the per-phase commit histograms
	// (rtic_step_phase_seconds), so phase accounting never does a
	// labelled lookup either. All nil when no metrics are attached.
	phaseHist [numPhases]*obs.Histogram
}

// Pipeline phase indices and their metric label values.
const (
	phaseApply = iota
	phaseUpdate
	phaseCheck
	phaseCarry
	numPhases
)

var phaseNames = [numPhases]string{"apply", "update", "check", "carry"}

type conMetrics struct {
	violations *obs.Counter
	seconds    *obs.Histogram
}

// Option configures a Checker at construction time.
type Option func(*Checker)

// conState is the per-constraint planning state: the compiled denial
// plan with its seed sources, the read-set index the skip decision
// consults, the previous commit's denial answer for reuse and
// retesting, and the denial family the constraint is checked in.
type conState struct {
	seeded
	// readRels are the delta slots of the relations of the denial's
	// first-order skeleton; nodes the auxiliary nodes of its outermost
	// temporal subformulas; together they form the constraint's read set.
	readRels []*relDelta
	nodes    []auxNode
	// cols places the constraint's variables in the answer's rows (nil:
	// in order, see check.Constraint.Columns).
	cols []int
	// ans is the denial's answer as of the last commit that checked it,
	// checked whether one has. A commit changes ans in place, so what a
	// violation reads out of it is valid until the next commit.
	ans     *fol.Bindings
	checked bool
	family  *denialFamily
	// vary is the window of the conjunct that sets the denial apart in its
	// family, nil when no other denial can join it.
	vary *sinceNode
	// lost is seedFamily's scratch.
	lost []tuple.Tuple
	// source is the constraint's canonical text, as a snapshot writes it.
	source string
}

// WithParallelism returns an Option that does nothing: the commit
// pipeline has one width. It survives only because the frozen
// benchmark/ladder.go names it; delete it in the next benchmark PR.
func WithParallelism(int) Option { return func(*Checker) {} }

// New returns an empty checker over s. Install constraints with
// AddConstraint before the first Step.
func New(s *schema.Schema, opts ...Option) *Checker {
	c := &Checker{
		schema:   s,
		relNames: s.Names(),
		cur:      storage.NewState(s),
		conNames: make(map[string]struct{}),
		byNode:   make(map[mtl.Formula]auxNode),
		byShape:  make(map[string]auxNode),
		families: make(map[string]*sinceFamily),
		delta:    make(map[string]*relDelta),

		denialKeys: make(map[string]*denialFamily),
	}
	for _, name := range c.relNames {
		c.delta[name] = &relDelta{}
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// DisablePruning turns off the window-pruning rules — the ablation knob
// of the space experiments. Answers are unaffected (stale timestamps
// simply never satisfy the window test) but auxiliary storage grows
// with history length instead of staying bounded. Must be called before
// constraints are added.
func (c *Checker) DisablePruning() error {
	if len(c.nodes) > 0 || c.started {
		return fmt.Errorf("core: DisablePruning must be called before constraints are added")
	}
	c.pruningDisabled = true
	return nil
}

// AddConstraint installs a compiled constraint: it compiles the denial
// to a query plan, builds auxiliary nodes, each with the plans of its
// own operands, for its temporal subformulas, and files the denial in
// its denial family. A formula the planner cannot range-restrict is
// refused here — the engine has no second evaluator to hand it to.
// Constraints must be installed before the first transaction: the
// encoding summarizes the history from its beginning.
func (c *Checker) AddConstraint(con *check.Constraint) error {
	if c.started {
		return fmt.Errorf("core: constraint %q added after the history started; the auxiliary encoding would miss past states", con.Name)
	}
	if _, dup := c.conNames[con.Name]; dup {
		return fmt.Errorf("core: duplicate constraint %q", con.Name)
	}
	p, err := plan.Compile(con.Denial, c.cur, nil)
	if err != nil {
		return err
	}
	// check.Compile has the denial bind every constraint variable unless it
	// is identically false, and then it never answers.
	cols, err := con.Columns(p.Vars())
	if f, ok := con.Denial.(mtl.Truth); err != nil && (!ok || f.Bool) {
		return err
	}
	if err := c.compile(con.Denial); err != nil {
		return err
	}
	c.constraints = append(c.constraints, con)
	c.conNames[con.Name] = struct{}{}
	c.conStates = append(c.conStates, &conState{
		ans:      fol.NewBindings(p.Vars()),
		seeded:   c.seedsOf(p),
		readRels: c.skeletonDeltas(con.Denial),
		nodes:    c.directNodes(con.Denial),
		cols:     cols,
		source:   con.Formula.String(),
	})
	c.joinFamily(len(c.constraints) - 1)
	c.syncConMetrics()
	return nil
}

// SetObserver attaches (or detaches, with nil) the instrumentation
// sinks. Safe to call at any time between commits; pre-registers the
// per-constraint series so a scrape shows every constraint at zero.
func (c *Checker) SetObserver(o *obs.Observer) {
	c.obs = o
	c.conMetrics = nil
	c.syncConMetrics()
	c.phaseHist = [numPhases]*obs.Histogram{}
	if m := o.MetricSink(); m != nil {
		for i, name := range phaseNames {
			c.phaseHist[i] = m.StepPhaseSeconds.With(name)
		}
	}
}

// syncConMetrics extends the cached per-constraint handles to cover
// every installed constraint.
func (c *Checker) syncConMetrics() {
	m := c.obs.MetricSink()
	if m == nil {
		return
	}
	for i := len(c.conMetrics); i < len(c.constraints); i++ {
		name := c.constraints[i].Name
		c.conMetrics = append(c.conMetrics, conMetrics{
			violations: m.Violations.With(name),
			seconds:    m.ConstraintSeconds.With(name),
		})
	}
}

// compile walks the denial bottom-up and allocates one auxiliary node
// per temporal subformula occurrence.
func (c *Checker) compile(f mtl.Formula) error {
	switch n := f.(type) {
	case mtl.Truth, *mtl.Cmp:
		return nil
	case *mtl.Atom:
		return nil
	case *mtl.Not:
		return c.compile(n.F)
	case *mtl.And:
		if err := c.compile(n.L); err != nil {
			return err
		}
		return c.compile(n.R)
	case *mtl.Or:
		if err := c.compile(n.L); err != nil {
			return err
		}
		return c.compile(n.R)
	case *mtl.Exists:
		return c.compile(n.F)
	case *mtl.Prev:
		if err := c.compile(n.F); err != nil {
			return err
		}
		return c.register(n, newPrevNode(n))
	case *mtl.Once:
		if err := c.compile(n.F); err != nil {
			return err
		}
		node, err := newOnceNode(n, c.pruningDisabled)
		if err != nil {
			return err
		}
		return c.register(n, node)
	case *mtl.Since:
		if err := c.compile(n.L); err != nil {
			return err
		}
		if err := c.compile(n.R); err != nil {
			return err
		}
		node, err := newSinceNode(n, c.pruningDisabled)
		if err != nil {
			return err
		}
		return c.register(n, node)
	default:
		return fmt.Errorf("core: compile: non-kernel node %T (%q)", f, f.String())
	}
}

func (c *Checker) register(f mtl.Formula, node auxNode) error {
	if _, ok := c.byNode[f]; ok {
		return nil
	}
	shape := f.String()
	if existing, ok := c.byShape[shape]; ok {
		// Alias this occurrence to the shared node; it is updated once
		// per transaction and answers for every occurrence.
		c.byNode[f] = existing
		return nil
	}
	if err := c.bindNode(node); err != nil {
		return err
	}
	c.byShape[shape] = node
	c.byNode[f] = node
	c.nodes = append(c.nodes, node)
	return nil
}

// bindNode derives a new node's read set and compiles its operands to
// query plans: φ of a prev and ψ of a once/since enumerate, the chain φ
// of a since is tested per binding and so takes its variables as plan
// inputs. Children are registered before parents, so directNodes
// resolves every child.
func (c *Checker) bindNode(node auxNode) error {
	var err error
	switch n := node.(type) {
	case *prevNode:
		n.deps = nodeDeps{
			srcRels:  c.skeletonDeltas(n.n.F),
			children: c.directNodes(n.n.F),
		}
		n.fPlan, err = plan.Compile(n.n.F, c.cur, nil)
	case *sinceNode:
		err = c.bindSince(n)
	}
	return err
}

// stepInstr carries one commit's instrumentation (its obs.CommitScope)
// through the pipeline phases: the metric set plus the commit span under
// construction. A nil *stepInstr is the fully disabled path.
type stepInstr struct {
	c      *Checker
	m      *obs.Metrics
	span   *obs.Span // commit span; phases append children. May be nil.
	detail bool      // the sink wants node.update / constraint.check children
	// at is where the next phase starts: the commit's start, then the end
	// of each phase closed. Phases are timed back to back, so no instant
	// of the commit — a preemption included — falls between two of them.
	at time.Time
}

// detailUnder returns phase span ps as the parent of detail children,
// nil when the sink did not ask for them.
func (si *stepInstr) detailUnder(ps *obs.Span) *obs.Span {
	if si == nil || !si.detail {
		return nil
	}
	return ps
}

// phaseScope times one pipeline phase: a histogram observation plus a
// child span. It starts where the previous phase ended. The zero scope
// (from a nil or metric-less stepInstr) is a no-op.
type phaseScope struct {
	si    *stepInstr
	idx   int
	span  *obs.Span
	start time.Time
}

// phase opens a scope for the given pipeline phase.
func (si *stepInstr) phase(idx int, name string) phaseScope {
	if si == nil || (si.c.phaseHist[idx] == nil && si.span == nil) {
		return phaseScope{}
	}
	ps := phaseScope{si: si, idx: idx, start: si.at}
	if si.span != nil {
		ps.span = si.span.Child(name, "")
	}
	return ps
}

// done closes the scope, attributing the elapsed time to the phase; the
// next phase starts where this one ends.
func (ps phaseScope) done(ops int, err error) {
	if ps.si == nil {
		return
	}
	end := mono.Now()
	d := end.Sub(ps.start)
	ps.si.at = end
	if h := ps.si.c.phaseHist[ps.idx]; h != nil {
		h.Observe(d.Seconds())
	}
	if ps.span != nil {
		ps.span.Dur = d
		ps.span.Ops = ops
		ps.span.Err = err
	}
}

// Step commits a transaction at time t, updates every auxiliary node,
// and checks every constraint in the resulting state. With an observer
// attached it also records commit/phase/constraint timing, violation
// counts and auxiliary-storage gauges, and hands a completed commit span
// tree to the span sink; without one the instrumentation path is a few
// nil checks.
func (c *Checker) Step(t uint64, tx *storage.Transaction) ([]check.Violation, error) {
	cs := c.obs.BeginCommit(t, tx.Len())
	if cs.Idle() {
		return c.step(t, tx, nil)
	}
	si := &stepInstr{c: c, m: cs.Metrics, span: cs.Span, detail: cs.Detail, at: cs.Start()}
	vs, err := c.step(t, tx, si)
	end := si.at
	if err != nil {
		end = mono.Now() // the failing phase, if any ran, ended at si.at; the commit ends with the error
	}
	if cs.EndAt(err, end) {
		c.publishAuxGauges(cs.Metrics)
	}
	return vs, err
}

// publishAuxGauges republishes the storage gauges from the nodes'
// running accounts: a few integer adds per node, no entry walked and
// nothing allocated, so every observed commit can afford it.
//
//rtic:noalloc
func (c *Checker) publishAuxGauges(m *obs.Metrics) {
	st := c.Totals()
	m.AuxNodes.Set(int64(st.Nodes))
	m.AuxEntries.Set(int64(st.Entries))
	m.AuxTimestamps.Set(int64(st.Timestamps))
	m.AuxBytes.Set(int64(st.Bytes))
}

// step runs the four-phase commit pipeline for one transaction,
// attributing each phase's time through si (nil = uninstrumented).
func (c *Checker) step(t uint64, tx *storage.Transaction, si *stepInstr) ([]check.Violation, error) {
	if c.started && t <= c.now {
		return nil, fmt.Errorf("core: non-increasing timestamp %d after %d", t, c.now)
	}
	sc := &c.sc
	*sc = stepCtx{c: c, t: t, orc: oracle{c: c, now: t}}
	ps := si.phase(phaseApply, obs.SpanApply)
	err := c.applyPhase(tx)
	ps.done(tx.Len(), err)
	if err != nil {
		return nil, err
	}

	ps = si.phase(phaseUpdate, obs.SpanUpdate)
	err = c.updatePhase(sc, si, ps.span)
	ps.done(len(c.nodes), err)
	if err != nil {
		return nil, err
	}
	ps = si.phase(phaseCheck, obs.SpanCheck)
	out, err := c.checkPhase(sc, si, ps.span)
	ps.done(len(c.constraints), err)
	if err != nil {
		return nil, err
	}
	ps = si.phase(phaseCarry, obs.SpanCarry)
	err = c.carryPhase(sc)
	ps.done(len(c.nodes), err)
	if err != nil {
		return nil, err
	}

	c.index++
	c.now = t
	c.started = true
	return out, nil
}

// applyPhase validates the transaction, computes its net delta against
// the pre-state, and applies it to the current state. The delta points
// into the transaction and the state copies rows into its relations'
// slabs, so once they have grown to the feed's high-water mark the
// phase allocates nothing.
//
//rtic:noalloc
func (c *Checker) applyPhase(tx *storage.Transaction) error {
	if err := tx.Validate(c.schema); err != nil {
		return err
	}
	if err := c.computeDelta(tx); err != nil {
		return err
	}
	return c.cur.Apply(tx)
}

// updatePhase brings every auxiliary node's answer up to the new state,
// in registration order: compile registers every node after its temporal
// operands, so children update before their parents. A once/since family
// updates in whichever of its members runs first (see sinceNode.phaseA).
// span is the update phase span (nil when untraced); node.update children
// go under it when the sink asked for detail.
func (c *Checker) updatePhase(sc *stepCtx, si *stepInstr, span *obs.Span) error {
	return runNodes(sc, c.nodes, false, si.detailUnder(span))
}

// carryPhase computes the carry-over state for the next transition
// (all computations first, so nodes keep answering for this state),
// then commits it.
func (c *Checker) carryPhase(sc *stepCtx) error {
	if err := runNodes(sc, c.nodes, true, nil); err != nil {
		return err
	}
	for _, node := range c.nodes {
		node.phaseBCommit(sc.t)
	}
	return nil
}

// runNode drives node through one phase: phase A (update), or with
// carry set the compute half of phase B.
func (sc *stepCtx) runNode(node auxNode, carry bool) error {
	if carry {
		return node.phaseBCompute(sc, sc.t)
	}
	return node.phaseA(sc, sc.t)
}

// runNodes drives nodes through one phase, in order: phase A
// (update), or with carry set the compute half of phase B. detail, when
// set, receives a node.update span per node. The dispatch itself
// allocates nothing (what the nodes allocate behind the auxNode
// interface is their own account: new entries, answer deltas).
//
//rtic:noalloc
func runNodes(sc *stepCtx, nodes []auxNode, carry bool, detail *obs.Span) error {
	for _, node := range nodes {
		if detail == nil {
			if err := sc.runNode(node, carry); err != nil {
				return err
			}
			continue
		}
		//rtic:allocok a node.update span renders the formula; off unless the span sink asked for detail
		if err := sc.spanNode(node, detail); err != nil {
			return err
		}
	}
	return nil
}

// spanNode is a node's phase-A update wrapped in a node.update span
// under parent.
func (sc *stepCtx) spanNode(node auxNode, parent *obs.Span) error {
	sp := parent.Child(obs.SpanNodeUpdate, node.formula().String())
	err := sc.runNode(node, false)
	sp.End()
	sp.Err = err
	return err
}

// checkSampleEvery is the stride of the per-constraint latency series:
// checks are timed on one commit in this many (keyed on the commit index,
// so every constraint is sampled on the same commits). Two clock reads
// and a histogram observation per constraint per commit cost a wide
// policy set a fifth of its step; the phase and commit histograms, which
// time every commit, carry the totals.
const checkSampleEvery = 16

// checkPhase evaluates every constraint's denial against the new state,
// once per denial family. Violations are then read off each constraint's
// answer in installation order, and per-constraint metrics and
// constraint.check spans are emitted in that same order. Violation
// counts are exact; check latency is observed on sampled commits only,
// and on every commit for a span sink that asked for detail, which gets
// each check as a child of the phase span. A constraint's latency is its
// family's: the one run that answered it.
func (c *Checker) checkPhase(sc *stepCtx, si *stepInstr, span *obs.Span) ([]check.Violation, error) {
	n := len(c.constraints)
	if n == 0 {
		return nil, nil
	}
	if len(c.lastSkips) != n {
		c.lastSkips = make([]SkipInfo, n)
		for i, con := range c.constraints {
			c.lastSkips[i].Constraint = con.Name
		}
	}
	var m *obs.Metrics
	if si != nil {
		m = si.m
	}
	detail := si.detailUnder(span)
	sampled := m != nil && c.index%checkSampleEvery == 0
	if err := c.runFamilies(sc, sampled || detail != nil); err != nil {
		return nil, err
	}
	out := c.out[:0]
	for i, con := range c.constraints {
		cs := c.conStates[i]
		found := len(out)
		out = check.AppendViolations(out, con, cs.cols, c.index, sc.t, cs.ans)
		found = len(out) - found
		df := cs.family
		if m != nil && i < len(c.conMetrics) {
			if sampled {
				c.conMetrics[i].seconds.Observe(df.dur.Seconds())
			}
			if found > 0 {
				c.conMetrics[i].violations.Add(uint64(found))
			}
		}
		if detail != nil {
			detail.Children = append(detail.Children, &obs.Span{
				Name: obs.SpanConstraintCheck, Detail: con.Name,
				Time: sc.t, Start: df.start, Dur: df.dur,
			})
		}
	}
	c.out = out
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// runFamilies checks every denial family in family order, stopping at
// the first error; with timed set each family records when it ran and
// for how long. Every answer changes in place, in its own slab, so the
// loop allocates nothing once the answers have grown to their
// high-water marks.
//
//rtic:noalloc
func (c *Checker) runFamilies(sc *stepCtx, timed bool) error {
	for _, df := range c.denials {
		if timed {
			df.start = mono.Now()
		}
		err := c.checkFamily(sc, df)
		if timed {
			df.dur = time.Since(df.start)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// decide records in lastSkips what constraint i needs this commit: the
// cheapest sound strategy, as a checker holding it alone picks it from
// its own read set — reuse the previous answer when the commit touched
// nothing the denial reads, re-derive semi-naively from the delta when
// every changed source has exact row-level changes, otherwise run the
// compiled plan in full.
func (c *Checker) decide(i int) {
	cs := c.conStates[i]
	si := &c.lastSkips[i]
	clean := !anyChanged(cs.readRels) && !anyDirty(cs.nodes)
	switch {
	case clean && cs.checked:
		si.Action, si.Reason = ActionSkipped, "read set untouched"
	case cs.canSeed && cs.checked && !cs.inexactDirty():
		if cs.ans.Empty() && !cs.moved(true) {
			// Nothing to retest, and no changed source has rows in the
			// direction that could complete a derivation.
			si.Action, si.Reason = ActionSkipped, "delta cannot add an answer"
		} else {
			si.Action, si.Reason = ActionSeeded, "re-derived from delta"
		}
	default:
		si.Action, si.Reason = ActionPlanned, fullEvalReason(cs)
	}
}

// fullEvalReason explains why a planned constraint ran in full.
func fullEvalReason(cs *conState) string {
	switch {
	case !cs.checked:
		return "no previous answer"
	case !cs.canSeed:
		return "plan not seedable"
	default:
		return "inexact source delta"
	}
}

// running reports whether constraint i's answer is re-derived this commit.
func (c *Checker) running(i int) bool { return c.lastSkips[i].Action != ActionSkipped }

// State returns the current database state; callers must not mutate it.
func (c *Checker) State() (*storage.State, error) { return c.cur, nil }

// Len reports the number of committed states.
func (c *Checker) Len() int { return c.index }

// ConstraintNames returns the installed constraint names in order.
func (c *Checker) ConstraintNames() []string {
	out := make([]string, len(c.constraints))
	for i, con := range c.constraints {
		out[i] = con.Name
	}
	return out
}

// Constraints returns the installed constraints in order — what a
// restored shard router re-derives its partition plan from. Callers
// must not mutate the slice.
func (c *Checker) Constraints() []*check.Constraint { return c.constraints }

// Now returns the timestamp of the latest state.
func (c *Checker) Now() uint64 { return c.now }

// Stats summarizes the auxiliary storage — the space side of the
// paper's claim (compare with the naive checker's HistoryBytes).
type Stats struct {
	Nodes      int
	Entries    int
	Timestamps int
	Bytes      int
	PerNode    []NodeStats
}

// Stats reports the current auxiliary storage of the checker.
func (c *Checker) Stats() Stats {
	s := Stats{Nodes: len(c.nodes)}
	for _, n := range c.nodes {
		ns := n.stats()
		s.Entries += ns.Entries
		s.Timestamps += ns.Timestamps
		s.Bytes += ns.Bytes
		s.PerNode = append(s.PerNode, ns)
	}
	return s
}

// Totals reports the sums of Stats from the nodes' running accounts: a
// few integer adds per node, no entry walked and nothing allocated.
// PerNode is nil.
//
//rtic:noalloc
func (c *Checker) Totals() Stats {
	s := Stats{Nodes: len(c.nodes)}
	for _, n := range c.nodes {
		entries, timestamps, bytes := n.account()
		s.Entries += entries
		s.Timestamps += timestamps
		s.Bytes += bytes
	}
	return s
}

// Work counts what the checker has done since it was built: Visited is
// the entries its once/since families' updates resolved, PlanExecs the
// plan executions its denial families ran (full runs, retested rows,
// seeded derivations). The differences across a run of commits are the
// per-commit work the delta-driven update and the denial families bound.
type Work struct {
	Visited   int
	PlanExecs int
}

// Work reads the checker's work counters: a few integer adds per node
// and family, nothing allocated.
//
//rtic:noalloc
func (c *Checker) Work() Work {
	var w Work
	for _, n := range c.nodes {
		if s, ok := n.(*sinceNode); ok && s.idx == 0 {
			w.Visited += s.fam.visited
		}
	}
	for _, df := range c.denials {
		w.PlanExecs += df.execs
	}
	return w
}

// CheckInvariants verifies the internal invariants of every once/since
// family (sorted, deduplicated timestamp sets inside the widest window;
// every member's answer equal to the table read through its window;
// every anchor a reader still waits for ahead of its cursor; the live
// entries equal to ⟦ψ⟧ re-enumerated) and that each node's running
// storage account equals its full walk; used by tests.
func (c *Checker) CheckInvariants() error {
	for _, n := range c.nodes {
		ns := n.stats()
		if e, ts, b := n.account(); e != ns.Entries || ts != ns.Timestamps || b != ns.Bytes {
			return fmt.Errorf("core: %q: running account entries=%d timestamps=%d bytes=%d, storage walk finds %d/%d/%d",
				ns.Formula, e, ts, b, ns.Entries, ns.Timestamps, ns.Bytes)
		}
	}
	if !c.started {
		return nil
	}
	orc := oracle{c: c, now: c.now}
	ev := fol.NewEvaluator(c.cur, &orc)
	for _, n := range c.nodes {
		if s, ok := n.(*sinceNode); ok && s.idx == 0 {
			if err := s.fam.invariants(c.now, ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// oracle resolves temporal nodes from the auxiliary state at the
// current evaluation time.
type oracle struct {
	c   *Checker
	now uint64
}

func (o *oracle) lookup(f mtl.Formula) (auxNode, error) {
	node, ok := o.c.byNode[f]
	if !ok {
		return nil, fmt.Errorf("core: no auxiliary state for temporal node %q; was the constraint compiled?", f.String())
	}
	return node, nil
}

func (o *oracle) Enumerate(f mtl.Formula) (*fol.Bindings, error) {
	node, err := o.lookup(f)
	if err != nil {
		return nil, err
	}
	return node.enumerate(o.now)
}

func (o *oracle) Test(f mtl.Formula, env fol.Env) (bool, error) {
	node, err := o.lookup(f)
	if err != nil {
		return false, err
	}
	return node.test(env, o.now)
}

// TestKey probes a temporal node's answer by encoded row key without
// materializing an Env — the plan executor's probe (plan.Oracle).
func (o *oracle) TestKey(f mtl.Formula, key []byte) (bool, error) {
	node, err := o.lookup(f)
	if err != nil {
		return false, err
	}
	return node.testKey(key, o.now)
}
