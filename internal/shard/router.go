package shard

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"time"

	"rtic/internal/active"
	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/naive"
	"rtic/internal/obs"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/value"
)

// Factory builds one shard's engine; the Router calls it N times at the
// first commit. Every engine must be built over the same schema and
// must start empty.
type Factory func() engine.Engine

// Router implements engine.Engine over N shard engines. Constraints
// are collected up front; the first Step seals the router: it builds
// the engines, installs each constraint according to the current Plan
// (partitionable constraints on every shard, the rest on the global
// shard), and from then on splits every transaction by the per-relation
// partition columns and commits the sub-transactions one shard after
// another on the committing goroutine: a sub-commit is tens of
// microseconds, less than the wake-up a goroutine per shard would cost
// (EXPERIMENTS.md, Table 9).
//
// Every shard steps at every commit timestamp — shards the split
// leaves empty receive an empty sub-transaction — so temporal window
// arithmetic agrees across shards and each shard's auxiliary state is
// exactly the unsharded state restricted to the keys it owns.
//
// Router is not safe for concurrent Steps (neither are the engines it
// fronts); the monitor serializes commits above it.
type Router struct {
	schema   *schema.Schema
	n        int
	factory  Factory
	obs      *obs.Observer
	perShard []shardMetrics // obs's per-shard series, by shard; nil without metrics

	cons  []*check.Constraint
	names map[string]bool
	plan  *Plan

	engines  []engine.Engine
	conIndex map[string]int
	started  bool
	now      uint64
	index    int
	broken   error // sticky: a shard failed mid-commit, state may have diverged
}

// New returns a router over shards engines built by factory. One shard
// is legal (and bit-identical to the engine the factory builds).
func New(s *schema.Schema, shards int, factory Factory) (*Router, error) {
	if s == nil {
		return nil, fmt.Errorf("shard: nil schema")
	}
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d, want at least 1", shards)
	}
	if factory == nil {
		return nil, fmt.Errorf("shard: nil engine factory")
	}
	plan, err := Analyze(s, nil)
	if err != nil {
		return nil, err
	}
	return &Router{schema: s, n: shards, factory: factory, names: make(map[string]bool), plan: plan}, nil
}

// ModeFactory returns the factory of an engine mode: the one place a
// mode name becomes a constructor, for the router's shards and for
// everything that lets a caller pick the engine (the public checker,
// the rtic CLI, the differential harness and the bench harness). The
// monitor runs the incremental checker only and does not go through it.
func ModeFactory(s *schema.Schema, mode engine.Mode) (Factory, error) {
	switch mode {
	case engine.Incremental:
		return func() engine.Engine { return core.New(s) }, nil
	case engine.Naive:
		return func() engine.Engine { return naive.New(s) }, nil
	case engine.ActiveRules:
		return func() engine.Engine { return active.New(s) }, nil
	default:
		return nil, fmt.Errorf("shard: unknown engine mode %v", mode)
	}
}

// NewMode is New over ModeFactory's engines.
func NewMode(s *schema.Schema, shards int, mode engine.Mode) (*Router, error) {
	factory, err := ModeFactory(s, mode)
	if err != nil {
		return nil, err
	}
	return New(s, shards, factory)
}

// Checker is the paper's checker as its front doors hold it — the
// public rtic.Checker, the monitor and the daemon: one bounded-history
// encoding, whole (*core.Checker) or partitioned by key across the
// shards of a Router. Beyond the engine contract it answers for its
// clock, its storage, its snapshot and its violations.
type Checker interface {
	engine.Engine
	Len() int
	Now() uint64
	Stats() core.Stats
	SaveSnapshot(io.Writer) error
	ConstraintNames() []string
	Explain(check.Violation) (*core.Explanation, error)
}

// Build is the one place a shard count becomes a shape: the factory's
// bare engine for shards <= 1, a Router over its engines otherwise.
// Over the incremental factory either shape is a Checker.
func Build(s *schema.Schema, shards int, factory Factory) (engine.Engine, error) {
	if shards <= 1 {
		return factory(), nil
	}
	return New(s, shards, factory)
}

// Shards returns the configured shard count.
func (r *Router) Shards() int { return r.n }

// Plan returns the current shard plan. It is recomputed at every
// AddConstraint and final once the first commit seals the router;
// callers must not mutate it.
func (r *Router) Plan() *Plan { return r.plan }

// AddConstraint validates con against a probe engine (so mode-specific
// rejections surface here, not at the first commit), re-runs the
// partitionability analysis over all installed constraints, and defers
// installation to the seal: a later constraint may still demote an
// earlier one or move a partition column.
func (r *Router) AddConstraint(con *check.Constraint) error {
	if r.engines != nil {
		return fmt.Errorf("shard: cannot add constraints after the first commit")
	}
	if con == nil {
		return fmt.Errorf("shard: nil constraint")
	}
	if r.names[con.Name] {
		return fmt.Errorf("shard: duplicate constraint %q", con.Name)
	}
	if err := r.factory().AddConstraint(con); err != nil {
		return err
	}
	plan, err := Analyze(r.schema, append(r.cons[:len(r.cons):len(r.cons)], con))
	if err != nil {
		return err
	}
	r.cons = append(r.cons, con)
	r.names[con.Name] = true
	r.plan = plan
	return nil
}

// shardMetrics is one shard's labelled series, resolved once so that a
// commit does not pay a label lookup per shard per series.
type shardMetrics struct {
	commits       *obs.Counter
	commitSeconds *obs.Histogram
	opsRouted     *obs.Counter
}

// SetObserver attaches (or detaches, with nil) instrumentation. The
// shard engines themselves stay unobserved — N engines reporting into
// the one engine section would double-count commits — the router
// records commit, violation and per-shard routing metrics itself.
func (r *Router) SetObserver(o *obs.Observer) {
	r.obs = o
	r.perShard = nil
	if m := o.MetricSink(); m != nil {
		m.Shards.Set(int64(r.n))
		r.syncPlanMetrics(m)
	}
}

// syncPlanMetrics republishes the plan-derived gauges, resolves the
// per-shard series the commit path updates, and pre-registers the
// per-constraint series, so a scrape shows them all at zero.
func (r *Router) syncPlanMetrics(m *obs.Metrics) {
	global := 0
	for _, cp := range r.plan.Cons {
		if !cp.Partitioned {
			global++
		}
	}
	m.ShardGlobalConstraints.Set(int64(global))
	r.perShard = make([]shardMetrics, r.n)
	for i := range r.perShard {
		label := strconv.Itoa(i)
		r.perShard[i] = shardMetrics{
			commits:       m.ShardCommits.With(label),
			commitSeconds: m.ShardCommitSeconds.With(label),
			opsRouted:     m.ShardOpsRouted.With(label),
		}
	}
	for _, con := range r.cons {
		m.Violations.With(con.Name)
	}
}

// seal builds the shard engines and installs the collected constraints
// according to the (now final) plan.
func (r *Router) seal() error {
	if r.engines != nil {
		return nil
	}
	engines := make([]engine.Engine, r.n)
	for i := range engines {
		engines[i] = r.factory()
		if engines[i] == nil {
			return fmt.Errorf("shard: factory returned a nil engine")
		}
	}
	for i, con := range r.cons {
		targets := engines[GlobalShard : GlobalShard+1]
		if r.plan.Cons[i].Partitioned {
			targets = engines
		}
		for _, e := range targets {
			if err := e.AddConstraint(con); err != nil {
				return fmt.Errorf("shard: installing %q: %w", con.Name, err)
			}
		}
	}
	r.adopt(engines)
	return nil
}

// adopt makes engines — freshly built by seal, or restored by
// LoadSnapshot — the router's shards and indexes the constraints they
// run for merge.
func (r *Router) adopt(engines []engine.Engine) {
	r.conIndex = make(map[string]int, len(r.cons))
	for i, con := range r.cons {
		r.conIndex[con.Name] = i
	}
	r.engines = engines
}

// ShardFor returns the shard owning tup in rel under the current plan.
// Tuples of unpartitioned relations, and tuples too short to carry
// their partition column, belong to the global shard.
func (r *Router) ShardFor(rel string, tup tuple.Tuple) int {
	p, ok := r.plan.Rels[rel]
	if !ok || !p.Partitioned || p.Column >= len(tup) {
		return GlobalShard
	}
	return shardOf(tup[p.Column], r.n)
}

// shardOf hashes one partition-key value onto [0, n).
func shardOf(v value.Value, n int) int {
	h := fnv.New64a()
	h.Write([]byte(v.Key()))
	return int(h.Sum64() % uint64(n))
}

// Split routes tx's operations into one sub-transaction per shard
// (empty ones included — every shard commits at every timestamp).
// Relative op order is preserved within each shard, which is enough:
// ops on the same tuple always land on the same shard.
func (r *Router) Split(tx *storage.Transaction) []*storage.Transaction {
	parts := make([]*storage.Transaction, r.n)
	for i := range parts {
		parts[i] = storage.NewTransaction()
	}
	if tx == nil {
		return parts
	}
	for _, op := range tx.Ops() {
		p := parts[r.ShardFor(op.Rel, op.Tuple)]
		if op.Insert {
			p.Insert(op.Rel, op.Tuple)
		} else {
			p.Delete(op.Rel, op.Tuple)
		}
	}
	return parts
}

// Step commits one transaction across the shards and merges their
// violation reports. Validation (schema, timestamp monotonicity)
// happens before any shard applies anything, so a rejected transaction
// leaves every shard untouched; an engine failure after that point
// latches the router broken, because the shards may have diverged.
func (r *Router) Step(t uint64, tx *storage.Transaction) ([]check.Violation, error) {
	ops := 0
	if tx != nil {
		ops = tx.Len()
	}
	cs := r.obs.BeginCommit(t, ops)
	if cs.Idle() {
		return r.step(t, tx, nil, nil)
	}
	vs, err := r.step(t, tx, cs.Metrics, cs.Span)
	if cs.End(err) {
		for _, v := range vs {
			cs.Metrics.Violations.With(v.Constraint).Inc()
		}
		r.publishAuxGauges(cs.Metrics)
	}
	return vs, err
}

func (r *Router) step(t uint64, tx *storage.Transaction, m *obs.Metrics, span *obs.Span) ([]check.Violation, error) {
	if r.broken != nil {
		return nil, fmt.Errorf("shard: router unusable after earlier shard failure: %w", r.broken)
	}
	if err := r.seal(); err != nil {
		return nil, err
	}

	var vs []check.Violation
	if r.n == 1 {
		// Degenerate case: the one engine sees the transaction untouched
		// (same op order, its own validation and error text) so a
		// one-shard router is bit-identical to the engine it wraps.
		var err error
		var sp *obs.Span
		vs, sp, _, err = r.stepOne(0, t, tx, m, span != nil)
		if span != nil && sp != nil {
			span.Children = append(span.Children, sp)
		}
		if err != nil {
			return nil, err
		}
		if m != nil && tx != nil && tx.Len() > 0 {
			r.perShard[0].opsRouted.Add(uint64(tx.Len()))
		}
	} else {
		// Validate before any shard applies anything: a rejected
		// transaction must leave every shard untouched.
		if r.started && t <= r.now {
			return nil, fmt.Errorf("core: non-increasing timestamp %d after %d", t, r.now)
		}
		if tx == nil {
			tx = storage.NewTransaction()
		}
		if err := tx.Validate(r.schema); err != nil {
			return nil, err
		}
		parts := r.Split(tx)
		if m != nil {
			for i, p := range parts {
				if n := len(p.Ops()); n > 0 {
					r.perShard[i].opsRouted.Add(uint64(n))
				}
			}
		}
		outs := make([][]check.Violation, r.n)
		durs := make([]time.Duration, r.n)
		for i := range r.engines {
			out, sp, d, err := r.stepOne(i, t, parts[i], m, span != nil)
			if sp != nil {
				span.Children = append(span.Children, sp)
			}
			if err != nil {
				r.broken = fmt.Errorf("shard %d: %w", i, err)
				return nil, r.broken
			}
			outs[i], durs[i] = out, d
		}
		if m != nil {
			if skew := shardSkew(durs); skew > 0 {
				m.ShardSkew.Set(skew)
			}
		}
		vs = r.merge(outs)
	}
	r.started = true
	r.now = t
	r.index++
	return vs, nil
}

// stepOne commits one shard's sub-transaction, timing it when observed.
// With wantSpan set it also returns a completed shard.commit span on
// lane i+1 for the caller to attach to the commit span.
func (r *Router) stepOne(i int, t uint64, tx *storage.Transaction, m *obs.Metrics, wantSpan bool) ([]check.Violation, *obs.Span, time.Duration, error) {
	if m == nil && !wantSpan {
		vs, err := r.engines[i].Step(t, tx)
		return vs, nil, 0, err
	}
	start := time.Now()
	vs, err := r.engines[i].Step(t, tx)
	d := time.Since(start)
	if m != nil && err == nil {
		r.perShard[i].commits.Inc()
		r.perShard[i].commitSeconds.Observe(d.Seconds())
	}
	var sp *obs.Span
	if wantSpan {
		ops := 0
		if tx != nil {
			ops = tx.Len()
		}
		sp = &obs.Span{
			Name: obs.SpanShardCommit, Detail: strconv.Itoa(i),
			Time: t, Track: i + 1, Start: start, Dur: d, Ops: ops, Err: err,
		}
	}
	return vs, sp, d, err
}

// shardSkew is the max/min ratio of per-shard sub-commit times — the
// load-balance figure behind rtic_shard_commit_skew. Zero (unset) when
// a duration rounded to zero.
func shardSkew(durs []time.Duration) float64 {
	min, max := time.Duration(-1), time.Duration(0)
	for _, d := range durs {
		if min < 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min <= 0 {
		return 0
	}
	return float64(max) / float64(min)
}

// merge flattens per-shard violation reports into one deterministic
// order: constraint installation order, then witness binding order. No
// deduplication is needed — a partitionable constraint's witness is
// derivable on exactly one shard, and global constraints run on one
// shard only.
func (r *Router) merge(outs [][]check.Violation) []check.Violation {
	var vs []check.Violation
	for _, out := range outs {
		vs = append(vs, out...)
	}
	sort.SliceStable(vs, func(i, j int) bool {
		ci, cj := r.conIndex[vs[i].Constraint], r.conIndex[vs[j].Constraint]
		if ci != cj {
			return ci < cj
		}
		return vs[i].Binding.Compare(vs[j].Binding) < 0
	})
	return vs
}

// Explain builds the evidence trail of a violation from the shard that
// derived it: the one its key value hashes to (as ShardFor routes the
// tuples carrying that value) for a partitioned constraint, the global
// shard otherwise. The owning shard's encoding is the unsharded one
// restricted to its keys, so the trail is the unsharded engine's.
func (r *Router) Explain(v check.Violation) (*core.Explanation, error) {
	i, ok := r.conIndex[v.Constraint]
	if !ok {
		return nil, fmt.Errorf("shard: unknown constraint %q", v.Constraint)
	}
	owner := GlobalShard
	if cp := r.plan.Cons[i]; cp.Partitioned {
		k := 0
		for k < len(v.Vars) && v.Vars[k] != cp.KeyVar {
			k++
		}
		if k >= len(v.Binding) {
			return nil, fmt.Errorf("shard: violation of %q does not bind its partition key %s", v.Constraint, cp.KeyVar)
		}
		owner = shardOf(v.Binding[k], r.n)
	}
	c, ok := r.engines[owner].(*core.Checker)
	if !ok {
		return nil, fmt.Errorf("shard: Explain needs the incremental engine, shard %d runs %T", owner, r.engines[owner])
	}
	return c.Explain(v)
}

// Now returns the timestamp of the last committed transaction.
func (r *Router) Now() uint64 { return r.now }

// Len returns the number of committed transactions.
func (r *Router) Len() int { return r.index }

// ConstraintNames returns the installed constraint names in
// installation order.
func (r *Router) ConstraintNames() []string {
	out := make([]string, len(r.cons))
	for i, con := range r.cons {
		out[i] = con.Name
	}
	return out
}

// State returns the merged current database: the union of the shards'
// base relations. The union is exact — partitioned relations are
// disjoint across shards and unpartitioned ones live on the global
// shard only. Callers must not mutate the result's tuples.
func (r *Router) State() (*storage.State, error) {
	merged := storage.NewState(r.schema)
	if r.engines == nil {
		return merged, nil
	}
	for i, e := range r.engines {
		st, err := e.State()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		for _, name := range r.schema.Names() {
			src, err := st.Relation(name)
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			dst, err := merged.Relation(name)
			if err != nil {
				return nil, err
			}
			var ierr error
			src.Each(func(tp tuple.Tuple) bool {
				_, ierr = dst.Insert(tp)
				return ierr == nil
			})
			if ierr != nil {
				return nil, fmt.Errorf("shard %d: merging %s: %w", i, name, ierr)
			}
		}
	}
	return merged, nil
}

// Stats sums the incremental auxiliary-storage statistics across the
// shards (zero when the engines are not core checkers). Entries and
// Timestamps are exact — each tracked binding lives on exactly one
// shard — while Nodes and Bytes count the per-shard copies of
// partitionable constraints' node structures.
func (r *Router) Stats() core.Stats {
	return r.sumStats((*core.Checker).Stats)
}

// sumStats adds up one per-shard storage report across the shards.
func (r *Router) sumStats(of func(*core.Checker) core.Stats) core.Stats {
	var total core.Stats
	for _, e := range r.engines {
		if c, ok := e.(*core.Checker); ok {
			st := of(c)
			total.Nodes += st.Nodes
			total.Entries += st.Entries
			total.Timestamps += st.Timestamps
			total.Bytes += st.Bytes
		}
	}
	return total
}

// publishAuxGauges republishes the summed auxiliary-storage gauges from
// the shard engines' running accounts (core.Checker.Totals): no entry
// walked, nothing allocated.
func (r *Router) publishAuxGauges(m *obs.Metrics) {
	st := r.sumStats((*core.Checker).Totals)
	m.AuxNodes.Set(int64(st.Nodes))
	m.AuxEntries.Set(int64(st.Entries))
	m.AuxTimestamps.Set(int64(st.Timestamps))
	m.AuxBytes.Set(int64(st.Bytes))
}
