package shard

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"

	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/mono"
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
// (EXPERIMENTS.md, "Table 9 (retired 2026-10-19)").
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
	// violations are obs's per-constraint violation counters, parallel to
	// cons (resolved again whenever a constraint is added with metrics
	// attached), so a commit's violations are counted without a labelled
	// lookup.
	violations []*obs.Counter

	cons  []*check.Constraint
	names map[string]bool
	plan  *Plan

	engines  []engine.Engine
	conIndex map[string]int
	parts    []*storage.Transaction // the last commit's split, one per shard (Parts)
	outs     [][]check.Violation    // per-shard reports of the commit in progress
	merged   []check.Violation      // the commit's merged report, reused by the next Step
	durs     []time.Duration        // per-shard sub-commit times of the commit in progress
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

// coreFactory builds the paper's checker for one shard: the factory
// behind Build and Restore.
func coreFactory(s *schema.Schema) Factory {
	return func() engine.Engine { return core.New(s) }
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
	Totals() core.Stats
	SaveSnapshot(io.Writer) error
	ConstraintNames() []string
	Explain(check.Violation) (*core.Explanation, error)
}

// Build is the one place the paper's checker is constructed and a shard
// count becomes a shape: a bare *core.Checker for shards <= 1, a Router
// over core engines otherwise.
func Build(s *schema.Schema, shards int) (Checker, error) {
	if shards <= 1 {
		return core.New(s), nil
	}
	r, err := New(s, shards, coreFactory(s))
	if err != nil {
		return nil, err // not a nil *Router inside a non-nil Checker
	}
	return r, nil
}

// Shards returns the configured shard count.
func (r *Router) Shards() int { return r.n }

// Plan returns the current shard plan. It is recomputed at every
// AddConstraint and final once the first commit seals the router;
// callers must not mutate it.
func (r *Router) Plan() *Plan { return r.plan }

// AddConstraint validates con against a probe engine (so engine-specific
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
	if m := r.obs.MetricSink(); m != nil {
		r.syncPlanMetrics(m)
	}
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
	r.perShard, r.violations = nil, nil
	if m := o.MetricSink(); m != nil {
		m.Shards.Set(int64(r.n))
		r.syncPlanMetrics(m)
	}
}

// syncPlanMetrics republishes the plan-derived gauges and resolves the
// per-shard and per-constraint series the commit path updates, which
// registers them, so a scrape shows them all at zero.
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
	r.violations = make([]*obs.Counter, len(r.cons))
	for i, con := range r.cons {
		r.violations[i] = m.Violations.With(con.Name)
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
	r.parts = make([]*storage.Transaction, r.n)
	for i := range r.parts {
		r.parts[i] = storage.NewTransaction()
	}
	r.outs = make([][]check.Violation, r.n)
	r.durs = make([]time.Duration, r.n)
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

// FNV-1a's 64-bit parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// shardOf hashes one partition-key value onto [0, n): FNV-1a over the
// bytes of v.Key(), read in place — an int's decimal digits from a
// stack buffer, a string's payload where it lies — so routing a row
// allocates nothing. Snapshots and journals depend on the assignment;
// TestShardOfMatchesFNV holds it to hash/fnv over v.Key().
//
//rtic:noalloc
func shardOf(v value.Value, n int) int {
	h := uint64(fnvOffset64)
	if v.Kind() == value.KindInt {
		var buf [24]byte
		for _, c := range v.AppendKey(buf[:0]) {
			h = (h ^ uint64(c)) * fnvPrime64
		}
	} else {
		h = (h ^ 's') * fnvPrime64
		s := v.AsString()
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime64
		}
	}
	return int(h % uint64(n))
}

// Split routes tx's operations into one fresh sub-transaction per shard
// (empty ones included — every shard commits at every timestamp). It is
// the allocating form of the routing a commit does into the router's
// own parts (see Parts).
func (r *Router) Split(tx *storage.Transaction) []*storage.Transaction {
	parts := make([]*storage.Transaction, r.n)
	for i := range parts {
		parts[i] = storage.NewTransaction()
	}
	if tx != nil {
		r.route(tx, parts)
	}
	return parts
}

// route appends each of tx's operations to the part of the shard that
// owns its tuple. Relative op order is preserved within each shard,
// which is enough: ops on the same tuple always land on the same shard.
//
//rtic:noalloc
func (r *Router) route(tx *storage.Transaction, parts []*storage.Transaction) {
	for _, op := range tx.Ops() {
		p := parts[r.ShardFor(op.Rel, op.Tuple)]
		if op.Insert {
			p.Insert(op.Rel, op.Tuple)
		} else {
			p.Delete(op.Rel, op.Tuple)
		}
	}
}

// Parts returns the sub-transactions of the last commit, by shard: the
// transaction itself for one shard, otherwise the router's own parts,
// which the next Step empties and refills. Like a transaction an engine
// borrows (engine.Engine), they are valid until the next Step, and only
// after a Step that returned no error. The journal reads them under the
// commit lock, so a sharded commit is split once.
func (r *Router) Parts() []*storage.Transaction { return r.parts }

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
			r.violations[r.conIndex[v.Constraint]].Inc()
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
		if tx == nil {
			tx = storage.NewTransaction()
		}
		r.parts[0] = tx
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
		for _, p := range r.parts {
			p.Reset()
		}
		r.route(tx, r.parts)
		if m != nil {
			for i, p := range r.parts {
				if n := p.Len(); n > 0 {
					r.perShard[i].opsRouted.Add(uint64(n))
				}
			}
		}
		for i := range r.engines {
			out, sp, d, err := r.stepOne(i, t, r.parts[i], m, span != nil)
			if sp != nil {
				span.Children = append(span.Children, sp)
			}
			if err != nil {
				r.broken = fmt.Errorf("shard %d: %w", i, err)
				return nil, r.broken
			}
			r.outs[i], r.durs[i] = out, d
		}
		if m != nil {
			if skew := shardSkew(r.durs); skew > 0 {
				m.ShardSkew.Set(skew)
			}
		}
		vs = r.merge(r.outs)
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
	start := mono.Now()
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
	vs := r.merged[:0]
	for _, out := range outs {
		vs = append(vs, out...)
	}
	r.merged = vs
	if len(vs) == 0 {
		return nil
	}
	if len(vs) < 2 {
		return vs
	}
	slices.SortStableFunc(vs, func(a, b check.Violation) int {
		if c := r.conIndex[a.Constraint] - r.conIndex[b.Constraint]; c != 0 {
			return c
		}
		return a.Binding.Compare(b.Binding)
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

// Totals sums Stats across the shards from the shard engines' running
// accounts (core.Checker.Totals): no entry walked, nothing allocated.
//
//rtic:noalloc
func (r *Router) Totals() core.Stats {
	return r.sumStats((*core.Checker).Totals)
}

// sumStats adds up one per-shard storage report across the shards.
//
//rtic:noalloc
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
// the shard engines' running accounts.
func (r *Router) publishAuxGauges(m *obs.Metrics) {
	st := r.Totals()
	m.AuxNodes.Set(int64(st.Nodes))
	m.AuxEntries.Set(int64(st.Entries))
	m.AuxTimestamps.Set(int64(st.Timestamps))
	m.AuxBytes.Set(int64(st.Bytes))
}
