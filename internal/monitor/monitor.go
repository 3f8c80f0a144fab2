// Package monitor wraps a checking engine for long-running use:
// serialized concurrent commits, violation fan-out to subscribers,
// snapshot/restore, and a line-protocol network server so external
// producers can stream transactions to one shared checker. The engine
// is the paper's incremental checker (bounded history encoding), alone
// or as the shards of a router (WithShards).
package monitor

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/lint"
	"rtic/internal/mono"
	"rtic/internal/obs"
	"rtic/internal/schema"
	"rtic/internal/shard"
	"rtic/internal/storage"
	"rtic/internal/workload"
)

// Monitor is a thread-safe integrity monitor around one checking
// engine. Commits are serialized; subscribers receive every violation.
type Monitor struct {
	mu     sync.Mutex
	eng    shard.Checker
	rtr    *shard.Router // eng when sharded, else nil: Parts, Shards, Router
	schema *schema.Schema
	// obs is read without the commit lock — Apply, publish, the server and
	// the durability hooks all load it — and stored under it, beside the
	// engine's own observer (SetObserver).
	obs atomic.Pointer[obs.Observer]

	// open is the monitor.apply span of the Apply holding the commit
	// lock (nil outside one, or without a span sink): root spans reaching
	// commitSink meanwhile become its children.
	open *obs.Span

	// journal, when set, receives every accepted transaction under the
	// commit lock — the write-ahead hook of the durability layer.
	journal func(t uint64, tx *storage.Transaction)

	// diags holds the linter findings over the spec the monitor was
	// built or restored for (none for a restore given no spec), linted
	// once per start: the lint protocol command, the daemon's startup
	// log, /healthz and the lint metrics all read them. Findings never
	// block a start (the constraints parsed and compiled).
	diags []lint.Diagnostic

	subMu   sync.Mutex
	nextSub int
	subs    map[int]chan check.Violation
	dropped int

	recent     []check.Violation // ring buffer of the latest violations
	recentNext int
	recentFull bool
}

// recentCapacity bounds the violation ring buffer.
const recentCapacity = 128

// Option configures a monitor at construction time.
type Option func(*options)

type options struct {
	shards int
}

// WithShards partitions the engine's state across n shard engines
// behind a router (see internal/shard): transactions split by the
// inferred per-relation partition columns, the shards commit one
// after another, results stay exact. n<=1 selects the plain unsharded
// engine. A sharded monitor journals one WAL per shard and snapshots
// all shards in one file (see Durable); Restore needs the shard count
// the snapshot was written with.
func WithShards(n int) Option {
	return func(o *options) { o.shards = n }
}

// New builds a monitor over the schema with the given constraints.
func New(s *schema.Schema, constraints []workload.ConstraintSpec, opts ...Option) (*Monitor, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	eng, err := shard.Build(s, o.shards)
	if err != nil {
		return nil, fmt.Errorf("monitor: %w", err)
	}
	if err := engine.Install(eng, s, constraints); err != nil {
		return nil, err
	}
	m := &Monitor{schema: s, subs: make(map[int]chan check.Violation)}
	m.setEngine(eng)
	m.diags = lint.Constraints(constraints, s, lint.Options{})
	return m, nil
}

// Diagnostics returns the linter findings recorded when the monitor was
// built or restored. The slice is a copy; callers may reorder it. diags
// is immutable after New and RestoreObserved, so this never takes the
// commit lock — a slow lint reader cannot stall commits.
func (m *Monitor) Diagnostics() []lint.Diagnostic {
	return append([]lint.Diagnostic(nil), m.diags...)
}

// Restore rebuilds a monitor from a snapshot written by Snapshot — a
// checker snapshot (core.SaveSnapshot), or with WithShards a router
// snapshot (shard.Router.SaveSnapshot); either carries its constraints
// and the clock, so the restored monitor continues where the snapshot
// was taken.
func Restore(s *schema.Schema, r io.Reader, opts ...Option) (*Monitor, error) {
	return RestoreObserved(s, nil, r, nil, opts...)
}

// RestoreObserved is Restore with the observer attached before the
// checker starts answering, so the restore itself is traced and the
// restored monitor is instrumented from its first commit. constraints
// is the spec the snapshot was taken under, linted as New lints it
// (nil: no findings); the snapshot alone decides what is enforced.
func RestoreObserved(s *schema.Schema, constraints []workload.ConstraintSpec, r io.Reader, o *obs.Observer, opts ...Option) (*Monitor, error) {
	var op options
	for _, opt := range opts {
		opt(&op)
	}
	m := &Monitor{schema: s, subs: make(map[int]chan check.Violation)}
	m.obs.Store(o)
	eng, err := shard.Restore(s, r, op.shards, m.engineObserver(o))
	if err != nil {
		return nil, err
	}
	m.setEngine(eng)
	if constraints != nil {
		m.diags = lint.Constraints(constraints, s, lint.Options{})
	}
	return m, nil
}

// setEngine installs the monitor's checker, as built by shard.Build or
// shard.Restore; rtr is the same checker when it is a router.
func (m *Monitor) setEngine(eng shard.Checker) {
	m.eng = eng
	m.rtr, _ = eng.(*shard.Router)
}

// SetObserver attaches instrumentation to the monitor and its engine:
// the engine records commit/constraint metrics and span trees, the
// monitor counts subscriber drops, and the server (if any) counts
// connections and protocol errors. Attach before serving traffic.
func (m *Monitor) SetObserver(o *obs.Observer) {
	m.mu.Lock()
	m.obs.Store(o)
	m.eng.SetObserver(m.engineObserver(o))
	m.mu.Unlock()
}

// commitSink is the span sink of every layer that runs under the
// monitor's commit lock — its engine, and the journals the durability
// manager appends to. A root span arriving while an Apply is open is
// adopted by that Apply's monitor.apply span, so the observer's sink
// sees one tree per acknowledged commit; anything else (a checkpoint's
// snapshot.save) passes through as its own root. Only code holding the
// commit lock may emit through it.
type commitSink struct{ m *Monitor }

func (s commitSink) ObserveSpan(sp *obs.Span) {
	if s.m.open != nil {
		s.m.open.Adopt(sp)
	} else if sink := s.m.obs.Load().SpanSink(); sink != nil {
		sink.ObserveSpan(sp)
	}
}

func (s commitSink) WantsDetail() bool { return s.m.obs.Load().WantsDetail() }

// engineObserver is o as the engine sees it: the same metric set, and —
// when o has a span sink — the monitor's commitSink in front of it.
func (m *Monitor) engineObserver(o *obs.Observer) *obs.Observer {
	if o.SpanSink() == nil {
		return o
	}
	return &obs.Observer{Metrics: o.Metrics, Spans: commitSink{m}}
}

// SpanSink returns the sink the monitor's journals must emit through
// (see commitSink), nil when the attached observer has no span sink.
func (m *Monitor) SpanSink() obs.SpanSink {
	if m.Observer().SpanSink() == nil {
		return nil
	}
	return commitSink{m}
}

// SetJournal attaches a hook invoked under the commit lock for every
// transaction the engine accepts, after the state has advanced. The
// hook must not call back into the monitor; journaling failures are the
// hook's to record (the commit has already happened and cannot be
// rolled back). A nil hook detaches the journal.
func (m *Monitor) SetJournal(j func(t uint64, tx *storage.Transaction)) {
	m.mu.Lock()
	m.journal = j
	m.mu.Unlock()
}

// Shards reports the shard count of the routing layer (1 = unsharded).
func (m *Monitor) Shards() int {
	if m.rtr != nil {
		return m.rtr.Shards()
	}
	return 1
}

// Router exposes the shard router (nil when unsharded), whose plan
// says where each constraint and relation lives.
func (m *Monitor) Router() *shard.Router { return m.rtr }

// Observer returns the attached observer (nil when uninstrumented). It
// takes no lock, so code holding the commit lock may call it.
func (m *Monitor) Observer() *obs.Observer { return m.obs.Load() }

// Apply commits a transaction at time t and returns its violations,
// which are the caller's to keep. Calls are serialized; timestamps must
// be strictly increasing across all callers. With an observer attached,
// the wait for the commit lock is recorded (rtic_commit_lock_wait_seconds)
// and one span tree goes to the span sink: a monitor.apply root carrying
// the lock wait, with the engine's commit span and the journal hook's
// wal.append spans beneath.
func (m *Monitor) Apply(t uint64, tx *storage.Transaction) ([]check.Violation, error) {
	return m.ApplyInto(t, tx, nil)
}

// ApplyInto is Apply that returns the violations in dst's storage
// (check.AppendClones onto dst[:0]). The engine's violations are valid
// only until its next Step, which another caller may take as soon as
// the commit lock is released, so they are copied out, and filed in the
// Recent ring, before it is. A caller that passes back the slice its
// last call returned commits without allocating once that slice has
// grown to its high-water mark.
func (m *Monitor) ApplyInto(t uint64, tx *storage.Transaction, dst []check.Violation) ([]check.Violation, error) {
	obsv := m.Observer()
	mm := obsv.MetricSink()
	sink := obsv.SpanSink()
	var sp *obs.Span
	var lockStart time.Time
	if mm != nil || sink != nil {
		lockStart = mono.Now()
	}
	m.mu.Lock()
	if mm != nil || sink != nil {
		wait := time.Since(lockStart)
		if mm != nil {
			mm.LockWaitSeconds.Observe(wait.Seconds())
		}
		if sink != nil {
			sp = &obs.Span{Name: obs.SpanMonitorApply, Time: t, Start: lockStart, Wait: wait}
			m.open = sp
		}
	}
	vs, err := m.eng.Step(t, tx)
	if err == nil {
		if m.journal != nil {
			m.journal(t, tx)
		}
		if len(vs) > 0 {
			m.publish(vs)
		}
		dst = check.AppendClones(dst[:0], vs)
	}
	m.open = nil
	m.mu.Unlock()
	if sp != nil {
		sp.Dur = time.Since(sp.Start)
		sp.Err = err
		sink.ObserveSpan(sp)
	}
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// publish files the commit's violations in the Recent ring and sends
// them to subscribers; it runs under the commit lock. The engine's
// violations are valid until its next Step, so each is copied: into
// storage its ring slot owns and reuses, and into a binding of its own
// for each subscriber.
func (m *Monitor) publish(vs []check.Violation) {
	mm := m.Observer().MetricSink()
	m.subMu.Lock()
	defer m.subMu.Unlock()
	for _, v := range vs {
		var slot *check.Violation
		if len(m.recent) < recentCapacity {
			m.recent = append(m.recent, check.Violation{})
			slot = &m.recent[len(m.recent)-1]
		} else {
			slot = &m.recent[m.recentNext]
			m.recentNext = (m.recentNext + 1) % recentCapacity
			m.recentFull = true
		}
		v.CopyTo(slot)
	}
	for _, ch := range m.subs {
		for _, v := range vs {
			select {
			case ch <- v.Clone():
			default:
				m.dropped++ // slow subscriber: drop rather than stall commits
				if mm != nil {
					mm.DroppedViolations.Inc()
				}
			}
		}
	}
}

// Recent returns up to n of the most recent violations, oldest first
// (the monitor retains the last 128), copied out of the ring.
func (m *Monitor) Recent(n int) []check.Violation {
	m.subMu.Lock()
	defer m.subMu.Unlock()
	var ordered []check.Violation
	if m.recentFull {
		ordered = append(ordered, m.recent[m.recentNext:]...)
		ordered = append(ordered, m.recent[:m.recentNext]...)
	} else {
		ordered = append(ordered, m.recent...)
	}
	if n > 0 && len(ordered) > n {
		ordered = ordered[len(ordered)-n:]
	}
	for i := range ordered {
		ordered[i] = ordered[i].Clone()
	}
	return ordered
}

// Subscribe returns a channel receiving every future violation and a
// cancel function. A subscriber that falls behind its buffer loses
// violations (counted in Dropped) instead of blocking commits.
func (m *Monitor) Subscribe(buffer int) (<-chan check.Violation, func()) {
	if buffer < 1 {
		buffer = 1
	}
	ch := make(chan check.Violation, buffer)
	m.subMu.Lock()
	id := m.nextSub
	m.nextSub++
	m.subs[id] = ch
	m.subMu.Unlock()
	cancel := func() {
		m.subMu.Lock()
		if _, ok := m.subs[id]; ok {
			delete(m.subs, id)
			close(ch)
		}
		m.subMu.Unlock()
	}
	return ch, cancel
}

// Dropped reports how many violations were discarded because
// subscribers lagged.
func (m *Monitor) Dropped() int {
	m.subMu.Lock()
	defer m.subMu.Unlock()
	return m.dropped
}

// Snapshot checkpoints the checker state — of every shard, on a sharded
// monitor.
func (m *Monitor) Snapshot(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked(w)
}

// snapshotLocked is Snapshot for callers already holding the commit
// lock (the durability manager's checkpoint and re-arm).
func (m *Monitor) snapshotLocked(w io.Writer) error { return m.eng.SaveSnapshot(w) }

// Stats reports the checker's auxiliary storage, summed over the shards
// of a sharded monitor.
func (m *Monitor) Stats() core.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eng.Stats()
}

// Totals reports Stats's sums from the engine's running accounts
// (core.Checker.Totals, summed over a router's shards): O(nodes) under
// the commit lock, no entry walked, nothing allocated. PerNode is nil.
//
//rtic:noalloc
func (m *Monitor) Totals() core.Stats {
	m.mu.Lock()
	st := m.eng.Totals()
	m.mu.Unlock()
	return st
}

// Progress reports the number of committed transactions and the latest
// committed timestamp, read under one acquisition of the commit lock so
// that both describe the same commit.
func (m *Monitor) Progress() (states int, now uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eng.Len(), m.eng.Now()
}

// Len reports the number of committed transactions.
func (m *Monitor) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eng.Len()
}

// Now returns the latest committed timestamp.
func (m *Monitor) Now() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eng.Now()
}

// String describes the monitor for logs.
func (m *Monitor) String() string {
	return fmt.Sprintf("monitor(%s, %d states)", m.schema.String(), m.Len())
}
