// Package cdcgen generates CDC-style change feeds for the
// data-freshness scenario family (ROADMAP item 5): timestamped
// insert/delete streams shaped like a real change-data-capture pipeline
// — burst trains of source updates, bounded late-arrival reordering,
// Zipf-distributed hot keys, and source→derived row lineage — checked
// against validity-window, derived-lifetime, and staleness-escalation
// constraints expressed as Past MTL denials (the constraint shapes of
// Kang's validity-interval work; see PAPERS.md).
//
// The generator is deterministic in its seed: the same Config always
// produces the byte-identical history, so generated feeds serve as
// golden traces for the differential harness, the crash enumerator, and the
// Table 10 benchmark alike. It emits plain workload.History values, so
// every existing consumer replays them unchanged.
//
// The feed interleaves four self-contained streams, each owning its
// relations, so distinct commits touch disjoint read sets (the shape
// the delta-driven check path's skip rule feeds on):
//
//	refresh    +reading(s)                    a source row was re-captured
//	serve      +serve(s)                      a consumer read sensor s
//	derived    +derived(d, s) / -derived(d,s) materialized rows with lineage
//	staleness  +mark(s) +stale(s) … +escalate(s)  operator escalation flow
//
// Event markers (reading, serve, mark, escalate) are cleared at the
// next commit of the same stream, so the metric window — not tuple
// persistence — decides freshness. stale(s) is a state held from mark
// to escalation; derived rows persist until their scheduled cleanup.
package cdcgen

import (
	"fmt"
	"math/rand"

	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/workload"
)

// Config parameterizes one generated feed. Zero values take the
// defaults noted on each field.
type Config struct {
	Steps   int   // commits to generate (default 200)
	Seed    int64 // generator seed; same seed ⇒ byte-identical history
	Sensors int   // sensor-key universe size (default 24)

	// ZipfS is the Zipf skew exponent for key draws (> 1; default 1.5).
	// Larger values concentrate traffic on fewer hot keys.
	ZipfS float64

	Validity        uint64 // serve freshness window V (default 16)
	DerivedLifetime uint64 // derived row lifetime L (default 24)
	ChainWindow     uint64 // staleness escalation window E (default 64)

	// Burst trains: after every BurstEvery steady commits, BurstLen
	// commits arrive in a burst (gap BurstGap instead of a random gap in
	// [1, SteadyGap]). BurstLen 0 disables bursts.
	BurstEvery int // steady commits between bursts (default 20 when BurstLen > 0)
	BurstLen   int // commits per burst train (default 0: steady only)
	SteadyGap  int // max steady-phase timestamp gap (default 4)
	BurstGap   int // burst-phase timestamp gap (default 1)

	// Late arrivals: each op is displaced to a later commit by up to
	// MaxReorder commits with probability LateRate. Per-key op order is
	// preserved (a row's delete never overtakes its insert), which is
	// exactly the guarantee commit-batched CDC transports give.
	MaxReorder int     // max displacement in commits (default 0: in order)
	LateRate   float64 // fraction of ops arriving late (default 0.25 when MaxReorder > 0)

	// ViolationRate is the fraction of serves, derived rows, and
	// escalation flows scheduled to break their constraint: a serve of a
	// stale (or never-captured) sensor, a derived row kept past its
	// source's validity, an escalation with a broken stale-chain.
	ViolationRate float64

	RefreshPerCommit int // source rows captured per refresh commit (default 2)
}

func (c Config) withDefaults() Config {
	if c.Steps <= 0 {
		c.Steps = 200
	}
	if c.Sensors <= 0 {
		c.Sensors = 24
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.5
	}
	if c.Validity == 0 {
		c.Validity = 16
	}
	if c.DerivedLifetime == 0 {
		c.DerivedLifetime = 24
	}
	if c.ChainWindow == 0 {
		c.ChainWindow = 64
	}
	if c.BurstLen > 0 && c.BurstEvery <= 0 {
		c.BurstEvery = 20
	}
	if c.SteadyGap <= 0 {
		c.SteadyGap = 4
	}
	if c.BurstGap <= 0 {
		c.BurstGap = 1
	}
	if c.MaxReorder > 0 && c.LateRate == 0 {
		c.LateRate = 0.25
	}
	if c.RefreshPerCommit <= 0 {
		c.RefreshPerCommit = 2
	}
	return c
}

// Stream kinds, one per commit.
const (
	KindRefresh   = "refresh"
	KindServe     = "serve"
	KindDerived   = "derived"
	KindStaleness = "staleness"
)

// Meta reports what the generator actually did, for shape-asserting
// tests and for benchmarks that attribute measurements to phases.
type Meta struct {
	Burst []bool   // per commit: inside a burst train
	Kinds []string // per commit: stream kind

	Displaced       int // ops that arrived late
	MaxDisplacement int // largest observed displacement, in commits

	KeyDraws map[int64]int // sensor-key draw histogram (hot-key shape)

	PlannedViolations int // flows scheduled to violate their constraint
}

// Schema is the CDC freshness schema every generated feed ranges over.
func Schema() *schema.Schema {
	return schema.NewBuilder().
		Relation("reading", 1).  // reading(s): source row for sensor s was captured
		Relation("serve", 1).    // serve(s): a consumer read sensor s
		Relation("derived", 2).  // derived(d, s): materialized row d with source s
		Relation("mark", 1).     // mark(s): sensor declared stale (event)
		Relation("stale", 1).    // stale(s): staleness state, mark → escalation
		Relation("escalate", 1). // escalate(s): operator escalation (event)
		MustBuild()
}

// Constraints are the freshness policies checked against a feed, as
// Past MTL denials (see examples/specs for the spec-file corpus):
// a served reading must have been captured within its validity window,
// a derived row must not outlive its source's lifetime, and an
// escalation must ride an unbroken staleness chain.
func Constraints(cfg Config) []workload.ConstraintSpec {
	cfg = cfg.withDefaults()
	return []workload.ConstraintSpec{
		{Name: "fresh_serve", Source: fmt.Sprintf("serve(s) -> once[0,%d] reading(s)", cfg.Validity)},
		{Name: "derived_lineage", Source: fmt.Sprintf("derived(d, s) -> once[0,%d] reading(s)", cfg.DerivedLifetime)},
		{Name: "stale_escalation", Source: fmt.Sprintf("escalate(s) -> (stale(s) since[0,%d] mark(s))", cfg.ChainWindow)},
	}
}

// WidePolicies is the policy set of the policy-wide workload: the three
// Constraints plus 16 more validity windows and 16 more derived-row
// lifetimes over the same relations — 35 constraints over 26 distinct
// auxiliary nodes, 25 of them windows [0,b] over reading(s), which share
// one table.
func WidePolicies(cfg Config) []workload.ConstraintSpec {
	cons := Constraints(cfg)
	for i := 0; i < 16; i++ {
		cons = append(cons,
			workload.ConstraintSpec{
				Name:   fmt.Sprintf("fresh_serve_%d", 17+i),
				Source: fmt.Sprintf("serve(s) -> once[0,%d] reading(s)", 17+i),
			},
			workload.ConstraintSpec{
				Name:   fmt.Sprintf("derived_lineage_%d", 25+i),
				Source: fmt.Sprintf("derived(d, s) -> once[0,%d] reading(s)", 25+i),
			})
	}
	return cons
}

// logical is one commit before late-arrival displacement.
type logical struct {
	time  uint64
	burst bool
	kind  string
	ops   []storage.Op
}

// derivedRow is a materialized row awaiting its scheduled cleanup.
type derivedRow struct {
	id, sensor int64
	dropAt     uint64 // delete at the first derived commit with t >= dropAt
}

// staleFlow is one in-flight staleness escalation.
type staleFlow struct {
	sensor   int64
	markedAt uint64
	violate  int // 0 compliant, 1 never stale, 2 chain broken early, 3 escalate past window
}

// Generate builds one feed. The returned history carries Schema() and
// Constraints(cfg); Meta describes the shapes the knobs produced.
func Generate(cfg Config) (workload.History, Meta) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Sensors-1))
	meta := Meta{KeyDraws: make(map[int64]int)}

	draw := func() int64 {
		s := int64(zipf.Uint64())
		meta.KeyDraws[s]++
		return s
	}

	var (
		lastRefresh  = make(map[int64]uint64) // sensor → time of latest capture
		recent       []int64                  // capture order, newest last (no dups)
		pendingClear = map[string][]storage.Op{}
		derivedLive  []derivedRow
		flows        []staleFlow
		inFlow       = make(map[int64]bool)
		nextDerived  int64
		logicals     = make([]logical, 0, cfg.Steps)
		tm           uint64
	)

	noteRefresh := func(s int64, t uint64) {
		if _, ok := lastRefresh[s]; ok {
			for i, r := range recent {
				if r == s {
					recent = append(recent[:i], recent[i+1:]...)
					break
				}
			}
		}
		lastRefresh[s] = t
		recent = append(recent, s)
	}

	// freshSensor picks a sensor captured within window of t, preferring
	// hot keys; ok is false when nothing qualifies yet.
	freshSensor := func(t, window uint64) (int64, bool) {
		for try := 0; try < 4; try++ {
			s := draw()
			if at, ok := lastRefresh[s]; ok && t-at <= window {
				return s, true
			}
		}
		for i := len(recent) - 1; i >= 0; i-- {
			if s := recent[i]; t-lastRefresh[s] <= window {
				return s, true
			}
		}
		return 0, false
	}

	// staleSensor picks a sensor whose capture aged out of window; ok is
	// false when every known sensor is fresh.
	staleSensor := func(t, window uint64) (int64, bool) {
		for _, s := range recent {
			if t-lastRefresh[s] > window {
				return s, true
			}
		}
		return 0, false
	}

	period := cfg.BurstEvery + cfg.BurstLen
	for i := 0; i < cfg.Steps; i++ {
		burst := cfg.BurstLen > 0 && i%period >= cfg.BurstEvery
		if burst {
			tm += uint64(cfg.BurstGap)
		} else {
			tm += uint64(1 + rng.Intn(cfg.SteadyGap))
		}

		var kind string
		if burst {
			// A burst train is a flood of source captures and reads.
			if rng.Intn(3) == 0 {
				kind = KindServe
			} else {
				kind = KindRefresh
			}
		} else {
			switch r := rng.Intn(10); {
			case r < 4:
				kind = KindRefresh
			case r < 7:
				kind = KindServe
			case r < 9:
				kind = KindDerived
			default:
				kind = KindStaleness
			}
		}

		lc := logical{time: tm, burst: burst, kind: kind}
		lc.ops = append(lc.ops, pendingClear[kind]...)
		pendingClear[kind] = nil
		clearNext := func(rel string, row tuple.Tuple) {
			pendingClear[kind] = append(pendingClear[kind], storage.Op{Rel: rel, Tuple: row})
		}
		insert := func(rel string, row tuple.Tuple) {
			lc.ops = append(lc.ops, storage.Op{Rel: rel, Tuple: row, Insert: true})
		}

		switch kind {
		case KindRefresh:
			n := cfg.RefreshPerCommit
			if burst {
				n += rng.Intn(cfg.RefreshPerCommit + 1)
			}
			for k := 0; k < n; k++ {
				s := draw()
				insert("reading", tuple.Ints(s))
				clearNext("reading", tuple.Ints(s))
				noteRefresh(s, tm)
			}

		case KindServe:
			n := 1 + rng.Intn(2)
			for k := 0; k < n; k++ {
				var s int64
				if rng.Float64() < cfg.ViolationRate {
					meta.PlannedViolations++
					var ok bool
					if s, ok = staleSensor(tm, cfg.Validity); !ok {
						// Nothing is stale yet: serve a phantom sensor
						// that was never captured — a guaranteed miss.
						s = int64(cfg.Sensors) + rng.Int63n(int64(cfg.Sensors))
					}
				} else {
					var ok bool
					if s, ok = freshSensor(tm, cfg.Validity); !ok {
						continue // nothing fresh to serve yet
					}
				}
				insert("serve", tuple.Ints(s))
				clearNext("serve", tuple.Ints(s))
			}

		case KindDerived:
			// Cleanup due rows first (their scheduled drop time passed).
			var live []derivedRow
			for _, d := range derivedLive {
				if tm >= d.dropAt {
					lc.ops = append(lc.ops, storage.Op{Rel: "derived", Tuple: tuple.Ints(d.id, d.sensor)})
				} else {
					live = append(live, d)
				}
			}
			derivedLive = live
			// Materialize new rows from fresh sources.
			for k := 0; k < 1+rng.Intn(2); k++ {
				s, ok := freshSensor(tm, cfg.DerivedLifetime/2+1)
				if !ok {
					break
				}
				id := nextDerived
				nextDerived++
				insert("derived", tuple.Ints(id, s))
				drop := tm + cfg.DerivedLifetime/2
				if rng.Float64() < cfg.ViolationRate {
					// Keep the row past its source's lifetime: it
					// violates from expiry until the late cleanup.
					meta.PlannedViolations++
					drop = tm + cfg.DerivedLifetime + 1 + uint64(rng.Intn(int(cfg.DerivedLifetime)))
				}
				derivedLive = append(derivedLive, derivedRow{id: id, sensor: s, dropAt: drop})
			}

		case KindStaleness:
			// Advance at most one in-flight flow, oldest first.
			if len(flows) > 0 {
				f := flows[0]
				age := tm - f.markedAt
				switch {
				case f.violate == 2 && age < cfg.ChainWindow/2:
					// Break the chain: drop the stale state early, then
					// escalate on a later staleness commit.
					flows[0].violate = 1 // chain now broken; escalate as-is later
					lc.ops = append(lc.ops, storage.Op{Rel: "stale", Tuple: tuple.Ints(f.sensor)})
				case f.violate == 3 && age <= cfg.ChainWindow:
					// Escalate-too-late: hold until the window expires.
				default:
					flows = flows[1:]
					delete(inFlow, f.sensor)
					insert("escalate", tuple.Ints(f.sensor))
					clearNext("escalate", tuple.Ints(f.sensor))
					if f.violate != 1 {
						// Resolve the staleness state at the next staleness
						// commit, not here: the since-chain is evaluated on
						// the post-commit state, so stale(s) must still hold
						// in the escalation's own commit. (violate 1 never
						// had the row, or dropped it early.)
						clearNext("stale", tuple.Ints(f.sensor))
					}
				}
			}
			// Maybe open a new flow on a sensor not already escalating —
			// and not one whose stale row is scheduled for clearing, or
			// the deferred delete would kill the new flow's chain.
			if len(flows) < 3 {
				s := draw()
				pendingStale := false
				for _, op := range pendingClear[kind] {
					if op.Rel == "stale" && op.Tuple.Key() == tuple.Ints(s).Key() {
						pendingStale = true
						break
					}
				}
				if !inFlow[s] && !pendingStale {
					f := staleFlow{sensor: s, markedAt: tm}
					if rng.Float64() < cfg.ViolationRate {
						meta.PlannedViolations++
						f.violate = 1 + rng.Intn(3)
					}
					insert("mark", tuple.Ints(s))
					clearNext("mark", tuple.Ints(s))
					if f.violate != 1 {
						insert("stale", tuple.Ints(s))
					}
					flows = append(flows, f)
					inFlow[s] = true
				}
			}
		}

		meta.Burst = append(meta.Burst, burst)
		meta.Kinds = append(meta.Kinds, kind)
		logicals = append(logicals, lc)
	}

	steps := displace(logicals, cfg, rng, &meta)
	return workload.History{
		Schema:      Schema(),
		Constraints: Constraints(cfg),
		Steps:       steps,
	}, meta
}

// displace applies bounded late-arrival reordering: each op lands up to
// MaxReorder commits after its logical commit, preserving per-key op
// order so a row's delete never overtakes its insert. Commit
// timestamps are unchanged — a displaced op simply arrives (and is
// evaluated) later, exactly like a late CDC record.
func displace(logicals []logical, cfg Config, rng *rand.Rand, meta *Meta) []workload.Step {
	n := len(logicals)
	out := make([][]storage.Op, n)
	lastPos := make(map[string]int)
	for i, lc := range logicals {
		for _, op := range lc.ops {
			pos := i
			if cfg.MaxReorder > 0 && rng.Float64() < cfg.LateRate {
				pos = i + 1 + rng.Intn(cfg.MaxReorder)
				if pos > n-1 {
					pos = n - 1
				}
			}
			key := op.Rel + "|" + op.Tuple.Key()
			if p, ok := lastPos[key]; ok && pos < p {
				pos = p
			}
			lastPos[key] = pos
			if d := pos - i; d > 0 {
				meta.Displaced++
				if d > meta.MaxDisplacement {
					meta.MaxDisplacement = d
				}
			}
			out[pos] = append(out[pos], op)
		}
	}
	steps := make([]workload.Step, n)
	for i, lc := range logicals {
		tx := storage.NewTransaction()
		for _, op := range out[i] {
			if op.Insert {
				tx.Insert(op.Rel, op.Tuple)
			} else {
				tx.Delete(op.Rel, op.Tuple)
			}
		}
		steps[i] = workload.Step{Time: lc.time, Tx: tx}
	}
	return steps
}

// Render writes a history in the transaction-log format of
// internal/spec ("@t +rel(…) -rel(…)"), one commit per line — the
// canonical byte representation the golden-trace tests compare.
func Render(h workload.History) string {
	var b []byte
	for _, st := range h.Steps {
		b = append(b, fmt.Sprintf("@%d %s\n", st.Time, st.Tx.String())...)
	}
	return string(b)
}
