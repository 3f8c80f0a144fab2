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
//
// The generator keeps every captured sensor in capture order, oldest
// first. A capture happens at the current time, which never decreases,
// so the order is also by capture time: the oldest capture is the first
// to age out of a window and the newest the last. The stale pick (the
// first sensor in the order that aged out) is therefore the oldest or
// none, and the fallback fresh pick (the newest that has not) is the
// newest or none; with a capture moving its sensor to the newest end of
// a linked list, all three are O(1), whatever the sensor universe.
//
// Generate and Render allocate per feed, not per commit or op: the
// generator's ops, the transactions, their ops and their values each
// live in one array sized to the whole feed, and Render formats into
// one buffer. Table 10's feed row of rticbench holds the count; it reads
// 0.12 allocations per generated commit on its 1,000-commit feed.
package cdcgen

import (
	"fmt"
	"math/rand"
	"strconv"

	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/value"
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

// The generator's stream kinds, indexing kinds.
const (
	kRefresh = iota
	kServe
	kDerived
	kStaleness
)

var kinds = [...]string{KindRefresh, KindServe, KindDerived, KindStaleness}

// rel names one Schema relation in the generator's own ops.
type rel uint8

const (
	relReading rel = iota
	relServe
	relDerived
	relMark
	relStale
	relEscalate
	numRels
)

var relNames = [numRels]string{"reading", "serve", "derived", "mark", "stale", "escalate"}

// op is one generated modification. A unary relation's row is the
// sensor a; derived(d, s) is (a, b).
type op struct {
	a, b   int64
	rel    rel
	insert bool
}

// logical is one commit before late-arrival displacement: its ops are
// the generator's ops from the previous logical's end to its own.
type logical struct {
	time uint64
	end  int
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

// generator is one feed under construction. Sensor-indexed state is
// held in slices: draw only yields sensors in [0, Sensors).
type generator struct {
	cfg   Config
	rng   *rand.Rand
	zipf  *rand.Zipf
	meta  Meta
	draws []int // per sensor: how often draw picked it

	// The capture order: every sensor captured so far, oldest first, as
	// a doubly linked list. Captures happen at the current time, which
	// never decreases, so the order is also by capture time.
	captured       []uint64 // per sensor: time of its latest capture
	listed         []bool   // per sensor: in the capture order
	older, newer   []int32  // per sensor: links; -1 ends the list
	oldest, newest int32    // -1 while nothing was captured

	ops      []op // every logical commit's ops, commit after commit
	logicals []logical
	pending  [len(kinds)][]op // per kind: event rows cleared at its next commit
	kind     int              // kind of the commit under construction

	derivedLive []derivedRow
	flows       []staleFlow
	inFlow      []bool // per sensor: its escalation flow is open
	nextDerived int64
	tm          uint64

	row [2]value.Value // the tuple emit hands to a transaction
}

// Generate builds one feed. The returned history carries Schema() and
// Constraints(cfg); Meta describes the shapes the knobs produced.
func Generate(cfg Config) (workload.History, Meta) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &generator{
		cfg:      cfg,
		rng:      rng,
		zipf:     rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Sensors-1)),
		meta:     Meta{Burst: make([]bool, 0, cfg.Steps), Kinds: make([]string, 0, cfg.Steps)},
		draws:    make([]int, cfg.Sensors),
		captured: make([]uint64, cfg.Sensors),
		listed:   make([]bool, cfg.Sensors),
		older:    make([]int32, cfg.Sensors),
		newer:    make([]int32, cfg.Sensors),
		oldest:   -1,
		newest:   -1,
		logicals: make([]logical, 0, cfg.Steps),
		ops:      make([]op, 0, 5*cfg.Steps), // the feeds average under 4 ops a commit
		inFlow:   make([]bool, cfg.Sensors),
	}
	for i := 0; i < cfg.Steps; i++ {
		g.commit(i)
	}
	steps := g.displace()
	g.meta.KeyDraws = make(map[int64]int)
	for s, n := range g.draws {
		if n > 0 {
			g.meta.KeyDraws[int64(s)] = n
		}
	}
	return workload.History{
		Schema:      Schema(),
		Constraints: Constraints(cfg),
		Steps:       steps,
	}, g.meta
}

// commit generates logical commit i.
func (g *generator) commit(i int) {
	cfg, rng := &g.cfg, g.rng
	period := cfg.BurstEvery + cfg.BurstLen
	burst := cfg.BurstLen > 0 && i%period >= cfg.BurstEvery
	if burst {
		g.tm += uint64(cfg.BurstGap)
	} else {
		g.tm += uint64(1 + rng.Intn(cfg.SteadyGap))
	}
	tm := g.tm

	kind := kRefresh
	if burst {
		// A burst train is a flood of source captures and reads.
		if rng.Intn(3) == 0 {
			kind = kServe
		}
	} else {
		switch r := rng.Intn(10); {
		case r < 4:
			kind = kRefresh
		case r < 7:
			kind = kServe
		case r < 9:
			kind = kDerived
		default:
			kind = kStaleness
		}
	}
	g.kind = kind
	g.ops = append(g.ops, g.pending[kind]...)
	g.pending[kind] = g.pending[kind][:0]

	switch kind {
	case kRefresh:
		n := cfg.RefreshPerCommit
		if burst {
			n += rng.Intn(cfg.RefreshPerCommit + 1)
		}
		for k := 0; k < n; k++ {
			s := g.draw()
			g.event(relReading, s)
			g.noteRefresh(s, tm)
		}

	case kServe:
		n := 1 + rng.Intn(2)
		for k := 0; k < n; k++ {
			var s int64
			if rng.Float64() < cfg.ViolationRate {
				g.meta.PlannedViolations++
				var ok bool
				if s, ok = g.staleSensor(tm, cfg.Validity); !ok {
					// Nothing is stale yet: serve a phantom sensor
					// that was never captured — a guaranteed miss.
					s = int64(cfg.Sensors) + rng.Int63n(int64(cfg.Sensors))
				}
			} else {
				var ok bool
				if s, ok = g.freshSensor(tm, cfg.Validity); !ok {
					continue // nothing fresh to serve yet
				}
			}
			g.event(relServe, s)
		}

	case kDerived:
		// Cleanup due rows first (their scheduled drop time passed).
		live := g.derivedLive[:0]
		for _, d := range g.derivedLive {
			if tm >= d.dropAt {
				g.add(op{rel: relDerived, a: d.id, b: d.sensor})
			} else {
				live = append(live, d)
			}
		}
		g.derivedLive = live
		// Materialize new rows from fresh sources.
		for k := 0; k < 1+rng.Intn(2); k++ {
			s, ok := g.freshSensor(tm, cfg.DerivedLifetime/2+1)
			if !ok {
				break
			}
			id := g.nextDerived
			g.nextDerived++
			g.add(op{rel: relDerived, a: id, b: s, insert: true})
			drop := tm + cfg.DerivedLifetime/2
			if rng.Float64() < cfg.ViolationRate {
				// Keep the row past its source's lifetime: it
				// violates from expiry until the late cleanup.
				g.meta.PlannedViolations++
				drop = tm + cfg.DerivedLifetime + 1 + uint64(rng.Intn(int(cfg.DerivedLifetime)))
			}
			g.derivedLive = append(g.derivedLive, derivedRow{id: id, sensor: s, dropAt: drop})
		}

	case kStaleness:
		// Advance at most one in-flight flow, oldest first.
		if len(g.flows) > 0 {
			f := g.flows[0]
			age := tm - f.markedAt
			switch {
			case f.violate == 2 && age < cfg.ChainWindow/2:
				// Break the chain: drop the stale state early, then
				// escalate on a later staleness commit.
				g.flows[0].violate = 1 // chain now broken; escalate as-is later
				g.add(op{rel: relStale, a: f.sensor})
			case f.violate == 3 && age <= cfg.ChainWindow:
				// Escalate-too-late: hold until the window expires.
			default:
				g.flows = g.flows[1:]
				g.inFlow[f.sensor] = false
				g.event(relEscalate, f.sensor)
				if f.violate != 1 {
					// Resolve the staleness state at the next staleness
					// commit, not here: the since-chain is evaluated on
					// the post-commit state, so stale(s) must still hold
					// in the escalation's own commit. (violate 1 never
					// had the row, or dropped it early.)
					g.clearNext(relStale, f.sensor)
				}
			}
		}
		// Maybe open a new flow on a sensor not already escalating —
		// and not one whose stale row is scheduled for clearing, or
		// the deferred delete would kill the new flow's chain.
		if len(g.flows) < 3 {
			s := g.draw()
			if !g.inFlow[s] && !g.staleCleared(s) {
				f := staleFlow{sensor: s, markedAt: tm}
				if rng.Float64() < cfg.ViolationRate {
					g.meta.PlannedViolations++
					f.violate = 1 + rng.Intn(3)
				}
				g.event(relMark, s)
				if f.violate != 1 {
					g.add(op{rel: relStale, a: s, insert: true})
				}
				g.flows = append(g.flows, f)
				g.inFlow[s] = true
			}
		}
	}

	g.meta.Burst = append(g.meta.Burst, burst)
	g.meta.Kinds = append(g.meta.Kinds, kinds[kind])
	g.logicals = append(g.logicals, logical{time: tm, end: len(g.ops)})
}

// draw picks a sensor from the Zipf key stream and counts the draw.
func (g *generator) draw() int64 {
	s := int64(g.zipf.Uint64())
	g.draws[s]++
	return s
}

// add appends o to the commit under construction.
//
//rtic:noalloc
func (g *generator) add(o op) {
	g.ops = append(g.ops, o)
}

// clearNext schedules the delete of r(s) at the next commit of the
// current kind.
//
//rtic:noalloc
func (g *generator) clearNext(r rel, s int64) {
	g.pending[g.kind] = append(g.pending[g.kind], op{rel: r, a: s})
}

// event inserts the event row r(s) and clears it at the next commit of
// the current kind.
//
//rtic:noalloc
func (g *generator) event(r rel, s int64) {
	g.add(op{rel: r, a: s, insert: true})
	g.clearNext(r, s)
}

// staleCleared reports whether stale(s) is scheduled for clearing.
//
//rtic:noalloc
func (g *generator) staleCleared(s int64) bool {
	for _, o := range g.pending[kStaleness] {
		if o.rel == relStale && o.a == s {
			return true
		}
	}
	return false
}

// noteRefresh records a capture of s at t: s moves to the newest end
// of the capture order.
//
//rtic:noalloc
func (g *generator) noteRefresh(s int64, t uint64) {
	i := int32(s)
	if g.listed[i] {
		if o := g.older[i]; o >= 0 {
			g.newer[o] = g.newer[i]
		} else {
			g.oldest = g.newer[i]
		}
		if n := g.newer[i]; n >= 0 {
			g.older[n] = g.older[i]
		} else {
			g.newest = g.older[i]
		}
	}
	g.captured[i] = t
	g.listed[i] = true
	g.older[i], g.newer[i] = g.newest, -1
	if g.newest >= 0 {
		g.newer[g.newest] = i
	} else {
		g.oldest = i
	}
	g.newest = i
}

// freshSensor picks a sensor captured within window of t, preferring
// hot keys; ok is false when nothing qualifies yet.
func (g *generator) freshSensor(t, window uint64) (int64, bool) {
	for try := 0; try < 4; try++ {
		if s := g.draw(); g.listed[s] && t-g.captured[s] <= window {
			return s, true
		}
	}
	return g.freshest(t, window)
}

// freshest returns the newest capture when it lies within window of t.
// It is the newest sensor in capture order that qualifies: captures
// newer in the order are no older in time.
//
//rtic:noalloc
func (g *generator) freshest(t, window uint64) (int64, bool) {
	if s := g.newest; s >= 0 && t-g.captured[s] <= window {
		return int64(s), true
	}
	return 0, false
}

// staleSensor picks a sensor whose capture aged out of window; ok is
// false when every known sensor is fresh. The oldest capture is the
// first in capture order to age out, so it is the one picked.
//
//rtic:noalloc
func (g *generator) staleSensor(t, window uint64) (int64, bool) {
	if s := g.oldest; s >= 0 && t-g.captured[s] > window {
		return int64(s), true
	}
	return 0, false
}

// displace applies bounded late-arrival reordering: each op lands up to
// MaxReorder commits after its logical commit, preserving per-key op
// order so a row's delete never overtakes its insert. Commit
// timestamps are unchanged — a displaced op simply arrives (and is
// evaluated) later, exactly like a late CDC record.
//
// The transactions are carved out of one array of ops and one of
// values, each sized to the whole feed, so building them allocates per
// feed, not per commit.
func (g *generator) displace() []workload.Step {
	cfg, rng := &g.cfg, g.rng
	n := len(g.logicals)
	// last[k] is 1 + the commit the latest op on key k landed in, 0
	// before the first; land keys ops by relation and row.
	last := make([]int32, g.keyBase(relDerived)+int(g.nextDerived))
	landed := make([]int32, len(g.ops))
	from := 0
	for i, lc := range g.logicals {
		for j := from; j < lc.end; j++ {
			pos := i
			if cfg.MaxReorder > 0 && rng.Float64() < cfg.LateRate {
				pos = i + 1 + rng.Intn(cfg.MaxReorder)
				if pos > n-1 {
					pos = n - 1
				}
			}
			landed[j] = int32(g.land(last, g.ops[j], i, pos))
		}
		from = lc.end
	}

	// Sort the ops by the commit they landed in, keeping their order
	// within a commit: start[c] is where commit c's ops begin in order.
	start := make([]int32, n+1)
	for _, c := range landed {
		start[c+1]++
	}
	for c := 0; c < n; c++ {
		start[c+1] += start[c]
	}
	next := make([]int32, n)
	copy(next, start)
	order := make([]int32, len(g.ops))
	values := 0
	for j, c := range landed {
		order[next[c]] = int32(j)
		next[c]++
		values += g.ops[j].arity()
	}

	txs := make([]storage.Transaction, n)
	ops := make([]storage.Op, len(g.ops))
	slab := make([]value.Value, values)
	steps := make([]workload.Step, n)
	v := 0
	for c := range steps {
		lo, hi := start[c], start[c+1]
		nv := 0
		for _, j := range order[lo:hi] {
			nv += g.ops[j].arity()
		}
		tx := &txs[c]
		tx.Init(ops[lo:lo:hi], slab[v:v:v+nv])
		for _, j := range order[lo:hi] {
			g.emit(tx, g.ops[j])
		}
		v += nv
		steps[c] = workload.Step{Time: g.logicals[c].time, Tx: tx}
	}
	return steps
}

// keyBase is where relation r's keys start in displace's per-key
// positions: a unary relation's rows are the sensors and phantom
// sensors in [0, 2·Sensors); derived rows are keyed by their unique id.
func (g *generator) keyBase(r rel) int {
	if r == relDerived {
		return int(numRels) * 2 * g.cfg.Sensors
	}
	return int(r) * 2 * g.cfg.Sensors
}

// land places o, an op of logical commit i drawn to arrive at commit
// pos, no earlier than the latest op on its key, and counts its
// displacement. It returns the commit o lands in.
//
//rtic:noalloc
func (g *generator) land(last []int32, o op, i, pos int) int {
	k := g.keyBase(o.rel) + int(o.a)
	if p := int(last[k]) - 1; pos < p {
		pos = p
	}
	last[k] = int32(pos + 1)
	if d := pos - i; d > 0 {
		g.meta.Displaced++
		if d > g.meta.MaxDisplacement {
			g.meta.MaxDisplacement = d
		}
	}
	return pos
}

// arity is the number of values in o's row.
func (o op) arity() int {
	if o.rel == relDerived {
		return 2
	}
	return 1
}

// emit appends o to tx, which copies its row.
//
//rtic:noalloc
func (g *generator) emit(tx *storage.Transaction, o op) {
	g.row[0], g.row[1] = value.Int(o.a), value.Int(o.b)
	row := tuple.Tuple(g.row[:o.arity()])
	if o.insert {
		tx.Insert(relNames[o.rel], row)
	} else {
		tx.Delete(relNames[o.rel], row)
	}
}

// Render writes a history in the transaction-log format of
// internal/spec ("@t +rel(…) -rel(…)"), one commit per line — the
// canonical byte representation the golden-trace tests compare.
func Render(h workload.History) string {
	// Size the buffer for the widest timestamp and 16 bytes an op
	// ("+reading(1023)" and its separator take 15), so it rarely grows.
	n := 0
	for _, st := range h.Steps {
		n += 16 * st.Tx.Len()
	}
	if len(h.Steps) > 0 {
		n += len(h.Steps) * (3 + len(strconv.FormatUint(h.Steps[len(h.Steps)-1].Time, 10)))
	}
	return string(appendLines(make([]byte, 0, n), h.Steps))
}

// appendLines appends the rendered line of each step to dst.
//
//rtic:noalloc
func appendLines(dst []byte, steps []workload.Step) []byte {
	for _, st := range steps {
		dst = append(dst, '@')
		dst = strconv.AppendUint(dst, st.Time, 10)
		dst = append(dst, ' ')
		dst = st.Tx.AppendTo(dst)
		dst = append(dst, '\n')
	}
	return dst
}
