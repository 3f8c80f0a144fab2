package shard

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rtic/internal/active"
	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/naive"
	"rtic/internal/obs"
	"rtic/internal/storage"
	"rtic/internal/tuple"
)

// canon renders violations in a canonical order for cross-engine
// comparison (within one constraint the engines report map-ordered
// witnesses).
func canon(vs []check.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Constraint + "|" + fmt.Sprint(v.Index) + "|" + fmt.Sprint(v.Time) + "|" + v.Binding.Key()
	}
	sort.Strings(out)
	return out
}

// randomTx mirrors the equivalence suite's generator: a few inserts
// and deletes over p/1, q/1, r/2 with a small value domain.
func randomTx(rng *rand.Rand) *storage.Transaction {
	tx := storage.NewTransaction()
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		v := int64(rng.Intn(6))
		w := int64(rng.Intn(6))
		rel := []string{"p", "q", "r"}[rng.Intn(3)]
		tup := tuple.Ints(v)
		if rel == "r" {
			tup = tuple.Ints(v, w)
		}
		if rng.Intn(4) == 0 {
			tx.Delete(rel, tup)
		} else {
			tx.Insert(rel, tup)
		}
	}
	return tx
}

var routerConstraintPool = []string{
	"p(x) -> not once[0,3] q(x)",
	"q(x) -> not prev[1,2] p(x)",
	"r(x, y) -> not once[0,4] q(y)",
	"p(x) -> not (once[0,5] q(x) and not r(x, x))",
	"r(x, y) -> not once[0,2] r(y, x)", // unpartitionable self-join
	"p(0) -> not once[0,3] q(0)",       // closed: global fallback
}

// TestRouterMatchesUnsharded is the in-package differential check: the
// same constraints and trace through a plain core checker and routers
// at several shard counts must agree on every step's violations, the
// final database, and the summed auxiliary entry/timestamp counts.
func TestRouterMatchesUnsharded(t *testing.T) {
	s := testSchema(t)
	for seed := int64(0); seed < 8; seed++ {
		for _, srcs := range [][]string{
			routerConstraintPool[:4],  // all partitionable
			routerConstraintPool[4:],  // all global
			routerConstraintPool[1:6], // mixed
		} {
			ref := core.New(s)
			var cons []*check.Constraint
			for i, src := range srcs {
				con := parse(t, s, fmt.Sprintf("c%d", i), src)
				cons = append(cons, con)
				if err := ref.AddConstraint(con); err != nil {
					t.Fatal(err)
				}
			}
			routers := make([]*Router, 0, 3)
			for _, n := range []int{1, 2, 8} {
				r, err := New(s, n, coreFactory(s))
				if err != nil {
					t.Fatal(err)
				}
				for _, con := range cons {
					if err := r.AddConstraint(con); err != nil {
						t.Fatal(err)
					}
				}
				routers = append(routers, r)
			}
			rng := rand.New(rand.NewSource(seed))
			tme := uint64(0)
			for step := 0; step < 30; step++ {
				tme += uint64(1 + rng.Intn(3))
				tx := randomTx(rng)
				want, err := ref.Step(tme, tx.Clone())
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range routers {
					got, err := r.Step(tme, tx.Clone())
					if err != nil {
						t.Fatalf("seed %d shards %d step %d: %v", seed, r.Shards(), step, err)
					}
					if !reflect.DeepEqual(canon(got), canon(want)) {
						t.Fatalf("seed %d shards %d step %d: violations diverge\ngot  %v\nwant %v",
							seed, r.Shards(), step, canon(got), canon(want))
					}
				}
			}
			for _, r := range routers {
				st, err := r.State()
				if err != nil {
					t.Fatal(err)
				}
				if want, _ := ref.State(); !st.Equal(want) {
					t.Fatalf("seed %d shards %d: final states diverge", seed, r.Shards())
				}
				rs, ws := r.Stats(), ref.Stats()
				if rs.Entries != ws.Entries || rs.Timestamps != ws.Timestamps {
					t.Fatalf("seed %d shards %d: aux sums diverge: entries %d/%d timestamps %d/%d",
						seed, r.Shards(), rs.Entries, ws.Entries, rs.Timestamps, ws.Timestamps)
				}
			}
		}
	}
}

// sortedVs clones vs sorted by (constraint, binding); the engines
// report witnesses within one constraint in map order, so exact
// comparison must canonicalize that one degree of freedom.
func sortedVs(vs []check.Violation) []check.Violation {
	out := append([]check.Violation(nil), vs...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Constraint != out[j].Constraint {
			return out[i].Constraint < out[j].Constraint
		}
		return out[i].Binding.Compare(out[j].Binding) < 0
	})
	return out
}

// TestRouterSingleShardBitIdentical pins the degenerate case: one
// shard must reproduce the wrapped engine exactly — full violation
// structs (modulo the engine's own map-ordered witness iteration) and
// the engine's own error text.
func TestRouterSingleShardBitIdentical(t *testing.T) {
	s := testSchema(t)
	ref := core.New(s)
	r, err := New(s, 1, coreFactory(s))
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range routerConstraintPool {
		con := parse(t, s, fmt.Sprintf("c%d", i), src)
		if err := ref.AddConstraint(con); err != nil {
			t.Fatal(err)
		}
		if err := r.AddConstraint(con); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	tme := uint64(0)
	for step := 0; step < 40; step++ {
		tme += uint64(1 + rng.Intn(2))
		tx := randomTx(rng)
		want, werr := ref.Step(tme, tx.Clone())
		got, gerr := r.Step(tme, tx.Clone())
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("step %d: error mismatch: %v vs %v", step, gerr, werr)
		}
		if !reflect.DeepEqual(sortedVs(got), sortedVs(want)) {
			t.Fatalf("step %d: violation slices differ\ngot  %v\nwant %v", step, got, want)
		}
	}
	// Stale timestamps and unknown relations must fail with the
	// engine's own error text.
	_, werr := ref.Step(1, storage.NewTransaction())
	_, gerr := r.Step(1, storage.NewTransaction())
	if werr == nil || gerr == nil || gerr.Error() != werr.Error() {
		t.Fatalf("stale-timestamp errors differ: %q vs %q", gerr, werr)
	}
	bad := storage.NewTransaction().Insert("nosuch", tuple.Ints(1))
	_, werr = ref.Step(tme+1, bad.Clone())
	_, gerr = r.Step(tme+1, bad.Clone())
	if werr == nil || gerr == nil || gerr.Error() != werr.Error() {
		t.Fatalf("unknown-relation errors differ: %q vs %q", gerr, werr)
	}
}

func TestRouterEdgeRouting(t *testing.T) {
	s := testSchema(t)
	r, err := New(s, 4, coreFactory(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddConstraint(parse(t, s, "c", "p(x) -> not once[0,3] q(x)")); err != nil {
		t.Fatal(err)
	}

	// A tuple too short to carry its partition column, and a relation
	// the plan does not know, both fall back to the global shard.
	if got := r.ShardFor("p", tuple.Of()); got != GlobalShard {
		t.Fatalf("ShardFor(short tuple) = %d, want global shard %d", got, GlobalShard)
	}
	if got := r.ShardFor("nosuch", tuple.Ints(1)); got != GlobalShard {
		t.Fatalf("ShardFor(unknown relation) = %d, want global shard %d", got, GlobalShard)
	}

	// A nil transaction is an empty commit on every shard.
	if vs, err := r.Step(1, nil); err != nil || len(vs) != 0 {
		t.Fatalf("Step(nil tx) = %v, %v", vs, err)
	}

	// Deleting a never-inserted tuple routes and commits cleanly.
	del := storage.NewTransaction().Delete("p", tuple.Ints(99)).Delete("r", tuple.Ints(1, 2))
	if vs, err := r.Step(2, del); err != nil || len(vs) != 0 {
		t.Fatalf("Step(delete absent) = %v, %v", vs, err)
	}
	st, err := r.State()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Equal(storage.NewState(s)) {
		t.Fatal("state not empty after deleting absent tuples")
	}

	// The split covers every op exactly once and routes each tuple to
	// its ShardFor shard.
	tx := storage.NewTransaction()
	for i := int64(0); i < 16; i++ {
		tx.Insert("p", tuple.Ints(i))
	}
	parts := r.Split(tx)
	total := 0
	for i, p := range parts {
		for _, op := range p.Ops() {
			if want := r.ShardFor(op.Rel, op.Tuple); want != i {
				t.Fatalf("op %v landed on shard %d, want %d", op, i, want)
			}
		}
		total += p.Len()
	}
	if total != tx.Len() {
		t.Fatalf("split covers %d ops, want %d", total, tx.Len())
	}
}

func TestRouterSealsAndRejects(t *testing.T) {
	s := testSchema(t)
	if _, err := New(s, 0, coreFactory(s)); err == nil {
		t.Fatal("New with 0 shards succeeded")
	}
	if _, err := New(nil, 2, coreFactory(s)); err == nil {
		t.Fatal("New with nil schema succeeded")
	}
	if _, err := New(s, 2, nil); err == nil {
		t.Fatal("New with nil factory succeeded")
	}
	r, err := New(s, 2, coreFactory(s))
	if err != nil {
		t.Fatal(err)
	}
	con := parse(t, s, "c", "p(x) -> not q(x)")
	if err := r.AddConstraint(con); err != nil {
		t.Fatal(err)
	}
	if err := r.AddConstraint(con); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate AddConstraint: %v", err)
	}
	if _, err := r.Step(1, storage.NewTransaction().Insert("p", tuple.Ints(1))); err != nil {
		t.Fatal(err)
	}
	if err := r.AddConstraint(parse(t, s, "late", "q(x) -> not p(x)")); err == nil {
		t.Fatal("AddConstraint after the first commit succeeded")
	}
	if got := r.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	if got := r.Now(); got != 1 {
		t.Fatalf("Now = %d, want 1", got)
	}
	if got := r.ConstraintNames(); len(got) != 1 || got[0] != "c" {
		t.Fatalf("ConstraintNames = %v", got)
	}
}

func TestRouterObserverMetrics(t *testing.T) {
	s := testSchema(t)
	r, err := New(s, 3, coreFactory(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddConstraint(parse(t, s, "part", "p(x) -> not once[0,3] q(x)")); err != nil {
		t.Fatal(err)
	}
	// Closed, so it goes global — but it only touches r, leaving the
	// partitionable constraint over p/q alone.
	if err := r.AddConstraint(parse(t, s, "glob", "r(0, 0) -> not once[0,3] r(0, 1)")); err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics(obs.NewRegistry())
	r.SetObserver(&obs.Observer{Metrics: m})
	if got := m.Shards.Value(); got != 3 {
		t.Fatalf("rtic_shards = %d, want 3", got)
	}
	if got := m.ShardGlobalConstraints.Value(); got != 1 {
		t.Fatalf("global fallback gauge = %d, want 1", got)
	}
	tx := storage.NewTransaction().Insert("q", tuple.Ints(1)).Insert("q", tuple.Ints(2))
	if _, err := r.Step(1, tx); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Step(2, storage.NewTransaction().Insert("p", tuple.Ints(1))); err != nil {
		t.Fatal(err)
	}
	if got := m.Commits.Value(); got != 2 {
		t.Fatalf("rtic_commits_total = %d, want 2", got)
	}
	var shardCommits, routed uint64
	for i := 0; i < 3; i++ {
		shardCommits += m.ShardCommits.With(fmt.Sprint(i)).Value()
		routed += m.ShardOpsRouted.With(fmt.Sprint(i)).Value()
	}
	if shardCommits != 6 { // every shard steps at every commit
		t.Fatalf("shard commits = %d, want 6", shardCommits)
	}
	if routed != 3 {
		t.Fatalf("ops routed = %d, want 3", routed)
	}
	if got := m.Violations.With("part").Value(); got != 1 {
		t.Fatalf("violations{part} = %d, want 1", got)
	}
}

// TestRouterObserverBeforeConstraints attaches metrics before any
// constraint: the constraints added after still have their violations
// counted, and the plan gauges follow them.
func TestRouterObserverBeforeConstraints(t *testing.T) {
	s := testSchema(t)
	r, err := New(s, 3, coreFactory(s))
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics(obs.NewRegistry())
	r.SetObserver(&obs.Observer{Metrics: m})
	if err := r.AddConstraint(parse(t, s, "part", "p(x) -> not once[0,3] q(x)")); err != nil {
		t.Fatal(err)
	}
	if err := r.AddConstraint(parse(t, s, "glob", "r(0, 0) -> not once[0,3] r(0, 1)")); err != nil {
		t.Fatal(err)
	}
	if got := m.ShardGlobalConstraints.Value(); got != 1 {
		t.Fatalf("global fallback gauge = %d, want 1", got)
	}
	if _, err := r.Step(1, storage.NewTransaction().Insert("q", tuple.Ints(1)).Insert("r", tuple.Ints(0, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Step(2, storage.NewTransaction().Insert("p", tuple.Ints(1)).Insert("r", tuple.Ints(0, 0))); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"part", "glob"} {
		if got := m.Violations.With(name).Value(); got != 1 {
			t.Errorf("violations{%s} = %d, want 1", name, got)
		}
	}
}

// TestRouterModes runs the naive and active engines behind the router
// against their unsharded selves.
func TestRouterModes(t *testing.T) {
	s := testSchema(t)
	srcs := []string{"p(x) -> not once[0,3] q(x)", "r(x, y) -> not once[0,2] r(y, x)"}
	engines := []struct {
		name    string
		factory Factory
	}{
		{"naive", func() engine.Engine { return naive.New(s) }},
		{"active", func() engine.Engine { return active.New(s) }},
	}
	for _, e := range engines {
		ref := e.factory()
		r, err := New(s, 2, e.factory)
		if err != nil {
			t.Fatal(err)
		}
		for i, src := range srcs {
			con := parse(t, s, fmt.Sprintf("c%d", i), src)
			if err := ref.AddConstraint(con); err != nil {
				t.Fatal(err)
			}
			if err := r.AddConstraint(con); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(11))
		tme := uint64(0)
		for step := 0; step < 25; step++ {
			tme += uint64(1 + rng.Intn(2))
			tx := randomTx(rng)
			want, err := ref.Step(tme, tx.Clone())
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Step(tme, tx.Clone())
			if err != nil {
				t.Fatalf("%s step %d: %v", e.name, step, err)
			}
			if !reflect.DeepEqual(canon(got), canon(want)) {
				t.Fatalf("%s step %d: violations diverge\ngot  %v\nwant %v", e.name, step, canon(got), canon(want))
			}
		}
	}
}

// TestRouterEmptyShardStepsKeepWindowsExact is the counterexample that
// motivated committing empty sub-transactions: if a shard skipped the
// timestamps it holds no data for, its window arithmetic would drift
// from the unsharded engine's.
func TestRouterEmptyShardStepsKeepWindowsExact(t *testing.T) {
	s := testSchema(t)
	src := "p(x) -> not once[0,3] q(x)"
	ref := core.New(s)
	r, err := New(s, 8, coreFactory(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AddConstraint(parse(t, s, "c", src)); err != nil {
		t.Fatal(err)
	}
	if err := r.AddConstraint(parse(t, s, "c", src)); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		t  uint64
		tx *storage.Transaction
	}{
		{1, storage.NewTransaction().Insert("q", tuple.Ints(1))},
		{2, storage.NewTransaction().Insert("q", tuple.Ints(2))}, // other shard traffic
		{3, storage.NewTransaction()},
		{6, storage.NewTransaction().Insert("p", tuple.Ints(1))}, // q(1) at t=1 is outside [3,6]
		{7, storage.NewTransaction().Insert("q", tuple.Ints(1))},
		{8, storage.NewTransaction().Insert("p", tuple.Ints(1)).Delete("p", tuple.Ints(1)).Insert("p", tuple.Ints(1))},
	}
	for _, st := range steps {
		want, err := ref.Step(st.t, st.tx.Clone())
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Step(st.t, st.tx.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(canon(got), canon(want)) {
			t.Fatalf("t=%d: violations diverge\ngot  %v\nwant %v", st.t, canon(got), canon(want))
		}
	}
}

// failingEngine is a shard engine whose commits fail from a given
// timestamp on, standing in for a shard that breaks mid-history.
type failingEngine struct {
	engine.Engine
	failFrom uint64
}

func (f *failingEngine) Step(t uint64, tx *storage.Transaction) ([]check.Violation, error) {
	if t >= f.failFrom {
		return nil, fmt.Errorf("disk on fire at t=%d", t)
	}
	return f.Engine.Step(t, tx)
}

// TestRouterBrokenLatch: a shard failing after validation latches the
// router — the error names the first failing shard in shard order, and
// every later commit and snapshot is refused with that cause.
func TestRouterBrokenLatch(t *testing.T) {
	s := testSchema(t)
	built := 0
	r, err := New(s, 3, func() engine.Engine {
		built++
		// AddConstraint probes with one throwaway engine first; of the
		// three the seal builds, shards 1 and 2 fail from t=2.
		if built >= 3 {
			return &failingEngine{Engine: core.New(s), failFrom: 2}
		}
		return core.New(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddConstraint(parse(t, s, "part", "p(x) -> not once[0,3] q(x)")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Step(1, storage.NewTransaction().Insert("q", tuple.Ints(1))); err != nil {
		t.Fatal(err)
	}
	_, err = r.Step(2, storage.NewTransaction().Insert("p", tuple.Ints(1)))
	if err == nil || !strings.Contains(err.Error(), "shard 1: disk on fire at t=2") {
		t.Fatalf("failing commit: err = %v, want shard 1's failure", err)
	}
	if r.Now() != 1 || r.Len() != 1 {
		t.Errorf("failed commit advanced the router: now=%d len=%d", r.Now(), r.Len())
	}
	_, err = r.Step(3, storage.NewTransaction())
	if err == nil || !strings.Contains(err.Error(), "router unusable after earlier shard failure: shard 1") {
		t.Fatalf("commit after failure: err = %v, want the latch", err)
	}
	if err := r.SaveSnapshot(io.Discard); err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("snapshot after failure: err = %v, want the latch", err)
	}
}

// TestRouterAuxGaugeUpkeepAllocationFree pins the per-commit storage
// gauge upkeep — summed from the shard engines' running accounts — at
// zero allocations.
func TestRouterAuxGaugeUpkeepAllocationFree(t *testing.T) {
	s := testSchema(t)
	r, err := New(s, 2, coreFactory(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddConstraint(parse(t, s, "part", "p(x) -> not once[0,3] q(x)")); err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics(obs.NewRegistry())
	r.SetObserver(&obs.Observer{Metrics: m})
	rng := rand.New(rand.NewSource(5))
	for i := 1; i <= 50; i++ {
		if _, err := r.Step(uint64(i), randomTx(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); m.AuxEntries.Value() != int64(st.Entries) || m.AuxBytes.Value() != int64(st.Bytes) {
		t.Fatalf("gauges entries=%d bytes=%d, full walk %d/%d", m.AuxEntries.Value(), m.AuxBytes.Value(), st.Entries, st.Bytes)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.publishAuxGauges(m) }); allocs != 0 {
		t.Errorf("gauge upkeep allocates %.0f objects per commit, want 0", allocs)
	}
}
