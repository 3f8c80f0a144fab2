package rtic

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/shard"
	"rtic/internal/workload"
)

func TestShardsAccessor(t *testing.T) {
	s := hrSchema(t)
	c, err := NewChecker(s, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	// n<=1 selects the plain unsharded engine, not a one-shard router.
	c, _ = NewChecker(s, WithShards(1))
	if got := c.Shards(); got != 1 {
		t.Fatalf("WithShards(1): Shards() = %d, want 1", got)
	}
	c, _ = NewChecker(s)
	if got := c.Shards(); got != 1 {
		t.Fatalf("default Shards() = %d, want 1", got)
	}
}

func TestShardedCheckerEquivalence(t *testing.T) {
	build := func(opts ...Option) *Checker {
		c, err := NewChecker(hrSchema(t), opts...)
		if err != nil {
			t.Fatal(err)
		}
		c.MustAddConstraint("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)")
		c.MustAddConstraint("no_refire", "fire(e) -> not once[0,100] fire(e)")
		return c
	}
	plain, sharded := build(), build(WithShards(3))
	r := rand.New(rand.NewSource(83))
	tm := uint64(0)
	for i := 0; i < 100; i++ {
		tm += uint64(1 + r.Intn(20))
		e := int64(r.Intn(6))
		rel := "hire"
		if r.Intn(2) == 0 {
			rel = "fire"
		}
		want, err := plain.Begin().Insert(rel, Int(e)).Commit(tm)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got, err := sharded.Begin().Insert(rel, Int(e)).Commit(tm)
		if err != nil {
			t.Fatalf("step %d (sharded): %v", i, err)
		}
		cg, cw := canonViolations(got), canonViolations(want)
		if len(cg) != len(cw) {
			t.Fatalf("step %d: %v vs %v", i, got, want)
		}
		for k := range cg {
			if cg[k] != cw[k] {
				t.Fatalf("step %d: %v vs %v", i, got, want)
			}
		}
	}
	// Tracked bindings live on exactly one shard each, so the summed
	// auxiliary entries match the unsharded engine exactly.
	ps, ss := plain.Stats(), sharded.Stats()
	if ps.Entries != ss.Entries || ps.Timestamps != ss.Timestamps {
		t.Fatalf("aux sums diverge: plain=%+v sharded=%+v", ps, ss)
	}
	// Queries read the merged state across shards.
	pq, err := plain.Query("hire(e) and not fire(e)")
	if err != nil {
		t.Fatal(err)
	}
	sq, err := sharded.Query("hire(e) and not fire(e)")
	if err != nil {
		t.Fatal(err)
	}
	if len(pq.Rows) != len(sq.Rows) {
		t.Fatalf("query rows: plain=%v sharded=%v", pq.Rows, sq.Rows)
	}
	for i := range pq.Rows {
		if pq.Rows[i].Key() != sq.Rows[i].Key() {
			t.Fatalf("query row %d: %v vs %v", i, pq.Rows[i], sq.Rows[i])
		}
	}
}

// parityFeeds are the histories the sharded checker is held to the
// unsharded one on: hr, whose one constraint partitions by employee,
// and a cdcgen feed plus a closed constraint the shard analysis must
// place on the global shard, which drags the staleness policy there
// with it while the freshness policies stay partitioned.
func parityFeeds() map[string]workload.History {
	hr := workload.HR(workload.HRConfig{Steps: 300, Seed: 5, ViolationRate: 0.3, Employees: 12})
	cdc, _ := cdcgen.Generate(cdcgen.Config{Steps: 400, Seed: 9, MaxReorder: 2, ViolationRate: 0.05})
	cdc.Constraints = append(cdc.Constraints, workload.ConstraintSpec{
		Name:   "escalation_marked",
		Source: "(exists s: escalate(s)) -> once[0,64] (exists m: mark(m))",
	})
	return map[string]workload.History{"hr": hr, "cdc": cdc}
}

// explained renders the Explain of each violation in vs, sorted.
func explained(t *testing.T, c *Checker, vs []Violation) []string {
	t.Helper()
	out := make([]string, len(vs))
	for i, v := range vs {
		ex, err := c.Explain(v)
		if err != nil {
			t.Fatalf("Explain(%s) on %d shards: %v", v, c.Shards(), err)
		}
		out[i] = ex.String()
	}
	sort.Strings(out)
	return out
}

// TestShardedCheckerParity holds a sharded checker to the unsharded one
// on everything the paper's checker answers: at every commit the same
// violations, each explained the same; and a snapshot taken mid-run,
// restored under the same shard count, continues to the uninterrupted
// run's violations. A restore under another shard count is an error.
func TestShardedCheckerParity(t *testing.T) {
	for name, h := range parityFeeds() {
		build := func(opts ...Option) *Checker {
			c, err := NewChecker(h.Schema, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, cs := range h.Constraints {
				c.MustAddConstraint(cs.Name, cs.Source)
			}
			return c
		}
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, n), func(t *testing.T) {
				plain, sharded := build(), build(WithShards(n))
				// partitioned says where the router placed each constraint
				// (false: the global shard); hits counts violations by it.
				partitioned := map[string]bool{}
				if r, ok := sharded.eng.(*shard.Router); ok {
					for i, cp := range r.Plan().Cons {
						partitioned[h.Constraints[i].Name] = cp.Partitioned
					}
				}
				hits := map[bool]int{}
				cut := len(h.Steps) / 2
				for i, st := range h.Steps {
					if i == cut {
						var snap bytes.Buffer
						if err := sharded.SaveSnapshot(&snap); err != nil {
							t.Fatalf("SaveSnapshot at step %d: %v", i, err)
						}
						raw := snap.Bytes()
						other := 1 + n%4 // 2 for 1, 3 for 2, 1 for 4
						if _, err := RestoreChecker(h.Schema, bytes.NewReader(raw), WithShards(other)); err == nil {
							t.Fatalf("a %d-shard snapshot restored under WithShards(%d)", n, other)
						}
						restored, err := RestoreChecker(h.Schema, bytes.NewReader(raw), WithShards(n))
						if err != nil {
							t.Fatalf("RestoreChecker(WithShards(%d)): %v", n, err)
						}
						if restored.Shards() != n || len(restored.Constraints()) != len(h.Constraints) {
							t.Fatalf("restored %d shards running %v, want %d running all of %v", restored.Shards(), restored.Constraints(), n, h.Constraints)
						}
						sharded = restored
					}
					want, err := (&Tx{c: plain, tx: st.Tx}).Commit(st.Time)
					if err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					got, err := (&Tx{c: sharded, tx: st.Tx}).Commit(st.Time)
					if err != nil {
						t.Fatalf("step %d on %d shards: %v", i, n, err)
					}
					if g, w := canonViolations(got), canonViolations(want); strings.Join(g, " ") != strings.Join(w, " ") {
						t.Fatalf("step %d: %d shards report %v, unsharded %v", i, n, g, w)
					}
					g, w := explained(t, sharded, got), explained(t, plain, want)
					for k := range w {
						if g[k] != w[k] {
							t.Fatalf("step %d: %d shards explain\n%s\nunsharded\n%s", i, n, g[k], w[k])
						}
					}
					for _, v := range want {
						hits[partitioned[v.Constraint]]++
					}
				}
				if hits[true]+hits[false] == 0 {
					t.Fatal("the feed produced no violations to explain")
				}
				if name == "cdc" && n > 1 && (hits[true] == 0 || hits[false] == 0) {
					t.Fatalf("plan %v: %d violations of partitioned constraints, %d of global ones; want some of each",
						partitioned, hits[true], hits[false])
				}
			})
		}
	}
}
