package shard

import (
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/engine"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/value"
)

// TestShardOfMatchesFNV holds the inline hash to hash/fnv's FNV-1a over
// v.Key(), the assignment snapshots and journals were written under.
func TestShardOfMatchesFNV(t *testing.T) {
	vals := []value.Value{
		value.Int(0), value.Int(1), value.Int(-1), value.Int(7), value.Int(-42),
		value.Int(math.MinInt64), value.Int(math.MaxInt64),
		value.Str(""), value.Str("a"), value.Str("café"), value.Str("日本語"), value.Str("a'b"),
		value.Str("i5"), value.Str("s"), value.Str("sx"), value.Str("i-9223372036854775808"),
		value.Str("\x00nul"), value.Str(strings.Repeat("long key ", 20)),
	}
	for _, n := range []int{2, 3, 8} {
		for _, v := range vals {
			h := fnv.New64a()
			h.Write([]byte(v.Key()))
			if got, want := shardOf(v, n), int(h.Sum64()%uint64(n)); got != want {
				t.Errorf("shardOf(%v, %d) = %d, hash/fnv over %q gives %d", v, n, got, v.Key(), want)
			}
		}
	}
}

// TestPartsMatchSplit: after every commit of the CDC corpus, Parts holds
// exactly the ops, shard by shard and in order, that a fresh Split of
// the committed transaction makes — the parts the journal writes are
// the allocating form's, while the router reuses its own.
func TestPartsMatchSplit(t *testing.T) {
	corpus := []cdcgen.Config{
		{Steps: 300, Seed: 7, Sensors: 24},
		{Steps: 100, Seed: 102, ViolationRate: 0.3},
		{Steps: 100, Seed: 104, BurstLen: 8, BurstEvery: 10, ViolationRate: 0.3},
		{Steps: 100, Seed: 106, MaxReorder: 5, LateRate: 0.6, ViolationRate: 0.2},
		{Steps: 100, Seed: 107, Sensors: 8, ZipfS: 3.0, ViolationRate: 0.2},
		{Steps: 100, Seed: 108, Sensors: 48, ZipfS: 1.05},
	}
	for _, cfg := range corpus {
		h, _ := cdcgen.Generate(cfg)
		for _, n := range []int{2, 3} {
			c, err := Build(h.Schema, n)
			if err != nil {
				t.Fatal(err)
			}
			r := c.(*Router)
			if err := engine.Install(r, h.Schema, h.Constraints); err != nil {
				t.Fatal(err)
			}
			for i, st := range h.Steps {
				if _, err := r.Step(st.Time, st.Tx); err != nil {
					t.Fatalf("seed %d, %d shards, step %d: %v", cfg.Seed, n, i, err)
				}
				parts, fresh := r.Parts(), r.Split(st.Tx)
				if len(parts) != n {
					t.Fatalf("seed %d, step %d: %d parts, want %d", cfg.Seed, i, len(parts), n)
				}
				for k := range parts {
					if got, want := parts[k].String(), fresh[k].String(); got != want {
						t.Fatalf("seed %d, %d shards, step %d, shard %d: Parts holds %q, Split makes %q", cfg.Seed, n, i, k, got, want)
					}
				}
			}
		}
	}
}

// TestRouteAllocatesNothing: once the router's parts have held a commit,
// routing the next one into them allocates nothing.
func TestRouteAllocatesNothing(t *testing.T) {
	s := testSchema(t)
	c, err := Build(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := c.(*Router)
	if err := r.AddConstraint(parse(t, s, "c", "p(x) -> not q(x)")); err != nil {
		t.Fatal(err)
	}
	tx := storage.NewTransaction()
	for i := int64(0); i < 16; i++ {
		tx.Insert("p", tuple.Ints(i)).Delete("r", tuple.Ints(i, i+1))
	}
	if _, err := r.Step(1, tx); err != nil {
		t.Fatal(err)
	}
	parts := r.Parts()
	if n := testing.AllocsPerRun(100, func() {
		for _, p := range parts {
			p.Reset()
		}
		r.route(tx, parts)
	}); n != 0 {
		t.Fatalf("routing a commit into reused parts: %.1f allocations, want 0", n)
	}
}
