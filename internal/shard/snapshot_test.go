package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/naive"
	"rtic/internal/schema"
	"rtic/internal/tuple"
	"rtic/internal/workload"
)

// naiveFactory builds the specification engine for one shard: a router
// the paper's checker does not back.
func naiveFactory(s *schema.Schema) Factory {
	return func() engine.Engine { return naive.New(s) }
}

// cdcFeed is the snapshot corpus: bursty, reordered CDC traffic with
// injected violations over three partitionable freshness constraints.
func cdcFeed() workload.History {
	h, _ := cdcgen.Generate(cdcgen.Config{
		Steps: 60, Seed: 11,
		BurstLen: 6, BurstEvery: 9,
		MaxReorder:    2,
		ViolationRate: 0.2,
	})
	return h
}

// feedRouter builds an n-shard incremental router over h's constraints
// and commits the first steps of the feed.
func feedRouter(t *testing.T, h workload.History, n, steps int) *Router {
	t.Helper()
	r, err := New(h.Schema, n, coreFactory(h.Schema))
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range h.Constraints {
		con, err := check.Parse(cs.Name, cs.Source, h.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.AddConstraint(con); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range h.Steps[:steps] {
		if _, err := r.Step(st.Time, st.Tx); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func saveRouter(t *testing.T, r *Router) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRouterSnapshotRoundTrip snapshots a router mid-feed, at a step
// where auxiliary state is live, and requires the restored router to be
// the live one: same clock, same merged database, same auxiliary
// statistics, and the same violations on every remaining step.
func TestRouterSnapshotRoundTrip(t *testing.T) {
	h := cdcFeed()
	for _, n := range []int{2, 3} {
		for _, at := range []int{0, 1, len(h.Steps) / 2} {
			live := feedRouter(t, h, n, at)
			c, err := Restore(h.Schema, bytes.NewReader(saveRouter(t, live)), n, nil)
			if err != nil {
				t.Fatalf("shards=%d at=%d: %v", n, at, err)
			}
			restored := c.(*Router)
			if restored.Now() != live.Now() || restored.Len() != live.Len() || restored.Shards() != n {
				t.Fatalf("shards=%d at=%d: restored at (t=%d, len=%d), live at (t=%d, len=%d)",
					n, at, restored.Now(), restored.Len(), live.Now(), live.Len())
			}
			if !reflect.DeepEqual(restored.ConstraintNames(), live.ConstraintNames()) {
				t.Fatalf("shards=%d at=%d: constraints %v, want %v", n, at, restored.ConstraintNames(), live.ConstraintNames())
			}
			violations := 0
			for i, st := range h.Steps[at:] {
				want, err := live.Step(st.Time, st.Tx)
				if err != nil {
					t.Fatal(err)
				}
				got, err := restored.Step(st.Time, st.Tx)
				if err != nil {
					t.Fatalf("shards=%d at=%d: restored router rejects step %d: %v", n, at, at+i, err)
				}
				if !reflect.DeepEqual(canon(got), canon(want)) {
					t.Fatalf("shards=%d at=%d step %d: violations %v, want %v", n, at, at+i, canon(got), canon(want))
				}
				violations += len(want)
				gs, err := restored.State()
				if err != nil {
					t.Fatal(err)
				}
				ws, err := live.State()
				if err != nil {
					t.Fatal(err)
				}
				if !gs.Equal(ws) {
					t.Fatalf("shards=%d at=%d step %d: merged states diverge", n, at, at+i)
				}
				if !reflect.DeepEqual(restored.Stats(), live.Stats()) {
					t.Fatalf("shards=%d at=%d step %d: stats %+v, want %+v", n, at, at+i, restored.Stats(), live.Stats())
				}
			}
			if violations == 0 {
				t.Fatalf("shards=%d at=%d: the feed raised no violation after the snapshot; the comparison is vacuous", n, at)
			}
		}
	}
}

// TestRouterSnapshotRejectsDamage cuts the envelope at every length and
// flips one bit at every byte, and sends a payload with bytes after its
// last shard snapshot under a checksum that matches: no damaged or
// malformed file may load.
func TestRouterSnapshotRejectsDamage(t *testing.T) {
	h := cdcFeed()
	raw := saveRouter(t, feedRouter(t, h, 2, 20))
	long := append(append([]byte(nil), raw[20:]...), 0xde, 0xad)
	hdr := append([]byte(nil), raw[:20]...)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(long)))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.Checksum(long, snapshotCRC))
	if _, err := LoadSnapshot(h.Schema, bytes.NewReader(append(hdr, long...)), 2); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("a payload with trailing bytes: %v", err)
	}
	for cut := 0; cut < len(raw); cut++ {
		if _, err := LoadSnapshot(h.Schema, bytes.NewReader(raw[:cut]), 2); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes loaded", cut, len(raw))
		}
	}
	for i := range raw {
		dam := append([]byte(nil), raw...)
		dam[i] ^= 0x10
		if _, err := LoadSnapshot(h.Schema, bytes.NewReader(dam), 2); err == nil {
			t.Fatalf("snapshot with a bit flipped in byte %d of %d loaded", i, len(raw))
		}
	}
}

// TestRewriteSnapshot: passing every shard's snapshot through unchanged
// rewrites the router's checkpoint byte for byte, a shard the converter
// refuses is named, and an unsharded checker's snapshot is no router's.
func TestRewriteSnapshot(t *testing.T) {
	h := cdcFeed()
	raw := saveRouter(t, feedRouter(t, h, 3, 20))
	var out bytes.Buffer
	seen := 0
	if err := RewriteSnapshot(bytes.NewReader(raw), &out, func(i int, snap []byte) ([]byte, error) {
		if i != seen || !bytes.HasPrefix(snap, coreMagic) {
			t.Fatalf("shard %d handed over as shard %d, opening %q", seen, i, snap[:min(len(snap), 8)])
		}
		seen++
		return snap, nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 3 || !bytes.Equal(out.Bytes(), raw) {
		t.Fatalf("identity rewrite saw %d shards; output equal to input: %v", seen, bytes.Equal(out.Bytes(), raw))
	}
	err := RewriteSnapshot(bytes.NewReader(raw), io.Discard, func(i int, snap []byte) ([]byte, error) {
		if i == 1 {
			return nil, errors.New("refused")
		}
		return snap, nil
	})
	if err == nil || err.Error() != "shard 1: refused" {
		t.Fatalf("a refused shard: %v", err)
	}
	live := feedRouter(t, h, 1, 5)
	var one bytes.Buffer
	if err := live.engines[0].(*core.Checker).SaveSnapshot(&one); err != nil {
		t.Fatal(err)
	}
	if err := RewriteSnapshot(&one, io.Discard, nil); err == nil || !strings.Contains(err.Error(), "unsharded checker") {
		t.Fatalf("an unsharded checker's snapshot: %v", err)
	}
}

// TestRouterSnapshotMismatches covers the loads that must fail with
// both sides named: another shard count (one included), another
// partition plan, and shards at different clocks.
func TestRouterSnapshotMismatches(t *testing.T) {
	h := cdcFeed()
	live := feedRouter(t, h, 2, 20)
	raw := saveRouter(t, live)

	_, err := LoadSnapshot(h.Schema, bytes.NewReader(raw), 4)
	if err == nil || !strings.Contains(err.Error(), "written by 2 shards") || !strings.Contains(err.Error(), "configured with 4") {
		t.Fatalf("shard-count mismatch: err = %v, want both counts named", err)
	}
	// Restored as one shard, the envelope names the shard count it was
	// written with, and no flag: the library has none.
	c, err := Restore(h.Schema, bytes.NewReader(raw), 1, nil)
	var ce *CountError
	if err == nil || c != nil || !errors.As(err, &ce) || *ce != (CountError{Written: 2, Configured: 1}) ||
		err.Error() != "shard: snapshot was written by 2 shards, this checker is unsharded" {
		t.Fatalf("2-shard snapshot restored as one shard = (%v, %v), want both shard counts and no flag", c, err)
	}

	// A schema with one more relation plans one more placement.
	b := schema.NewBuilder()
	for _, name := range h.Schema.Names() {
		arity, _ := h.Schema.Arity(name)
		b.Relation(name, arity)
	}
	wider := b.Relation("zz_extra", 1).MustBuild()
	_, err = LoadSnapshot(wider, bytes.NewReader(raw), 2)
	if err == nil || !strings.Contains(err.Error(), live.planFingerprint()) || !strings.Contains(err.Error(), "zz_extra/0") {
		t.Fatalf("plan mismatch: err = %v, want both fingerprints named", err)
	}

	// Shards that disagree on the clock are not a consistent cut.
	behind := saveRouter(t, feedRouter(t, h, 2, 19))
	if _, err := LoadSnapshot(h.Schema, bytes.NewReader(spliceShard(t, raw, behind, 1)), 2); err == nil || !strings.Contains(err.Error(), "consistent cut") {
		t.Fatalf("mixed-clock shards: err = %v, want a consistent-cut complaint", err)
	}
}

// spliceShard returns envelope a with shard i's snapshot replaced by
// the one in envelope b, re-framed with a valid checksum.
func spliceShard(t *testing.T, a, b []byte, i int) []byte {
	t.Helper()
	fields := func(raw []byte) (head []byte, shards [][]byte) {
		p := raw[20:]
		take := func() []byte {
			n, w := binary.Uvarint(p)
			f := p[w : w+int(n)]
			p = p[w+int(n):]
			return f
		}
		_, w := binary.Uvarint(p) // shard count
		start := p
		p = p[w:]
		take() // fingerprint
		head = start[:len(start)-len(p)]
		for len(p) > 0 {
			shards = append(shards, take())
		}
		return head, shards
	}
	head, sa := fields(a)
	_, sb := fields(b)
	sa[i] = sb[i]
	payload := append([]byte(nil), head...)
	for _, s := range sa {
		payload = binary.AppendUvarint(payload, uint64(len(s)))
		payload = append(payload, s...)
	}
	out := append([]byte(nil), snapshotMagic[:]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, snapshotCRC))
	return append(out, payload...)
}

// TestRouterSnapshotPreconditions covers the routers that cannot be
// snapshotted: a non-incremental engine, and a checker snapshot offered
// as a router's.
func TestRouterSnapshotPreconditions(t *testing.T) {
	h := cdcFeed()
	r, err := New(h.Schema, 2, naiveFactory(h.Schema))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.SaveSnapshot(&buf); err == nil || !strings.Contains(err.Error(), "incremental") {
		t.Fatalf("naive router snapshot: err = %v, want an incremental-engine complaint", err)
	}

	// An unsharded checker snapshot is a different file type, and the
	// complaint names both shard counts.
	buf.Reset()
	if err := feedRouter(t, h, 1, 5).engines[0].(*core.Checker).SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var ce *CountError
	if _, err := LoadSnapshot(h.Schema, &buf, 2); err == nil || !errors.As(err, &ce) || *ce != (CountError{Written: 1, Configured: 2}) ||
		!strings.Contains(err.Error(), "written by an unsharded checker, this router is configured with 2") {
		t.Fatalf("checker snapshot as a router's: err = %v, want both shard counts named", err)
	}
	// A failed Restore returns no checker at either shape: not a nil
	// *core.Checker or *Router inside a non-nil interface.
	for _, n := range []int{1, 2} {
		if c, err := Restore(h.Schema, strings.NewReader("not a snapshot"), n, nil); err == nil || c != nil {
			t.Fatalf("Restore(shards=%d) of garbage = (%v, %v), want (nil, error)", n, c, err)
		}
	}
}

// TestBuildAndExplainRefusals covers the shape rule — Build returns a
// bare core checker for one shard and a router for more — and what
// a router refuses to explain: an unknown constraint, a witness that
// does not bind the constraint's partition key, and a shard that is not
// the incremental engine.
func TestBuildAndExplainRefusals(t *testing.T) {
	h := cdcFeed()
	for n, want := range map[int]string{0: "*core.Checker", 1: "*core.Checker", 2: "*shard.Router"} {
		e, err := Build(h.Schema, n)
		if got := fmt.Sprintf("%T", e); err != nil || got != want {
			t.Fatalf("Build(shards=%d) = (%s, %v), want a %s", n, got, err, want)
		}
	}
	if c, err := Build(nil, 2); err == nil || c != nil {
		t.Fatalf("Build(nil schema, shards=2) = (%v, %v), want (nil, error)", c, err)
	}
	r := feedRouter(t, h, 2, 5)
	key := check.Violation{Constraint: "fresh_serve", Time: r.Now(), Vars: []string{"s"}, Binding: tuple.Ints(3)}
	for _, c := range []struct {
		v    check.Violation
		want string
	}{
		{check.Violation{Constraint: "nope", Time: r.Now()}, "unknown constraint"},
		{check.Violation{Constraint: "fresh_serve", Time: r.Now()}, "does not bind its partition key s"},
	} {
		if _, err := r.Explain(c.v); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Explain(%+v): err = %v, want %q", c.v, err, c.want)
		}
	}
	if _, err := r.Explain(key); err != nil {
		t.Fatalf("Explain of a bound key on an incremental router: %v", err)
	}
	naive, err := New(h.Schema, 2, naiveFactory(h.Schema))
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range h.Constraints {
		if err := naive.AddConstraint(parse(t, h.Schema, cs.Name, cs.Source)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := naive.Step(1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := naive.Explain(key); err == nil || !strings.Contains(err.Error(), "needs the incremental engine") {
		t.Fatalf("Explain on a naive router: err = %v, want an incremental-engine complaint", err)
	}
}
