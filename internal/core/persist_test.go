package core

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/check"
	"rtic/internal/formgen"
	"rtic/internal/naive"
	"rtic/internal/schema"
	"rtic/internal/storage"
)

// snapshotRoundTrip saves c and loads it back over the same schema.
func snapshotRoundTrip(t *testing.T, c *Checker, s *schema.Schema) *Checker {
	t.Helper()
	var buf bytes.Buffer
	if err := c.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSnapshot(s, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

func TestSnapshotMidHistoryEquivalence(t *testing.T) {
	// Run half a random history, snapshot, restore, run the second half
	// on both the original and the restored checker — and on the naive
	// full-history reference. All three must agree step by step.
	s := equivSchema()
	srcs := []string{
		"p(x) -> not once[0,6] q(x)",
		"p(x) -> not (q(x) since[0,5] p(x))",
		"q(x) -> not prev p(x)",
		"p(x) leadsto[0,4] q(x)",
	}
	for seed := int64(100); seed < 106; seed++ {
		r := rand.New(rand.NewSource(seed))
		orig := New(s)
		ref := naive.New(s)
		for i, src := range srcs {
			name := "c" + string(rune('0'+i))
			con, err := check.Parse(name, src, s)
			if err != nil {
				t.Fatal(err)
			}
			if err := orig.AddConstraint(con); err != nil {
				t.Fatal(err)
			}
			con2, _ := check.Parse(name, src, s)
			if err := ref.AddConstraint(con2); err != nil {
				t.Fatal(err)
			}
		}

		tm := uint64(0)
		for i := 0; i < 20; i++ {
			tm += uint64(1 + r.Intn(2))
			tx := randomTx(r, 3)
			if _, err := orig.Step(tm, tx.Clone()); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if _, err := ref.Step(tm, tx); err != nil {
				t.Fatalf("seed %d: naive: %v", seed, err)
			}
		}

		restored := snapshotRoundTrip(t, orig, s)
		if restored.Len() != orig.Len() || restored.Now() != orig.Now() {
			t.Fatalf("seed %d: restored clock %d/%d vs %d/%d",
				seed, restored.Len(), restored.Now(), orig.Len(), orig.Now())
		}

		for i := 0; i < 20; i++ {
			tm += uint64(1 + r.Intn(2))
			tx := randomTx(r, 3)
			a, err := orig.Step(tm, tx.Clone())
			if err != nil {
				t.Fatalf("seed %d: original: %v", seed, err)
			}
			b, err := restored.Step(tm, tx.Clone())
			if err != nil {
				t.Fatalf("seed %d: restored: %v", seed, err)
			}
			w, err := ref.Step(tm, tx)
			if err != nil {
				t.Fatalf("seed %d: naive: %v", seed, err)
			}
			ca, cb, cw := canon(a), canon(b), canon(w)
			if !sameCanon(ca, cb) {
				t.Fatalf("seed %d step %d: restored diverged: %v vs %v", seed, i, cb, ca)
			}
			if !sameCanon(ca, cw) {
				t.Fatalf("seed %d step %d: vs naive: %v vs %v", seed, i, ca, cw)
			}
		}
	}
}

func TestSnapshotPreservesStats(t *testing.T) {
	s := hrSchema()
	c := New(s)
	addConstraint(t, c, s, "c", "p(x) -> not once[0,50] q(x)")
	tm := uint64(1)
	for i := int64(0); i < 20; i++ {
		mustStep(t, c, tm, ins("q", i%4))
		tm++
	}
	restored := snapshotRoundTrip(t, c, s)
	a, b := c.Stats(), restored.Stats()
	if a.Entries != b.Entries || a.Timestamps != b.Timestamps || a.Nodes != b.Nodes {
		t.Fatalf("stats diverged: %+v vs %+v", a, b)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotFreshChecker(t *testing.T) {
	// Snapshot before any commit: restorable, and usable from scratch.
	s := hrSchema()
	c := New(s)
	addConstraint(t, c, s, "c", "hire(e) -> not once[0,10] fire(e)")
	restored := snapshotRoundTrip(t, c, s)
	vs, err := restored.Step(1, ins("fire", 1))
	if err != nil || len(vs) != 0 {
		t.Fatalf("vs=%v err=%v", vs, err)
	}
}

func TestLoadSnapshotErrors(t *testing.T) {
	s := hrSchema()
	c := New(s)
	addConstraint(t, c, s, "c", "p(x) -> not once q(x)")
	mustStep(t, c, 1, ins("q", 1))

	var buf bytes.Buffer
	if err := c.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Garbage input.
	if _, err := LoadSnapshot(s, strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage decoded")
	}
	// Schema missing the relations the snapshot references.
	tiny := schema.NewBuilder().Relation("other", 1).MustBuild()
	if _, err := LoadSnapshot(tiny, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("snapshot loaded over incompatible schema")
	}
}

func TestSnapshotRestoreRejectsTimeRegression(t *testing.T) {
	s := hrSchema()
	c := New(s)
	addConstraint(t, c, s, "c", "p(x) -> not once q(x)")
	mustStep(t, c, 10, ins("q", 1))
	restored := snapshotRoundTrip(t, c, s)
	if _, err := restored.Step(10, storage.NewTransaction()); err == nil {
		t.Fatal("restored checker accepted a non-increasing timestamp")
	}
	if _, err := restored.Step(11, storage.NewTransaction()); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotFuzzWithGeneratedConstraints(t *testing.T) {
	// Snapshot/restore mid-run under randomly generated constraints:
	// the restored checker must track the original exactly.
	s := formgen.Schema()
	seeds := int64(10)
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(4000 + seed))
		orig := New(s)
		var names []string
		for k := 0; k < 1+r.Intn(2); k++ {
			src := formgen.Constraint(r)
			con, err := check.Parse("c"+string(rune('0'+k)), src, s)
			if err != nil {
				t.Fatalf("seed %d: %q: %v", seed, src, err)
			}
			if err := orig.AddConstraint(con); err != nil {
				t.Fatal(err)
			}
			names = append(names, src)
		}
		tm := uint64(0)
		for i := 0; i < 15; i++ {
			tm += uint64(1 + r.Intn(2))
			if _, err := orig.Step(tm, randomTx(r, 3)); err != nil {
				t.Fatalf("seed %d: %v\nconstraints: %q", seed, err, names)
			}
		}
		restored := snapshotRoundTrip(t, orig, s)
		for i := 0; i < 15; i++ {
			tm += uint64(1 + r.Intn(2))
			tx := randomTx(r, 3)
			a, err := orig.Step(tm, tx.Clone())
			if err != nil {
				t.Fatalf("seed %d: original: %v\nconstraints: %q", seed, err, names)
			}
			b, err := restored.Step(tm, tx)
			if err != nil {
				t.Fatalf("seed %d: restored: %v\nconstraints: %q", seed, err, names)
			}
			if !sameCanon(canon(a), canon(b)) {
				t.Fatalf("seed %d step %d: diverged: %v vs %v\nconstraints: %q",
					seed, i, canon(a), canon(b), names)
			}
		}
	}
}

// TestSteadySaveAllocatesNothing: SaveSnapshot encodes into a buffer the
// checker keeps, so once it has grown to the state's size a save — of
// the policy-wide set 300 commits into a cdcgen feed — allocates
// nothing.
func TestSteadySaveAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := cdcgen.Config{Steps: 300, Seed: 7, Sensors: 1024, BurstLen: 8, BurstEvery: 20, MaxReorder: 3, ViolationRate: 0.02}
	h, _ := cdcgen.Generate(cfg)
	c := New(h.Schema)
	for _, cs := range cdcgen.WidePolicies(cfg) {
		addConstraint(t, c, h.Schema, cs.Name, cs.Source)
	}
	for _, st := range h.Steps {
		mustStep(t, c, st.Time, st.Tx)
	}
	if err := c.SaveSnapshot(io.Discard); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := c.SaveSnapshot(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a steady save allocates %.1f times, want 0", allocs)
	}
}
