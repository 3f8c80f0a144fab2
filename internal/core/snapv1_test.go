package core_test

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/naive"
	"rtic/internal/schema"
	"rtic/internal/snapv1"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/wal"
	"rtic/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/wide_seed5_step400.v2.snap from this build's writer")

// loadV1 rewrites a version-1 fixture through snapv1 and loads the
// result.
func loadV1(t testing.TB, s *schema.Schema, path string) *core.Checker {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadSnapshot(s, bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("core loaded a version-1 snapshot, or refused it without naming the version: %v", err)
	}
	v2, err := snapv1.Rewrite(s, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.LoadSnapshot(s, bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// continueAsNaive replays h on ref from the start and on each checker
// of cs from commit at on, and fails at the first commit where one of
// them reports other violations than ref; it returns how many each
// reported.
func continueAsNaive(t *testing.T, h workload.History, at int, ref engine.Engine, cs ...*core.Checker) int {
	t.Helper()
	violations := 0
	for i, step := range h.Steps {
		want, err := ref.Step(step.Time, step.Tx.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if i < at {
			continue
		}
		for k, c := range cs {
			got := core.MustStep(t, c, step.Time, step.Tx.Clone())
			if !core.SameCanon(core.Canon(got), core.Canon(want)) {
				t.Fatalf("commit %d (t=%d): checker %d %v, naive %v", i, step.Time, k, core.Canon(got), core.Canon(want))
			}
			violations += len(got)
		}
	}
	if violations == 0 {
		t.Fatal("the continued feed reported no violation: the comparison checked nothing")
	}
	return violations
}

// install adds specs to every engine.
func install(t testing.TB, s *schema.Schema, specs []workload.ConstraintSpec, engs ...engine.Engine) {
	t.Helper()
	for _, cs := range specs {
		for _, eng := range engs {
			con, err := check.Parse(cs.Name, cs.Source, s)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.AddConstraint(con); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLoadParentSnapshot loads a version-1 snapshot an earlier build
// wrote — 100 commits into a cdcgen feed, 28 entries holding 63
// timestamps, every in-window anchor as that encoding kept them — through
// snapv1, and continues the feed. Entries under the newest-anchor rule
// shrink to one timestamp, the three windows over reading(s) — [0,16],
// [0,24], [0,∞) — merge what each wrote into one table counted once (28
// entries become 16), and the remaining 60 commits report what
// internal/naive reports over the whole feed.
func TestLoadParentSnapshot(t *testing.T) {
	const at = 100
	h, _ := cdcgen.Generate(cdcgen.Config{Steps: 160, Seed: 5, Sensors: 8, BurstLen: 4, BurstEvery: 10, ViolationRate: 0.1})
	c := loadV1(t, h.Schema, "testdata/pr15_cdc_seed5_step100.snap")
	if c.Len() != at || c.Now() != h.Steps[at-1].Time {
		t.Fatalf("loaded clock %d/%d, feed is at %d/%d", c.Len(), c.Now(), at, h.Steps[at-1].Time)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Entries != 16 || st.Timestamps != 23 {
		t.Fatalf("loaded %d entries with %d timestamps; the parent wrote 28 with 63, of which one table per family and one timestamp per [0,b] entry leave 16 with 23", st.Entries, st.Timestamps)
	}
	for _, ns := range st.PerNode {
		if strings.Contains(ns.Formula, "[0,") && ns.Timestamps != ns.Entries {
			t.Fatalf("%s: %d entries hold %d timestamps, want one each", ns.Formula, ns.Entries, ns.Timestamps)
		}
	}
	ref := naive.New(h.Schema)
	install(t, h.Schema, []workload.ConstraintSpec{
		{Name: "fresh_serve", Source: "serve(s) -> once[0,16] reading(s)"},
		{Name: "derived_lineage", Source: "derived(d, s) -> once[0,24] reading(s)"},
		{Name: "stale_escalation", Source: "escalate(s) -> (stale(s) since[0,64] mark(s))"},
		{Name: "settled_serve", Source: "serve(s) -> once[2,9] reading(s)"},
		{Name: "ever_marked", Source: "escalate(s) -> (stale(s) since[3,*] mark(s))"},
		{Name: "ever_read", Source: "serve(s) -> once reading(s)"},
	}, ref)
	continueAsNaive(t, h, at, ref, c)
}

// wideFeed is the policy-wide set over cdcgen seed 5 that
// TestParentWideSnapshot's fixtures were taken 400 commits into.
func wideFeed() (workload.History, []workload.ConstraintSpec) {
	cfg := cdcgen.Config{
		Steps: 600, Seed: 5, Sensors: 1024,
		BurstLen: 8, BurstEvery: 20, MaxReorder: 3, ViolationRate: 0.02,
	}
	h, _ := cdcgen.Generate(cfg)
	return h, cdcgen.WidePolicies(cfg)
}

// TestParentWideSnapshot holds the snapshot format both ways on the
// policy-wide set (35 policies over 26 nodes, 400 commits into cdcgen
// seed 5). The version-1 snapshot an earlier build wrote, which kept one
// relation per node, loads through snapv1 with the tables of the checker
// that ran the feed; this checker's snapshot at that commit is
// testdata/wide_seed5_step400.v2.snap byte for byte; and checkers loaded
// from either continue as internal/naive does over the whole feed.
func TestParentWideSnapshot(t *testing.T) {
	const at = 400
	const v2Path = "testdata/wide_seed5_step400.v2.snap"
	h, specs := wideFeed()
	fromV1 := loadV1(t, h.Schema, "testdata/pr18_wide_seed5_step400.snap")
	if err := fromV1.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The parent counted 148 entries: the reading(s) table once per window.
	if st := fromV1.Stats(); st.Nodes != 26 || st.Entries >= 148 {
		t.Fatalf("loaded %d nodes with %d entries", st.Nodes, st.Entries)
	}

	own := core.New(h.Schema)
	install(t, h.Schema, specs, own)
	for _, step := range h.Steps[:at] {
		core.MustStep(t, own, step.Time, step.Tx.Clone())
	}
	var buf bytes.Buffer
	if err := own.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(v2Path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("snapshot after %d commits is %d bytes and differs from %s's %d", at, buf.Len(), v2Path, len(want))
	}
	fromV2, err := core.LoadSnapshot(h.Schema, bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*core.Checker{fromV1, fromV2} {
		if a, b := own.Stats(), c.Stats(); a.Entries != b.Entries || a.Timestamps != b.Timestamps || a.Bytes != b.Bytes {
			t.Fatalf("loaded checker holds %+v, the one that ran the feed %+v", b, a)
		}
	}
	ref := naive.New(h.Schema)
	install(t, h.Schema, specs, ref)
	continueAsNaive(t, h, at, ref, own, fromV1, fromV2)
}

// FuzzSnapshotRecords holds both record kinds to FuzzDecodeTx's
// pattern: arbitrary bytes through the snapshot loader and through the
// journal's transaction decoder error, and never panic or over-allocate.
// What the loader accepts saves to a snapshot that loads and saves back
// to itself; what DecodeTx accepts re-encodes to the same bytes.
func FuzzSnapshotRecords(f *testing.F) {
	s := cdcgen.Schema()
	h, specs := wideFeed()
	for _, at := range []int{0, 1, 50, 400} {
		c := core.New(h.Schema)
		install(f, h.Schema, specs, c)
		for _, step := range h.Steps[:at] {
			if _, err := c.Step(step.Time, step.Tx.Clone()); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := c.SaveSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, path := range []string{"testdata/pr15_cdc_seed5_step100.snap", "testdata/pr18_wide_seed5_step400.snap"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		v2, err := snapv1.Rewrite(s, bytes.NewReader(raw))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(v2)
	}
	f.Add(wal.EncodeTx(100, storage.NewTransaction().Insert("reading", tuple.Ints(7))))
	f.Fuzz(func(t *testing.T, data []byte) {
		if ts, tx, err := wal.DecodeTx(data); err == nil {
			if got := wal.EncodeTx(ts, tx); !bytes.Equal(got, data) {
				t.Fatalf("DecodeTx accepted %x but re-encodes to %x", data, got)
			}
		}
		c, err := core.LoadSnapshot(s, bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := c.SaveSnapshot(&first); err != nil {
			t.Fatal(err)
		}
		again, err := core.LoadSnapshot(s, bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("the save of an accepted snapshot does not load: %v", err)
		}
		if err := again.SaveSnapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("an accepted snapshot's save does not load and save back to itself")
		}
	})
}
