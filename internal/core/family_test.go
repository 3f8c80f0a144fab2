package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/check"
	"rtic/internal/engine"
	"rtic/internal/naive"
	"rtic/internal/storage"
	"rtic/internal/tuple"
)

// memberOf returns the once/since node of constraint name, which must be
// probe-shaped: one temporal subformula directly under the denial.
func memberOf(t *testing.T, c *Checker, name string) *sinceNode {
	t.Helper()
	for i, con := range c.constraints {
		if con.Name == name {
			return c.conStates[i].nodes[0].(*sinceNode)
		}
	}
	t.Fatalf("no constraint %s", name)
	return nil
}

// TestFamilyMembership pins which windows share a table: the same
// operands, a = 0 and pruning on — whatever b is — and nothing else.
func TestFamilyMembership(t *testing.T) {
	s := probeSchema
	c := New(s)
	for name, src := range map[string]string{
		"w3":    "probe(x) -> not once[0,3] q(x)",
		"w0":    "probe(x) -> not once[0,0] q(x)",
		"winf":  "probe(x) -> not once q(x)",
		"w7":    "probe(x) -> not once[0,7] q(x)",
		"a2":    "probe(x) -> not once[2,5] q(x)",
		"other": "probe(x) -> not once[0,3] noise(x)",
		"s3":    "probe(x) -> not (p(x) since[0,3] q(x))",
		"s9":    "probe(x) -> not (p(x) since[0,9] q(x))",
	} {
		addConstraint(t, c, s, name, src)
	}
	fam := memberOf(t, c, "w0").fam
	var got []string
	for _, m := range fam.members {
		got = append(got, m.node.String())
	}
	if want := "once[0,0] q(x), once[0,3] q(x), once[0,7] q(x), once q(x)"; strings.Join(got, ", ") != want {
		t.Fatalf("once … q(x) family is %v, want %s", got, want)
	}
	for _, name := range []string{"w3", "w7", "winf"} {
		if memberOf(t, c, name).fam != fam {
			t.Errorf("%s is not in the family of w0", name)
		}
	}
	for _, name := range []string{"a2", "other", "s3"} {
		if m := memberOf(t, c, name); m.fam == fam {
			t.Errorf("%s shares the table of once[0,b] q(x)", name)
		}
	}
	if a, b := memberOf(t, c, "a2"), memberOf(t, c, "other"); len(a.fam.members) != 1 || len(b.fam.members) != 1 {
		t.Errorf("once[2,5] q(x) and once[0,3] noise(x) must be families of one, have %d and %d members", len(a.fam.members), len(b.fam.members))
	}
	if a, b := memberOf(t, c, "s3"), memberOf(t, c, "s9"); a.fam != b.fam || len(a.fam.members) != 2 {
		t.Errorf("p(x) since[0,3] q(x) and p(x) since[0,9] q(x) must be one family of two")
	}

	// The pruning ablation covers no window.
	abl := New(s)
	if err := abl.DisablePruning(); err != nil {
		t.Fatal(err)
	}
	addConstraint(t, abl, s, "w3", "probe(x) -> not once[0,3] q(x)")
	addConstraint(t, abl, s, "w7", "probe(x) -> not once[0,7] q(x)")
	if a, b := memberOf(t, abl, "w3"), memberOf(t, abl, "w7"); a.fam == b.fam {
		t.Error("windows share a table under DisablePruning")
	}

	// A family's history is stored, bounded and counted once, on its
	// widest window.
	mustStep(t, c, 1, ins("q", 1).Insert("noise", tuple.Ints(1)))
	for _, ns := range c.Stats().PerNode {
		want := 0
		switch ns.Formula {
		case "once q(x)", "once[2,5] q(x)", "once[0,3] noise(x)", "p(x) since[0,9] q(x)":
			want = 1
		}
		if ns.Entries != want {
			t.Errorf("%s reports %d entries, want %d", ns.Formula, ns.Entries, want)
		}
	}
	for _, nb := range c.NodeBounds() {
		want := uint64(0)
		switch nb.Node.String() {
		case "once q(x)", "once[0,3] noise(x)", "p(x) since[0,9] q(x)":
			want = 1
		case "once[2,5] q(x)":
			want = 6
		}
		if nb.Bound != want {
			t.Errorf("%s bounded at %d, want %d", nb.Node, nb.Bound, want)
		}
	}
}

// TestFamilyUpdatesBeforeItsReaders: a narrower window that joins a
// family after a node reading a wider member comes first among the
// members but last in registration order. The family must still update
// before that reader does, in the member registered first; held to naive
// over a seeded random history.
func TestFamilyUpdatesBeforeItsReaders(t *testing.T) {
	s := equivSchema()
	inc, ref := New(s), naive.New(s)
	for i, src := range []string{"q(x) -> once[0,3] once[0,5] p(x)", "q(x) -> once[0,2] p(x)"} {
		name := fmt.Sprintf("c%d", i)
		addConstraint(t, inc, s, name, src)
		con, err := check.Parse(name, src, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.AddConstraint(con); err != nil {
			t.Fatal(err)
		}
	}
	narrow := memberOf(t, inc, "c1")
	if narrow.idx != 0 || inc.nodes[len(inc.nodes)-1] != narrow {
		t.Fatalf("%s is member %d of %s, registered at %d of %d; want the first member, registered last",
			narrow.node, narrow.idx, narrow.fam.name(), slices.Index(inc.nodes, auxNode(narrow)), len(inc.nodes))
	}
	r := rand.New(rand.NewSource(1))
	tm := uint64(0)
	for i := 0; i < 200; i++ {
		tm += uint64(1 + r.Intn(3))
		tx := randomTx(r, 4)
		got, err := inc.Step(tm, tx.Clone())
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want, err := ref.Step(tm, tx)
		if err != nil {
			t.Fatal(err)
		}
		if cg, cw := canon(got), canon(want); !sameCanon(cg, cw) {
			t.Fatalf("step %d (t=%d, tx=%s):\nincremental: %v\nnaive:       %v", i, tm, tx, cg, cw)
		}
		if err := inc.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestFamilyExpiryAndReanchorSameCommit is TestAuxExpiryAndReanchorSameCommit
// per member: reading(0) last held at t=22, is deleted at t=26 and comes
// back at t=28. Under [0,1] it had aged out by 26 and re-enters at 28;
// under [0,4] it ages out and is re-anchored in the same commit, which is
// no change; [0,9] never lost it.
func TestFamilyExpiryAndReanchorSameCommit(t *testing.T) {
	s := cdcgen.Schema()
	c := New(s)
	addConstraint(t, c, s, "w4", "serve(s) -> once[0,4] reading(s)")
	addConstraint(t, c, s, "w1", "serve(s) -> once[0,1] reading(s)")
	addConstraint(t, c, s, "w9", "serve(s) -> once[0,9] reading(s)")
	delta := func(name string) (int, int) {
		added, removed, _ := memberOf(t, c, name).answerDelta()
		return len(added), len(removed)
	}
	mustStep(t, c, 20, ins("reading", 0).Insert("serve", tuple.Ints(0)))
	mustStep(t, c, 22, ins("reading", 1))
	vs := mustStep(t, c, 26, del("reading", 0))
	if got := canon(vs); !sameCanon(got, []string{"w1|" + tuple.Ints(0).Key()}) {
		t.Fatalf("t=26, reading(0) last held at 22: %v", got)
	}
	if a, r := delta("w1"); a != 0 || r != 1 {
		t.Fatalf("t=26: [0,1] delta +%d −%d, want −1", a, r)
	}
	vs = mustStep(t, c, 28, ins("reading", 0))
	if len(vs) != 0 {
		t.Fatalf("serve(0) with reading(0) re-captured at t=28: %v", vs)
	}
	for name, want := range map[string][2]int{"w1": {1, 0}, "w4": {0, 0}, "w9": {0, 0}} {
		if a, r := delta(name); a != want[0] || r != want[1] {
			t.Errorf("t=28: %s delta +%d −%d, want +%d −%d", name, a, r, want[0], want[1])
		}
	}
	// t=34: reading(0) last held at 28 (deleted at 29) is 6 old.
	mustStep(t, c, 29, del("reading", 0))
	vs = mustStep(t, c, 34, storage.NewTransaction())
	if got := canon(vs); !sameCanon(got, []string{"w1|" + tuple.Ints(0).Key(), "w4|" + tuple.Ints(0).Key()}) {
		t.Fatalf("t=34: %v", got)
	}
}

// TestFamilyClosedOncePrimed: a table that has begun its history is
// pruned to the windows it had, so no window joins it afterwards.
// AddConstraint refuses any constraint once the history started — also
// on a checker loaded from a snapshot — and leaves the family as it was;
// and a node registered behind AddConstraint's back becomes a family of
// one and disturbs nothing.
func TestFamilyClosedOncePrimed(t *testing.T) {
	s := probeSchema
	orig := New(s)
	addConstraint(t, orig, s, "c0", "probe(x) -> not once[0,0] q(x)")
	addConstraint(t, orig, s, "c1", "probe(x) -> not once[0,3] q(x)")
	mustStep(t, orig, 1, ins("probe", 0).Insert("probe", tuple.Ints(1)))
	mustStep(t, orig, 2, ins("q", 0))
	c := snapshotRoundTrip(t, orig, s)
	tx := del("q", 0)
	mustStep(t, orig, 3, tx.Clone())
	mustStep(t, c, 3, tx)

	fam := memberOf(t, c, "c0").fam
	wider, err := check.Parse("late", "probe(x) -> not once[0,7] q(x)", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddConstraint(wider); err == nil || !strings.Contains(err.Error(), "after the history started") {
		t.Fatalf("AddConstraint after the first commit: %v", err)
	}
	if len(fam.members) != 2 || len(c.nodes) != 2 {
		t.Fatalf("refused constraint left %d members, %d nodes", len(fam.members), len(c.nodes))
	}
	if err := c.compile(wider.Denial); err != nil {
		t.Fatal(err)
	}
	late := c.nodes[len(c.nodes)-1].(*sinceNode)
	if late.fam == fam || len(late.fam.members) != 1 || len(fam.members) != 2 {
		t.Fatalf("a window registered after priming joined the primed family (%d members)", len(fam.members))
	}
	for tm := uint64(4); tm < 12; tm++ {
		tx := storage.NewTransaction()
		if tm == 8 {
			tx = ins("q", 0)
		}
		want := mustStep(t, orig, tm, tx.Clone())
		if got := mustStep(t, c, tm, tx); !sameCanon(canon(got), canon(want)) {
			t.Fatalf("t=%d: loaded checker %v, original %v", tm, canon(got), canon(want))
		}
	}
}

// TestParentWideSnapshot holds the snapshot format both ways against the
// parent commit, which kept one relation per node: its snapshot of the
// policy-wide set (35 policies over 26 nodes, 400 commits into cdcgen
// seed 5) loads and continues as internal/naive does over the whole
// feed, and this checker's snapshot at the same commit of the same feed
// is that file, byte for byte.
func TestParentWideSnapshot(t *testing.T) {
	const at, more = 400, 200
	cfg := cdcgen.Config{
		Steps: at + more, Seed: 5, Sensors: 1024,
		BurstLen: 8, BurstEvery: 20, MaxReorder: 3, ViolationRate: 0.02,
	}
	h, _ := cdcgen.Generate(cfg)
	want, err := os.ReadFile("testdata/pr18_wide_seed5_step400.snap")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(h.Schema, bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The parent counted 148 entries: the reading(s) table once per window.
	if st := loaded.Stats(); st.Nodes != 26 || st.Entries >= 148 {
		t.Fatalf("loaded %d nodes with %d entries", st.Nodes, st.Entries)
	}

	own := New(h.Schema)
	ref := naive.New(h.Schema)
	for _, cs := range cdcgen.WidePolicies(cfg) {
		for _, eng := range []engine.Engine{own, ref} {
			con, err := check.Parse(cs.Name, cs.Source, h.Schema)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.AddConstraint(con); err != nil {
				t.Fatal(err)
			}
		}
	}
	violations := 0
	for i, step := range h.Steps {
		expect, err := ref.Step(step.Time, step.Tx.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if i == at {
			var buf bytes.Buffer
			if err := own.SaveSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("snapshot after %d commits is %d bytes and differs from the parent's %d", at, buf.Len(), len(want))
			}
			if a, b := own.Stats(), loaded.Stats(); a.Entries != b.Entries || a.Timestamps != b.Timestamps || a.Bytes != b.Bytes {
				t.Fatalf("loaded checker holds %+v, the one that ran the feed %+v", b, a)
			}
		}
		got := mustStep(t, own, step.Time, step.Tx.Clone())
		if !sameCanon(canon(got), canon(expect)) {
			t.Fatalf("commit %d (t=%d): checker %v, naive %v", i, step.Time, canon(got), canon(expect))
		}
		if i < at {
			continue
		}
		got = mustStep(t, loaded, step.Time, step.Tx)
		if !sameCanon(canon(got), canon(expect)) {
			t.Fatalf("commit %d (t=%d): loaded checker %v, naive %v", i, step.Time, canon(got), canon(expect))
		}
		violations += len(got)
	}
	if violations == 0 {
		t.Fatal("the continued feed reported no violation: the comparison checked nothing")
	}
}

// TestDenialFamilyEqualsSolo replays the policy-wide set over a cdcgen
// feed through one checker, which checks 34 of its 35 denials as two
// denial families, and through one checker per constraint, where every
// denial is a family of one. At every step each constraint reports the
// same violations, takes the same LastSkips action (with the solo
// checker's reason, or "answered by family") and explains every
// violation the same way, across a snapshot round trip of every checker
// at step 500. The subtest keeps the name it had when the pipeline came
// in two widths.
func TestDenialFamilyEqualsSolo(t *testing.T) {
	t.Run("parallelism=1", testDenialFamilyEqualsSolo)
}

func testDenialFamilyEqualsSolo(t *testing.T) {
	const steps, reload = 1200, 500
	cfg := cdcgen.Config{
		Steps: steps, Seed: 11, Sensors: 64,
		BurstLen: 8, BurstEvery: 20, MaxReorder: 3, ViolationRate: 0.05,
	}
	h, _ := cdcgen.Generate(cfg)
	policies := cdcgen.WidePolicies(cfg)
	shared := New(h.Schema)
	solo := make([]*Checker, len(policies))
	for k, p := range policies {
		addConstraint(t, shared, h.Schema, p.Name, p.Source)
		solo[k] = New(h.Schema)
		addConstraint(t, solo[k], h.Schema, p.Name, p.Source)
	}
	families, members := 0, 0
	for _, f := range shared.Families() {
		if len(f) > 1 {
			families++
			members += len(f)
		}
	}
	if families != 2 || members != 34 || len(shared.Families()) != 3 {
		t.Fatalf("denial families %v: want the serve and derived windows as two families, stale_escalation alone", shared.Families())
	}
	roundTrip := func(c *Checker) *Checker {
		var buf bytes.Buffer
		if err := c.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := LoadSnapshot(h.Schema, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	violations, answered := 0, 0
	actions := map[SkipAction]int{}
	for i, st := range h.Steps {
		if i == reload {
			shared = roundTrip(shared)
			for k := range solo {
				solo[k] = roundTrip(solo[k])
			}
		}
		got := mustStep(t, shared, st.Time, st.Tx.Clone())
		for k, p := range policies {
			alone := mustStep(t, solo[k], st.Time, st.Tx.Clone())
			var mine []check.Violation
			for _, v := range got {
				if v.Constraint == p.Name {
					mine = append(mine, v)
				}
			}
			if !sameCanon(canon(mine), canon(alone)) {
				t.Fatalf("step %d (t=%d): %s in its family %v, alone %v", i, st.Time, p.Name, canon(mine), canon(alone))
			}
			si, want := shared.LastSkips()[k], solo[k].LastSkips()[0]
			if si.Action != want.Action || (si.Reason != want.Reason && si.Reason != "answered by family") {
				t.Fatalf("step %d (t=%d): %s %v in its family, %v alone", i, st.Time, p.Name, si, want)
			}
			if si.Reason == "answered by family" {
				answered++
			}
			actions[si.Action]++
			for _, v := range mine {
				a, err := shared.Explain(v)
				if err != nil {
					t.Fatal(err)
				}
				b, err := solo[k].Explain(v)
				if err != nil {
					t.Fatal(err)
				}
				if a.String() != b.String() {
					t.Fatalf("step %d: in its family %s explains\n%s\nalone\n%s", i, p.Name, a, b)
				}
			}
			violations += len(mine)
		}
	}
	if violations == 0 || answered == 0 || actions[ActionSkipped] == 0 || actions[ActionSeeded] == 0 || actions[ActionPlanned] == 0 {
		t.Fatalf("the feed exercised too little: %d violations, %d answers by family, actions %v", violations, answered, actions)
	}
	t.Logf("%d families of %d members, %d steps, %d violations, %d answers by family, actions %v, 0 divergences",
		families, members, len(h.Steps), violations, answered, actions)
}
