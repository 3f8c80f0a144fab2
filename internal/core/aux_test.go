package core

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/check"
	"rtic/internal/engine"
	"rtic/internal/naive"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
)

// The sweep drives once/since nodes through every short script and holds
// them, commit by commit, to the executable specification. A constraint
// is probe(x) -> not N(x) with probe(0) and probe(1) always present, so
// its violations are exactly the node's answer. The single sweep installs
// one window at a time; the family sweep installs several over the same
// operands, which share one table, and also holds each to a checker that
// has that window alone — the unshared design by construction.

var sweepSchema = schema.NewBuilder().
	Relation("probe", 1).
	Relation("q", 1). // ψ
	Relation("p", 1). // φ
	Relation("noise", 1).
	MustBuild()

type sweepWindow struct {
	name string // as the parser reads it
	base uint64 // the b the timestamp gaps are derived from
}

var sweepWindows = []sweepWindow{
	{"[0,0]", 0}, {"[0,3]", 3}, {"[2,5]", 5}, {"[2,*]", 3}, {"[0,*]", 3},
}

// familyWindows are four members of one family — the narrowest possible
// window, two finite ones and the unbounded one — and [2,5] over the same
// operands, which the newest-anchor rule does not cover and which must
// stay a family of its own.
var familyWindows = []sweepWindow{
	{"[0,0]", 0}, {"[0,3]", 3}, {"[0,7]", 7}, {"[0,*]", 3}, {"[2,5]", 5},
}

// sweepGaps are the commit spacings {1, b, b+1, 2b+3} of every window:
// inside it, on its edge, one past it, and far past it.
func sweepGaps(ws ...sweepWindow) []uint64 {
	var out []uint64
	for _, w := range ws {
		for _, g := range []uint64{1, w.base, w.base + 1, 2*w.base + 3} {
			if g > 0 && !slices.Contains(out, g) {
				out = append(out, g)
			}
		}
	}
	return out
}

// A sweep op toggles one row: inserting a ψ-row that is absent or
// deleting one that is present, breaking a chain that holds or restoring
// a broken one. Ops that would not change the state (insert a present
// row, delete an absent one) are left out: their net delta is empty, so
// the node cannot tell them from the unrelated commit, which is an op.
type sweepOp struct {
	rel string // "" = unrelated commit
	key int64
}

// sweepCase is one operator's share of the sweep: its ops and how long
// its scripts are, in the main sweep and in the snapshot sweep (which
// loads a snapshot per commit and is an order of magnitude dearer). The
// since scripts are one op shorter and break only key 0's chain, or the
// sweep would take minutes: 5 ops over 6 commits are 12,500 scripts per
// window and gap, and there are 18 of those.
type sweepCase struct {
	since         bool
	ops           []sweepOp
	length, snaps int
}

var sweepCases = []sweepCase{
	{false, []sweepOp{{"q", 0}, {"q", 1}, {"", 0}}, 6, 4},
	{true, []sweepOp{{"q", 0}, {"q", 1}, {"p", 0}, {"", 0}}, 5, 4},
}

func (sc sweepCase) source(w sweepWindow) string {
	if sc.since {
		return "probe(x) -> not (p(x) since" + w.name + " q(x))"
	}
	return "probe(x) -> not once" + w.name + " q(x)"
}

// eachSweepScript calls run with a fresh rig for every script of n ops of
// every case, group of windows installed together, and gap — except those
// that start on key 1, which mirror the ones starting on key 0. Under the
// race detector, which looks for something else and is several times
// slower, scripts are two ops shorter.
func eachSweepScript(t *testing.T, groups [][]sweepWindow, n func(sweepCase) int, run func(r *sweepRig, ops []sweepOp, script []int, gap uint64)) {
	for _, sc := range sweepCases {
		length := n(sc)
		if raceEnabled {
			length -= 2
		}
		for _, ws := range groups {
			var srcs []string
			for _, w := range ws {
				srcs = append(srcs, sc.source(w))
			}
			for _, gap := range sweepGaps(ws...) {
				script := make([]int, length)
				for {
					if script[0] != 1 {
						run(newSweepRig(t, srcs), sc.ops, script, gap)
					}
					if !nextScript(script, len(sc.ops)) {
						break
					}
				}
			}
		}
	}
}

// oneByOne installs every sweep window alone.
func oneByOne() [][]sweepWindow {
	var out [][]sweepWindow
	for _, w := range sweepWindows {
		out = append(out, []sweepWindow{w})
	}
	return out
}

// nextScript advances script as a base-n counter; false after the last.
func nextScript(script []int, n int) bool {
	for i := len(script) - 1; i >= 0; i-- {
		if script[i]++; script[i] < n {
			return true
		}
		script[i] = 0
	}
	return false
}

// sweepRig is one script's worth of engines over the same constraints,
// named c0, c1, …: planned and ref have them all, solo[k] only ck.
type sweepRig struct {
	t       *testing.T
	srcs    []string
	planned *Checker
	ref     engine.Engine
	solo    []*Checker // nil when there is one constraint: planned is that checker
	present map[sweepOp]bool
	noise   int64
	now     uint64
	answers []map[string]bool // each constraint's node's answer after the last commit
}

func sweepName(k int) string { return fmt.Sprintf("c%d", k) }

func newSweepRig(t *testing.T, srcs []string) *sweepRig {
	t.Helper()
	s := sweepSchema
	r := &sweepRig{
		t:       t,
		srcs:    srcs,
		planned: New(s),
		ref:     naive.New(s),
		present: map[sweepOp]bool{},
		answers: make([]map[string]bool, len(srcs)),
	}
	for k, src := range srcs {
		engines := []engine.Engine{r.planned, r.ref}
		if len(srcs) > 1 {
			r.solo = append(r.solo, New(s))
			engines = append(engines, r.solo[k])
		}
		for _, eng := range engines {
			con, err := check.Parse(sweepName(k), src, s)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if err := eng.AddConstraint(con); err != nil {
				t.Fatalf("%s: %v", src, err)
			}
		}
	}
	tx := storage.NewTransaction()
	for k := int64(0); k < 2; k++ {
		tx.Insert("probe", tuple.Ints(k)).Insert("p", tuple.Ints(k))
		r.present[sweepOp{"p", k}] = true
	}
	r.commit("setup", 1, tx)
	return r
}

// tx builds the transaction of op against the rig's model of the state.
func (r *sweepRig) tx(op sweepOp) *storage.Transaction {
	tx := storage.NewTransaction()
	switch {
	case op.rel == "":
		r.noise++
		tx.Insert("noise", tuple.Ints(r.noise))
	case r.present[op]:
		tx.Delete(op.rel, tuple.Ints(op.key))
		r.present[op] = false
	default:
		tx.Insert(op.rel, tuple.Ints(op.key))
		r.present[op] = true
	}
	return tx
}

// commit steps every engine and checks everything the sweep promises
// about the commit.
func (r *sweepRig) commit(label string, tm uint64, tx *storage.Transaction) {
	r.t.Helper()
	r.now = tm
	got, err := r.planned.Step(tm, tx.Clone())
	if err != nil {
		r.t.Fatalf("%s: planned: %v", label, err)
	}
	want, err := r.ref.Step(tm, tx.Clone())
	if err != nil {
		r.t.Fatalf("%s: naive: %v", label, err)
	}
	if !sameCanon(canon(got), canon(want)) {
		r.t.Fatalf("%s: planned %v, naive %v", label, canon(got), canon(want))
	}
	if err := r.planned.CheckInvariants(); err != nil {
		r.t.Fatalf("%s: %v", label, err)
	}
	for k, solo := range r.solo {
		alone, err := solo.Step(tm, tx.Clone())
		if err != nil {
			r.t.Fatalf("%s: %s alone: %v", label, r.srcs[k], err)
		}
		r.againstSolo(label+": "+r.srcs[k], sweepName(k), solo, got, alone)
	}
	for k := range r.srcs {
		// The node's own answer and its delta, against the violations
		// (which are that answer) and the previous answer.
		next := map[string]bool{}
		for _, v := range want {
			if v.Constraint == sweepName(k) {
				next[v.Binding.Key()] = true
			}
		}
		r.checkDelta(label+": "+r.srcs[k], memberOf(r.t, r.planned, sweepName(k)), r.answers[k], next)
		r.answers[k] = next
	}
}

// againstSolo holds the shared checker's violations of one constraint,
// and the evidence it gives for each, to the checker that has that
// constraint alone.
func (r *sweepRig) againstSolo(label, name string, solo *Checker, got, alone []check.Violation) {
	r.t.Helper()
	var mine []check.Violation
	for _, v := range got {
		if v.Constraint == name {
			mine = append(mine, v)
		}
	}
	if !sameCanon(canon(mine), canon(alone)) {
		r.t.Fatalf("%s: shared %v, alone %v", label, canon(mine), canon(alone))
	}
	for _, v := range mine {
		shared, err := r.planned.Explain(v)
		if err != nil {
			r.t.Fatalf("%s: %v", label, err)
		}
		own, err := solo.Explain(v)
		if err != nil {
			r.t.Fatalf("%s: %v", label, err)
		}
		if shared.String() != own.String() {
			r.t.Fatalf("%s: shared explains\n%s\nalone\n%s", label, shared, own)
		}
	}
}

// checkDelta holds node's answer to next, and its delta to the difference
// between old and next.
func (r *sweepRig) checkDelta(label string, node *sinceNode, old, next map[string]bool) {
	r.t.Helper()
	ans, err := node.enumerate(r.now)
	if err != nil {
		r.t.Fatalf("%s: %v", label, err)
	}
	if ans.Len() != len(next) {
		r.t.Fatalf("%s: node answers %v, naive %v", label, ans, keysOf(next))
	}
	for key := range next {
		if !ans.ContainsKey(key) {
			r.t.Fatalf("%s: node answers %v, naive %v", label, ans, keysOf(next))
		}
	}
	added, removed, exact := node.answerDelta()
	if !exact {
		r.t.Fatalf("%s: since node reports an inexact delta", label)
	}
	seen := map[string]bool{}
	for _, row := range added {
		key := row.Key()
		if seen[key] || old[key] || !next[key] {
			r.t.Fatalf("%s: added %v is not (new answer − old answer): old %v new %v", label, added, keysOf(old), keysOf(next))
		}
		seen[key] = true
	}
	for _, row := range removed {
		key := row.Key()
		if seen[key] || !old[key] || next[key] {
			r.t.Fatalf("%s: removed %v is not (old answer − new answer): old %v new %v", label, removed, keysOf(old), keysOf(next))
		}
		seen[key] = true
	}
	changed := 0
	for key := range next {
		if !old[key] {
			changed++
		}
	}
	for key := range old {
		if !next[key] {
			changed++
		}
	}
	if changed != len(seen) || node.dirty() != (changed > 0) {
		r.t.Fatalf("%s: delta +%v −%v (dirty=%v) misses part of old %v → new %v", label, added, removed, node.dirty(), keysOf(old), keysOf(next))
	}
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// restored round-trips the planned checker through a snapshot.
func (r *sweepRig) restored() *Checker {
	r.t.Helper()
	var buf bytes.Buffer
	if err := r.planned.SaveSnapshot(&buf); err != nil {
		r.t.Fatal(err)
	}
	c, err := LoadSnapshot(sweepSchema, &buf)
	if err != nil {
		r.t.Fatal(err)
	}
	return c
}

// violations is what the planned checker must have reported at the last
// commit, from the answers the rig verified.
func (r *sweepRig) violations() []string {
	var out []string
	for k, ans := range r.answers {
		for key := range ans {
			out = append(out, sweepName(k)+"|"+key)
		}
	}
	sort.Strings(out)
	return out
}

// TestAuxDeadlineSweep enumerates, for once and since over the windows
// [0,0] [0,3] [2,5] [2,∞) [0,∞) and the gaps {1, b, b+1, 2b+3}, every
// script of the case's length over two keys — which covers every shorter
// script as a prefix, every commit being checked. After every commit
// the checker and internal/naive agree, the node's answer is theirs,
// added/removed are
// disjoint and equal the difference of consecutive answers, and
// CheckInvariants holds (anchors ahead of the cursors that wait for them,
// live set equal to ⟦ψ⟧, running account equal to the walk).
func TestAuxDeadlineSweep(t *testing.T) {
	eachSweepScript(t, oneByOne(), func(sc sweepCase) int { return sc.length }, runSweepScript)
}

// TestAuxFamilySweep is the same sweep over familyWindows installed
// together — four windows reading one table, a fifth over the same
// operands beside them — and the gaps of all of them. On top of the
// single sweep's promises, which it holds per member, every constraint
// reports and explains (evidence times included) what a checker that has
// it alone does, and CheckInvariants holds the family clauses: the table
// kept to the widest window, each member's answer the table read through
// its window.
func TestAuxFamilySweep(t *testing.T) {
	eachSweepScript(t, [][]sweepWindow{familyWindows}, func(sc sweepCase) int { return sc.length }, runSweepScript)
}

func runSweepScript(r *sweepRig, ops []sweepOp, script []int, gap uint64) {
	for i, o := range script {
		r.commit(r.label(script, gap, i), r.now+gap, r.tx(ops[o]))
	}
}

func (r *sweepRig) label(script []int, gap uint64, step int) string {
	return fmt.Sprintf("%s gap %d script %v step %d", r.srcs[0], gap, script, step)
}

// TestAuxDeadlineSweepSnapshot is the sweep's fourth promise: a snapshot
// taken at any index of any script loads into a checker that continues
// as the original does. At every index of every script the checker is
// saved and loaded, and every copy taken so far is stepped through the
// rest of the script beside the original.
func TestAuxDeadlineSweepSnapshot(t *testing.T) {
	eachSweepScript(t, oneByOne(), func(sc sweepCase) int { return sc.snaps }, runSnapshotScript)
}

// TestAuxFamilySweepSnapshot: the members of a family each write the part
// of the table their window holds, and loading merges the parts back.
func TestAuxFamilySweepSnapshot(t *testing.T) {
	eachSweepScript(t, [][]sweepWindow{familyWindows}, func(sc sweepCase) int { return sc.snaps }, runSnapshotScript)
}

func runSnapshotScript(r *sweepRig, ops []sweepOp, script []int, gap uint64) {
	t := r.t
	var copies []*Checker
	for i, o := range script {
		copies = append(copies, r.restored())
		label := r.label(script, gap, i)
		tx := r.tx(ops[o])
		tm := r.now + gap
		r.commit(label, tm, tx.Clone())
		for from, c := range copies {
			got := mustStep(t, c, tm, tx.Clone())
			if !sameCanon(canon(got), r.violations()) {
				t.Fatalf("%s: snapshot taken at index %d reports %v, original %v", label, from, canon(got), r.violations())
			}
			if a, b := c.Stats(), r.planned.Stats(); a.Entries != b.Entries || a.Timestamps != b.Timestamps || a.Bytes != b.Bytes {
				t.Fatalf("%s: snapshot taken at index %d holds %+v, original %+v", label, from, a, b)
			}
		}
	}
}

// TestAuxExpiryAndReanchorSameCommit is the case a first delta-driven
// prototype got wrong: under once[0,4], reading(0) last held at t=22 and
// is deleted at t=26; at t=28 its anchor has aged out (22+4 < 28) and in
// the same commit the row comes back. The answer held reading(0) before
// and holds it after, so it is in neither added nor removed — a seeded
// denial trusts that — and serve(0) is no violation.
func TestAuxExpiryAndReanchorSameCommit(t *testing.T) {
	s := cdcgen.Schema()
	c := New(s)
	addConstraint(t, c, s, "fresh_serve", "serve(s) -> once[0,4] reading(s)")
	step := func(tm uint64, tx *storage.Transaction) []check.Violation {
		t.Helper()
		return mustStep(t, c, tm, tx)
	}
	step(20, ins("reading", 0).Insert("serve", tuple.Ints(0)))
	step(22, storage.NewTransaction().Insert("reading", tuple.Ints(1)))
	step(26, del("reading", 0))
	node := c.nodes[0].(*sinceNode)
	if ok, _ := node.testKey([]byte(tuple.Ints(0).Key()), 26); !ok {
		t.Fatal("reading(0) is 4 old at t=26 and must still answer once[0,4]")
	}
	vs := step(28, ins("reading", 0))
	if len(vs) != 0 {
		t.Fatalf("serve(0) with reading(0) re-captured at t=28: %v", vs)
	}
	if added, removed, _ := node.answerDelta(); len(added) != 0 || len(removed) != 0 {
		t.Fatalf("row expired and re-anchored in one commit: delta +%v −%v, want none", added, removed)
	}
	// And the denial, seeded from that delta, keeps agreeing with a
	// checker that evaluates in full.
	vs = step(29, del("reading", 0))
	if len(vs) != 0 {
		t.Fatalf("t=29: %v", vs)
	}
	vs = step(34, storage.NewTransaction())
	if len(vs) != 1 {
		t.Fatalf("t=34, reading(0) last held at 28: want the violation, got %v", vs)
	}
}

// fixtureSpecs are the policies of testdata/pr15_cdc_seed5_step100.snap.
var fixtureSpecs = []struct{ name, src string }{
	{"fresh_serve", "serve(s) -> once[0,16] reading(s)"},
	{"derived_lineage", "derived(d, s) -> once[0,24] reading(s)"},
	{"stale_escalation", "escalate(s) -> (stale(s) since[0,64] mark(s))"},
	{"settled_serve", "serve(s) -> once[2,9] reading(s)"},
	{"ever_marked", "escalate(s) -> (stale(s) since[3,*] mark(s))"},
	{"ever_read", "serve(s) -> once reading(s)"},
}

// TestLoadParentSnapshot loads a snapshot the parent commit wrote — 100
// commits into a cdcgen feed, 28 entries holding 63 timestamps, every
// in-window anchor as that encoding kept them — and continues the feed.
// The format did not change: the file loads, entries under the
// newest-anchor rule shrink to one timestamp, the three windows over
// reading(s) — [0,16], [0,24], [0,∞) — merge what each wrote into one
// table counted once (28 entries become 16), and the remaining 60
// commits report what internal/naive reports over the whole feed.
func TestLoadParentSnapshot(t *testing.T) {
	const at = 100
	h, _ := cdcgen.Generate(cdcgen.Config{Steps: 160, Seed: 5, Sensors: 8, BurstLen: 4, BurstEvery: 10, ViolationRate: 0.1})
	raw, err := os.ReadFile("testdata/pr15_cdc_seed5_step100.snap")
	if err != nil {
		t.Fatal(err)
	}
	c, err := LoadSnapshot(h.Schema, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
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
	for _, sp := range fixtureSpecs {
		con, err := check.Parse(sp.name, sp.src, h.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.AddConstraint(con); err != nil {
			t.Fatal(err)
		}
	}
	violations := 0
	for i, step := range h.Steps {
		want, err := ref.Step(step.Time, step.Tx.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if i < at {
			continue
		}
		got := mustStep(t, c, step.Time, step.Tx)
		if !sameCanon(canon(got), canon(want)) {
			t.Fatalf("commit %d (t=%d): loaded checker %v, naive %v", i, step.Time, canon(got), canon(want))
		}
		violations += len(got)
	}
	if violations == 0 {
		t.Fatal("the continued feed reported no violation: the comparison checked nothing")
	}
}

// TestCleanUpdatePhaseIsFree pins the ladder's first rung: a commit that
// touches nothing a node reads, with no deadline due, allocates nothing
// in the update phase and visits no entry — whatever the nodes hold.
// Here they hold live entries (under the newest-anchor rule, which asks
// nothing of them), entries waiting for a leave deadline far in the
// future, and an entry of an a > 0 window that is inside it.
func TestCleanUpdatePhaseIsFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := sweepSchema
	c := New(s)
	addConstraint(t, c, s, "once", "probe(x) -> not once[0,1000] q(x)")
	addConstraint(t, c, s, "since", "probe(x) -> not (p(x) since[0,1000] q(x))")
	addConstraint(t, c, s, "settled", "probe(x) -> not once[2,1000] noise(x)")
	mustStep(t, c, 1, ins("q", 1).Insert("q", tuple.Ints(2)).Insert("p", tuple.Ints(1)).Insert("p", tuple.Ints(2)).Insert("noise", tuple.Ints(7)))
	mustStep(t, c, 2, del("q", 2).Delete("noise", tuple.Ints(7)))
	mustStep(t, c, 4, storage.NewTransaction())
	if st := c.Stats(); st.Entries != 5 {
		t.Fatalf("set-up holds %d entries, want q(1), q(2) twice and noise(7)", st.Entries)
	}

	// The update phase of a commit that only writes probe.
	tm := c.Now()
	sc := &stepCtx{c: c}
	if err := c.computeDelta(ins("probe", 9)); err != nil {
		t.Fatal(err)
	}
	before := visitedEntries(c)
	allocs := testing.AllocsPerRun(200, func() {
		tm++
		sc.t, sc.orc = tm, oracle{c: c, now: tm}
		if err := c.updatePhase(sc, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("clean update phase allocates %.1f times per commit, want 0", allocs)
	}
	if n := visitedEntries(c) - before; n != 0 {
		t.Errorf("clean update phase visited %d entries, want 0", n)
	}
	for _, node := range c.nodes {
		if sn := node.(*sinceNode); sn.fam.lastT != tm || sn.dirty() {
			t.Errorf("%s: at t=%d dirty=%v after clean commits up to t=%d", sn.node, sn.fam.lastT, sn.dirty(), tm)
		}
	}
	// The skipped commits were real ones as far as the answers go.
	vs := mustStep(t, c, tm+1, ins("probe", 1).Insert("probe", tuple.Ints(2)).Insert("probe", tuple.Ints(7)))
	if got := canon(vs); !sameCanon(got, []string{"once|" + tuple.Ints(1).Key(), "once|" + tuple.Ints(2).Key(), "settled|" + tuple.Ints(7).Key(), "since|" + tuple.Ints(1).Key(), "since|" + tuple.Ints(2).Key()}) {
		t.Fatalf("violations after the clean commits: %v", got)
	}
}
