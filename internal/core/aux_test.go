package core

import (
	"fmt"
	"sort"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/check"
	"rtic/internal/formgen"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/workload"
)

// probeSchema is the vocabulary of the hand-written node tests: probe
// is the guard, q the anchor ψ, p the chain φ, noise a relation no
// constraint reads.
var probeSchema = schema.NewBuilder().
	Relation("probe", 1).
	Relation("q", 1).
	Relation("p", 1).
	Relation("noise", 1).
	MustBuild()

// TestEnumeratedNodes is core's configuration of the exhaustive
// enumerator (difftest holds the same runs to naive): the node-level
// promises no engine comparison sees. After every commit CheckInvariants
// holds — anchors logged in order and ahead of their cursors, live set
// equal to ⟦ψ⟧, account equal to the walk, one timestamp per [0,b]
// entry, no stale one, each member's answer the table read through its
// window — on the checker and on a copy loaded from its snapshot of the
// commit before, whose anchor log the load rebuilt; and every once/since
// node's delta is exact (checkDelta).
func TestEnumeratedNodes(t *testing.T) {
	runs := 0
	for _, set := range formgen.KernelSets() {
		formgen.Histories(set, func(h workload.History) {
			runs++
			c := newFromHistory(t, h)
			var loaded *Checker
			answers := map[*sinceNode]map[string]bool{}
			for i, st := range h.Steps {
				label := func() string { return fmt.Sprintf("%v, step %d of %v", h.Constraints, i, h.Steps) }
				for _, ck := range []*Checker{c, loaded} {
					if ck == nil {
						continue
					}
					if _, err := ck.Step(st.Time, st.Tx); err != nil {
						t.Fatalf("%s: %v", label(), err)
					}
					if err := ck.CheckInvariants(); err != nil {
						t.Fatalf("%s (loaded=%v): %v", label(), ck == loaded, err)
					}
				}
				for _, n := range c.nodes {
					if s, ok := n.(*sinceNode); ok {
						answers[s] = checkDelta(t, label, s, st.Time, answers[s])
					}
				}
				if i < len(h.Steps)-1 {
					loaded = snapshotRoundTrip(t, c, h.Schema)
				}
			}
		})
	}
	t.Logf("%d runs of %d commits, every node's delta exact, invariants held", runs, formgen.HistoryLen)
}

// checkDelta holds node's delta to the difference between its answer
// before the commit, old, and its answer now, which it returns: added
// and removed are exactly the rows that entered and left it, each once,
// and the node is dirty exactly when they are not empty.
func checkDelta(t *testing.T, label func() string, node *sinceNode, now uint64, old map[string]bool) map[string]bool {
	t.Helper()
	ans, err := node.enumerate(now)
	if err != nil {
		t.Fatalf("%s: %s: %v", label(), node.node, err)
	}
	next := map[string]bool{}
	ans.EachRow(func(row tuple.Tuple) bool {
		next[row.Key()] = true
		return true
	})
	added, removed, exact := node.answerDelta()
	got, want := [2][]string{keysOf(added), keysOf(removed)}, [2][]string{minus(next, old), minus(old, next)}
	if !exact || fmt.Sprint(got) != fmt.Sprint(want) || node.dirty() != (len(want[0])+len(want[1]) > 0) {
		t.Fatalf("%s: %s: delta +%v −%v (exact=%v, dirty=%v), answer %v → %v", label(), node.node, got[0], got[1], exact, node.dirty(), minus(old, nil), minus(next, nil))
	}
	return next
}

// keysOf returns the rows' keys, sorted, repeats kept.
func keysOf(rows []tuple.Tuple) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = row.Key()
	}
	sort.Strings(out)
	return out
}

// minus returns the keys of a that are not in b, sorted.
func minus(a, b map[string]bool) []string {
	out := []string{}
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
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
	s := probeSchema
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
	before := c.Work().Visited
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
	if n := c.Work().Visited - before; n != 0 {
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
