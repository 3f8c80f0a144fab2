package core

import (
	"reflect"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/check"
	"rtic/internal/obs"
	"rtic/internal/workload"
)

// detailRecorder is a span recorder that asks for detail spans.
type detailRecorder struct{ *obs.SpanRecorder }

func (detailRecorder) WantsDetail() bool { return true }

// newWide installs the policy-wide set (35 constraints over 26 nodes)
// over a cdcgen feed of the given length.
func newWide(t testing.TB, steps int) (*Checker, []workload.Step) {
	t.Helper()
	cfg := cdcgen.Config{
		Steps: steps, Seed: 7, Sensors: 1024,
		BurstLen: 8, BurstEvery: 20, MaxReorder: 3, ViolationRate: 0.02,
	}
	h, _ := cdcgen.Generate(cfg)
	c := New(h.Schema)
	for _, cs := range cdcgen.WidePolicies(cfg) {
		con, err := check.Parse(cs.Name, cs.Source, h.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddConstraint(con); err != nil {
			t.Fatal(err)
		}
	}
	return c, h.Steps
}

// detailsOf lists the Detail of parent's children named name, in order.
func detailsOf(parent *obs.Span, name string) []string {
	var out []string
	for _, ch := range parent.Children {
		if ch.Name == name {
			out = append(out, ch.Detail)
		}
	}
	return out
}

// TestDetailSpans: a sink that asks for detail gets, in every commit
// tree, one node.update child per auxiliary node under phase.update in
// registration order (Detail = the subformula) and one constraint.check
// child per constraint under phase.check in installation order (Detail
// = the constraint name). The subtest keeps the name it had when the
// pipeline came in two widths.
func TestDetailSpans(t *testing.T) {
	t.Run("parallelism=1", func(t *testing.T) {
		c, steps := newWide(t, 60)
		// One nested window, so one node reads another.
		nested, err := check.Parse("nested", "serve(s) -> once[0,50] once[0,3] reading(s)", c.schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddConstraint(nested); err != nil {
			t.Fatal(err)
		}
		rec := detailRecorder{obs.NewSpanRecorder(len(steps))}
		c.SetObserver(&obs.Observer{Spans: rec})
		var wantNodes, wantCons []string
		for _, node := range c.nodes {
			wantNodes = append(wantNodes, node.formula().String())
		}
		for _, con := range c.constraints {
			wantCons = append(wantCons, con.Name)
		}
		if len(wantNodes) < 10 || len(wantCons) != 36 {
			t.Fatalf("feed too narrow to order anything: %d nodes, %d constraints",
				len(wantNodes), len(wantCons))
		}
		for _, s := range steps {
			if _, err := c.Step(s.Time, s.Tx); err != nil {
				t.Fatal(err)
			}
		}
		for i, root := range rec.Snapshot() {
			if len(root.Children) != 4 {
				t.Fatalf("commit %d has %d phases", i, len(root.Children))
			}
			update, chk, carry := root.Children[1], root.Children[2], root.Children[3]
			if got := detailsOf(update, obs.SpanNodeUpdate); !reflect.DeepEqual(got, wantNodes) {
				t.Fatalf("commit %d: node.update children\n got %q\nwant %q (registration order)", i, got, wantNodes)
			}
			if got := detailsOf(chk, obs.SpanConstraintCheck); !reflect.DeepEqual(got, wantCons) {
				t.Fatalf("commit %d: constraint.check children\n got %q\nwant %q (installation order)", i, got, wantCons)
			}
			if got := detailsOf(carry, obs.SpanNodeUpdate); got != nil {
				t.Fatalf("commit %d: carry phase carries node.update children %q", i, got)
			}
			for _, ch := range append(append([]*obs.Span{}, update.Children...), chk.Children...) {
				if ch.Time != root.Time || ch.Dur < 0 || ch.Start.Before(root.Start) {
					t.Fatalf("commit %d: child %s(%s) t=%d start=%v dur=%v outside its commit",
						i, ch.Name, ch.Detail, ch.Time, ch.Start, ch.Dur)
				}
			}
		}
	})
}

// TestRecorderBuildsNoDetail pins what a span sink that does not ask for
// detail (the recorder, the slow-commit logger) costs on the policy-wide
// feed: the commit span, its four phase spans and the growth of the
// commit's child slice more per commit than metrics alone — none of the
// 26+35 detail spans, their clock reads or their rendered formulas. The
// log line carries the absolute figures for CHANGES.md.
func TestRecorderBuildsNoDetail(t *testing.T) {
	const warm, runs = 300, 1000
	allocsPerStep := func(o *obs.Observer) float64 {
		c, steps := newWide(t, warm+runs+1)
		c.SetObserver(o)
		next := 0
		step := func() {
			if _, err := c.Step(steps[next].Time, steps[next].Tx); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for next < warm {
			step()
		}
		return testing.AllocsPerRun(runs, step)
	}
	metrics := allocsPerStep(&obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())})
	recorded := allocsPerStep(&obs.Observer{
		Metrics: obs.NewMetrics(obs.NewRegistry()), Spans: obs.NewSpanRecorder(16),
	})
	t.Logf("allocs per Step on the policy-wide feed: metrics only %v, metrics + recorder %v", metrics, recorded)
	// 5 spans + the commit's child slice growing 1 -> 2 -> 4; one detail
	// span per node or constraint would add dozens.
	if got := recorded - metrics; got < 5 || got > 9 {
		t.Errorf("the recorder costs %v allocations per commit over metrics alone, want 5..9 (five spans and their child slice)", got)
	}
}
