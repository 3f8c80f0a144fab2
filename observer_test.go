package rtic

import (
	"bytes"
	"sync"
	"testing"
)

func obsSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema().Relation("hire", 1).Relation("fire", 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// driveRehire commits two transactions, the second violating
// no_quick_rehire with e=7.
func driveRehire(t *testing.T, c *Checker) {
	t.Helper()
	if _, err := c.Begin().Insert("fire", Int(7)).Commit(0); err != nil {
		t.Fatal(err)
	}
	vs, err := c.Begin().Delete("fire", Int(7)).Insert("hire", Int(7)).Commit(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %d", len(vs))
	}
}

func TestWithObserverMetricsAllModes(t *testing.T) {
	forEachEngine(t, obsSchema(t), func(t *testing.T, c *Checker) {
		reg := NewRegistry()
		m := NewMetrics(reg)
		rec := NewSpanRecorder(8)
		// Attach the observer the way WithObserver does, to whichever
		// engine forEachEngine put behind c.
		c.obs = &Observer{Metrics: m, Spans: rec}
		c.eng.SetObserver(c.obs)
		if err := c.AddConstraint("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)"); err != nil {
			t.Fatal(err)
		}
		driveRehire(t, c)

		// Every commit is one root span named commit.
		roots := rec.Snapshot()[1:] // [0] is the parse root
		if len(roots) != 2 || roots[0].Name != "commit" || roots[1].Name != "commit" ||
			roots[0].Time != 0 || roots[1].Time != 100 || roots[1].Ops != 2 {
			t.Errorf("2 commits yielded roots %v, want one commit root each (t=0, t=100 ops=2)", roots)
		}

		if got := m.Commits.Value(); got != 2 {
			t.Errorf("commits = %d, want 2", got)
		}
		if got := m.Violations.With("no_quick_rehire").Value(); got != 1 {
			t.Errorf("violations = %d, want 1", got)
		}
		if got := m.CommitSeconds.Count(); got != 2 {
			t.Errorf("latency observations = %d, want 2", got)
		}
		st := c.Stats()
		if got := m.AuxNodes.Value(); got != int64(st.Nodes) {
			t.Errorf("aux nodes gauge = %d, Stats says %d", got, st.Nodes)
		}
		if got := m.AuxEntries.Value(); got != int64(st.Entries) {
			t.Errorf("aux entries gauge = %d, Stats says %d", got, st.Entries)
		}
		if got := m.AuxBytes.Value(); got != int64(st.Bytes) {
			t.Errorf("aux bytes gauge = %d, Stats says %d", got, st.Bytes)
		}

		// Failed commits count as errors, not commits.
		if _, err := c.Begin().Insert("hire", Int(1)).Commit(50); err == nil {
			t.Error("non-increasing timestamp accepted")
		}
		if got := m.CommitErrors.Value(); got != 1 {
			t.Errorf("commit errors = %d, want 1", got)
		}
		if got := m.Commits.Value(); got != 2 {
			t.Errorf("commits after failed commit = %d, want 2", got)
		}
	})
}

// recSink is a span sink that asks for detail and counts every span it
// is handed, by name, across whole trees.
type recSink struct {
	mu    sync.Mutex
	names map[string]int
	errs  map[string]error // last error seen per span name
}

func (r *recSink) WantsDetail() bool { return true }

func (r *recSink) ObserveSpan(root *Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names == nil {
		r.names = make(map[string]int)
		r.errs = make(map[string]error)
	}
	root.Walk(func(s *Span) {
		r.names[s.Name]++
		if s.Err != nil {
			r.errs[s.Name] = s.Err
		}
	})
}

func (r *recSink) count(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.names[name]
}

func TestWithObserverSpans(t *testing.T) {
	rec := &recSink{}
	c, err := NewChecker(obsSchema(t), WithObserver(&Observer{Spans: rec}))
	if err != nil {
		t.Fatal(err)
	}
	// A constraint that does not parse still yields its parse span,
	// carrying the error.
	if err := c.AddConstraint("broken", "hire(e) ->"); err == nil {
		t.Fatal("malformed constraint accepted")
	}
	if got := rec.count("parse"); got != 1 || rec.errs["parse"] == nil {
		t.Errorf("failing parse: %d parse spans, err %v; want 1 and the parse error", got, rec.errs["parse"])
	}
	if err := c.AddConstraint("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)"); err != nil {
		t.Fatal(err)
	}
	driveRehire(t, c)
	var snap bytes.Buffer
	if err := c.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if got := rec.count("parse"); got != 2 {
		t.Errorf("parse spans = %d, want 2 (one failed, one installed)", got)
	}
	if got := rec.count("commit"); got != 2 {
		t.Errorf("commit spans = %d, want 2", got)
	}
	if got := rec.count("node.update"); got != 2 { // one temporal node, two commits
		t.Errorf("node.update spans = %d, want 2", got)
	}
	if got := rec.count("constraint.check"); got != 2 {
		t.Errorf("constraint.check spans = %d, want 2", got)
	}
	if got := rec.count("snapshot.save"); got != 1 {
		t.Errorf("snapshot.save spans = %d, want 1", got)
	}

	// Restoring with the observer emits the restore span and keeps
	// instrumenting the restored checker.
	c2, err := RestoreChecker(obsSchema(t), &snap, WithObserver(&Observer{Spans: rec}))
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.count("snapshot.restore"); got != 1 {
		t.Errorf("snapshot.restore spans = %d, want 1", got)
	}
	if _, err := c2.Begin().Insert("fire", Int(9)).Commit(200); err != nil {
		t.Fatal(err)
	}
	if got := rec.count("commit"); got != 3 {
		t.Errorf("commit spans after restore = %d, want 3", got)
	}
}

func TestObserverPreRegistersConstraintSeries(t *testing.T) {
	reg := NewRegistry()
	m := NewMetrics(reg)
	c, err := NewChecker(obsSchema(t), WithObserver(&Observer{Metrics: m}))
	if err != nil {
		t.Fatal(err)
	}
	c.MustAddConstraint("a", "hire(e) -> not once[0,10] fire(e)")
	c.MustAddConstraint("b", "fire(e) -> not hire(e)")
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`rtic_violations_total{constraint="a"} 0`,
		`rtic_violations_total{constraint="b"} 0`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %q before any commit:\n%s", want, buf.String())
		}
	}
}
