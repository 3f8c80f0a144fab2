package difftest

import (
	"testing"

	"rtic/internal/active"
	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/naive"
	"rtic/internal/obs"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
)

// TestEngineObserverOutput holds every engine to the same observer
// output over one rehire history: one commit root span per commit, the
// commit and per-constraint violation counters, and one latency
// observation per commit. The bench harness attaches span sinks to the
// specification and the Table 5 baseline as well as to the paper's
// checker, so their instrumentation is tested here, engine by engine.
func TestEngineObserverOutput(t *testing.T) {
	s := schema.NewBuilder().Relation("hire", 1).Relation("fire", 1).MustBuild()
	engines := []struct {
		label string
		eng   engine.Engine
	}{
		{"core", core.New(s)},
		{"naive", naive.New(s)},
		{"active", active.New(s)},
	}
	for _, e := range engines {
		t.Run(e.label, func(t *testing.T) {
			m := obs.NewMetrics(obs.NewRegistry())
			rec := obs.NewSpanRecorder(8)
			e.eng.SetObserver(&obs.Observer{Metrics: m, Spans: rec})
			con, err := check.Parse("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)", s)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.eng.AddConstraint(con); err != nil {
				t.Fatal(err)
			}
			fire := storage.NewTransaction()
			fire.Insert("fire", tuple.Ints(7))
			if _, err := e.eng.Step(0, fire); err != nil {
				t.Fatal(err)
			}
			rehire := storage.NewTransaction()
			rehire.Delete("fire", tuple.Ints(7))
			rehire.Insert("hire", tuple.Ints(7))
			vs, err := e.eng.Step(100, rehire)
			if err != nil {
				t.Fatal(err)
			}
			if len(vs) != 1 {
				t.Fatalf("want 1 violation, got %d", len(vs))
			}

			roots := rec.Snapshot()
			if len(roots) != 2 || roots[0].Name != obs.SpanCommit || roots[1].Name != obs.SpanCommit ||
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
		})
	}
}
