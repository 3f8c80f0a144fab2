package monitor

import (
	"bytes"
	"fmt"
	"testing"

	"rtic/internal/obs"
	"rtic/internal/workload"

	rschema "rtic/internal/schema"
)

// TestApplySpansAndLockWait checks the monitor's commit section: each
// Apply emits one tree — a monitor.apply root carrying the
// serialization wait, with the engine's own commit span adopted beneath
// it rather than reaching the sink as a second root — and the lock-wait
// histogram advances alongside.
func TestApplySpansAndLockWait(t *testing.T) {
	s := rschema.NewBuilder().Relation("hire", 1).Relation("fire", 1).MustBuild()
	m, err := New(s, []workload.ConstraintSpec{
		{Name: "no_quick_rehire", Source: "hire(e) -> not once[0,365] fire(e)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewSpanRecorder(16)
	metrics := obs.NewMetrics(obs.NewRegistry())
	m.SetObserver(&obs.Observer{Metrics: metrics, Spans: rec})

	if _, err := m.Apply(1, ins("fire", 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(2, ins("hire", 7)); err != nil {
		t.Fatal(err)
	}

	roots := rec.Snapshot()
	if len(roots) != 2 {
		t.Fatalf("sink saw %d roots for 2 commits, want one tree each", len(roots))
	}
	for _, sp := range roots {
		if sp.Name != obs.SpanMonitorApply {
			t.Fatalf("root %q, want %s", sp.Name, obs.SpanMonitorApply)
		}
		if sp.Dur <= 0 {
			t.Errorf("apply span t=%d has no duration", sp.Time)
		}
		if sp.Wait < 0 || sp.Wait > sp.Dur {
			t.Errorf("apply span t=%d wait %v outside [0, %v]", sp.Time, sp.Wait, sp.Dur)
		}
		if len(sp.Children) != 1 || sp.Children[0].Name != obs.SpanCommit || sp.Children[0].Time != sp.Time {
			t.Errorf("apply span t=%d children = %v, want the engine's commit", sp.Time, sp.Children)
		}
	}
	if got := metrics.LockWaitSeconds.Count(); got != 2 {
		t.Errorf("lock-wait observations = %d, want 2", got)
	}
	// A rejected commit still emits the span, carrying the error.
	if _, err := m.Apply(1, ins("fire", 1)); err == nil {
		t.Fatal("stale timestamp accepted")
	}
	failed := rec.Snapshot()[2]
	if failed.Err == nil || len(failed.Children) != 1 || failed.Children[0].Err == nil {
		t.Errorf("failed Apply did not surface its error on the root and the commit beneath it: %s", failed.Render())
	}
	// Between Applies nothing is open: a span a layer under the commit
	// lock hands over (a checkpoint's snapshot.save) stays its own root.
	var snap bytes.Buffer
	if err := m.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if last := rec.Snapshot()[3]; last.Name != obs.SpanSnapshotSave || len(last.Children) != 0 {
		t.Errorf("snapshot outside an Apply arrived as %s, want a snapshot.save root", last.Render())
	}
}

// TestSnapshotSpansSharded holds a sharded monitor's checkpoint and
// restore to the unsharded ones' trace: one snapshot.save root per
// Snapshot and one snapshot.restore root per RestoreObserved, named and
// detailed as core writes them — not one per shard, and not none.
func TestSnapshotSpansSharded(t *testing.T) {
	s := rschema.NewBuilder().Relation("hire", 1).Relation("fire", 1).MustBuild()
	for _, n := range []int{1, 2} {
		m, err := New(s, []workload.ConstraintSpec{
			{Name: "no_quick_rehire", Source: "hire(e) -> not once[0,365] fire(e)"},
		}, WithShards(n))
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range []int64{7, 8, 9} {
			if _, err := m.Apply(uint64(10*(i+1)), ins("fire", e)); err != nil {
				t.Fatal(err)
			}
		}
		rec := obs.NewSpanRecorder(16)
		m.SetObserver(&obs.Observer{Spans: rec})
		var snap bytes.Buffer
		if err := m.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		size := snap.Len()
		m2, err := RestoreObserved(s, nil, &snap, &obs.Observer{Spans: rec}, WithShards(n))
		if err != nil {
			t.Fatal(err)
		}
		roots := rec.Snapshot()
		if len(roots) != 2 {
			t.Fatalf("shards=%d: sink saw %d roots for one save and one restore, want 2", n, len(roots))
		}
		for i, want := range []struct{ name, detail string }{
			{obs.SpanSnapshotSave, fmt.Sprintf("%d bytes", size)},
			{obs.SpanSnapshotRestore, "3 states"},
		} {
			sp := roots[i]
			if sp.Name != want.name || sp.Detail != want.detail || sp.Time != 30 || sp.Err != nil || len(sp.Children) != 0 {
				t.Errorf("shards=%d: root %d = %s, want a bare %s span at t=30 with detail %q",
					n, i, sp.Render(), want.name, want.detail)
			}
		}
		if m2.Shards() != n || m2.Len() != 3 {
			t.Fatalf("shards=%d: restored %d shards after %d commits", n, m2.Shards(), m2.Len())
		}
	}
}
