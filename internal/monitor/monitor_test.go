package monitor

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/workload"
)

func hrMonitor(t testing.TB) (*Monitor, *schema.Schema) {
	t.Helper()
	s := schema.NewBuilder().Relation("hire", 1).Relation("fire", 1).MustBuild()
	m, err := New(s, []workload.ConstraintSpec{
		{Name: "no_quick_rehire", Source: "hire(e) -> not once[0,365] fire(e)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

func ins(rel string, v int64) *storage.Transaction {
	return storage.NewTransaction().Insert(rel, tuple.Ints(v))
}

func TestMonitorApply(t *testing.T) {
	m, _ := hrMonitor(t)
	vs, err := m.Apply(0, ins("fire", 7))
	if err != nil || len(vs) != 0 {
		t.Fatalf("vs=%v err=%v", vs, err)
	}
	vs, err = m.Apply(100, ins("hire", 7))
	if err != nil || len(vs) != 1 {
		t.Fatalf("vs=%v err=%v", vs, err)
	}
	if m.Len() != 2 || m.Now() != 100 {
		t.Fatalf("Len=%d Now=%d", m.Len(), m.Now())
	}
}

func TestMonitorBadConstraint(t *testing.T) {
	s := schema.NewBuilder().Relation("p", 1).MustBuild()
	if _, err := New(s, []workload.ConstraintSpec{{Name: "c", Source: "(("}}); err == nil {
		t.Fatal("bad constraint accepted")
	}
}

func TestSubscribeReceivesViolations(t *testing.T) {
	m, _ := hrMonitor(t)
	ch, cancel := m.Subscribe(8)
	defer cancel()
	if _, err := m.Apply(0, ins("fire", 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(100, ins("hire", 7)); err != nil {
		t.Fatal(err)
	}
	v := <-ch
	if v.Constraint != "no_quick_rehire" {
		t.Fatalf("received %v", v)
	}
}

func TestSubscribeCancelIdempotent(t *testing.T) {
	m, _ := hrMonitor(t)
	ch, cancel := m.Subscribe(1)
	cancel()
	cancel() // must not panic or double-close
	if _, open := <-ch; open {
		t.Fatal("channel not closed after cancel")
	}
}

func TestSlowSubscriberDrops(t *testing.T) {
	m, _ := hrMonitor(t)
	_, cancel := m.Subscribe(1) // never read
	defer cancel()
	tm := uint64(0)
	// Produce violations: fire then hire distinct employees quickly.
	for i := int64(0); i < 5; i++ {
		tm++
		if _, err := m.Apply(tm, ins("fire", i)); err != nil {
			t.Fatal(err)
		}
		tm++
		if _, err := m.Apply(tm, ins("hire", i)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Dropped() == 0 {
		t.Fatal("expected drops from a full subscriber buffer")
	}
}

func TestConcurrentApplySerialized(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := durableMonitor(t, shards)
			// Concurrent commits with pre-assigned increasing timestamps: all
			// must succeed or fail only due to out-of-order arrival (which the
			// monitor must reject cleanly, never corrupt).
			var wg sync.WaitGroup
			errs := make([]error, 50)
			for i := 0; i < 50; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = m.Apply(uint64(i+1), storage.NewTransaction())
				}(i)
			}
			wg.Wait()
			okCount, latest := 0, uint64(0)
			for i, err := range errs {
				if err == nil {
					okCount++
					latest = max(latest, uint64(i+1))
				}
			}
			if okCount == 0 {
				t.Fatal("no commit succeeded")
			}
			if m.Len() != okCount || m.Now() != latest {
				t.Fatalf("Len=%d Now=%d, want %d successes ending at t=%d", m.Len(), m.Now(), okCount, latest)
			}

			// A rejected commit — a stale clock, or an undeclared relation —
			// leaves the clock and the count where they were.
			for _, bad := range []struct {
				t  uint64
				tx *storage.Transaction
			}{
				{latest, ins("fire", 1)},
				{latest - 1, ins("fire", 1)},
				{latest + 1, ins("nope", 1)},
			} {
				if _, err := m.Apply(bad.t, bad.tx); err == nil {
					t.Fatalf("commit at t=%d after t=%d accepted", bad.t, latest)
				}
				if m.Len() != okCount || m.Now() != latest {
					t.Fatalf("after a rejected commit at t=%d: Len=%d Now=%d, want %d/%d", bad.t, m.Len(), m.Now(), okCount, latest)
				}
			}
		})
	}
}

func TestSnapshotRestore(t *testing.T) {
	for _, shards := range []int{1, 3} {
		m := durableMonitor(t, shards)
		if _, err := m.Apply(0, ins("fire", 7)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		// A snapshot restores only under the shard count it was taken with.
		if _, err := Restore(hrSchema(), bytes.NewReader(buf.Bytes()), WithShards(shards+1)); err == nil {
			t.Fatalf("shards=%d: snapshot restored under %d shards", shards, shards+1)
		}
		m2, err := Restore(hrSchema(), &buf, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if m2.Shards() != shards || m2.Len() != 1 {
			t.Fatalf("shards=%d: restored monitor has %d shards, %d states", shards, m2.Shards(), m2.Len())
		}
		for _, mon := range []*Monitor{m, m2} {
			vs, err := mon.Apply(100, ins("hire", 7))
			if err != nil || len(vs) != 1 {
				t.Fatalf("shards=%d: rehire on live/restored monitor: vs=%v err=%v", shards, vs, err)
			}
		}
		if got, want := m2.Stats(), m.Stats(); got.Nodes != want.Nodes || got.Entries != want.Entries || want.Nodes != shards {
			t.Fatalf("shards=%d: restored stats = %+v, live %+v", shards, got, want)
		}
	}
}

func TestMonitorString(t *testing.T) {
	m, _ := hrMonitor(t)
	if m.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRecentRingBuffer(t *testing.T) {
	m, _ := hrMonitor(t)
	if got := m.Recent(10); len(got) != 0 {
		t.Fatalf("fresh monitor Recent = %v", got)
	}
	tm := uint64(0)
	// Produce 150 violations to wrap the 128-slot ring.
	for i := int64(0); i < 150; i++ {
		tm++
		if _, err := m.Apply(tm, ins("fire", i)); err != nil {
			t.Fatal(err)
		}
		tm++
		if _, err := m.Apply(tm, ins("hire", i)); err != nil {
			t.Fatal(err)
		}
	}
	all := m.Recent(0)
	if len(all) != 128 {
		t.Fatalf("ring holds %d, want 128", len(all))
	}
	// Oldest-first ordering (several violations can share a commit
	// time, so non-decreasing).
	for i := 1; i < len(all); i++ {
		if all[i-1].Time > all[i].Time {
			t.Fatalf("Recent not ordered at %d", i)
		}
	}
	last5 := m.Recent(5)
	if len(last5) != 5 || last5[4].Time != all[127].Time {
		t.Fatalf("Recent(5) = %v", last5)
	}
}
