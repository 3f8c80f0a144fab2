package monitor

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"rtic/internal/check"
	"rtic/internal/obs"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/wal"
	"rtic/internal/workload"
)

// hrTrace is a deterministic workload with violations scattered
// through it: firing then rehiring the same employee within the window
// trips no_quick_rehire.
func hrTrace(n int) []struct {
	t  uint64
	tx *storage.Transaction
} {
	var steps []struct {
		t  uint64
		tx *storage.Transaction
	}
	for i := 0; i < n; i++ {
		e := int64(i % 5)
		tx := storage.NewTransaction()
		if i%3 == 0 {
			tx.Insert("fire", tuple.Ints(e))
		} else {
			tx.Delete("fire", tuple.Ints(e)).Insert("hire", tuple.Ints(e))
		}
		steps = append(steps, struct {
			t  uint64
			tx *storage.Transaction
		}{uint64(i * 10), tx})
	}
	return steps
}

// journalCounts are the configurations the durability tests run under:
// an unsharded monitor with its one journal, and a two-shard monitor
// with one journal per shard. Everything the manager does is the same
// code for both; the tables below hold it to that.
var journalCounts = []int{1, 2}

func forJournalCounts(t *testing.T, f func(t *testing.T, n int)) {
	for _, n := range journalCounts {
		t.Run(fmt.Sprintf("journals=%d", n), func(t *testing.T) { f(t, n) })
	}
}

func hrSchema() *schema.Schema {
	return schema.NewBuilder().Relation("hire", 1).Relation("fire", 1).MustBuild()
}

// durableMonitor builds the hire/fire monitor over n shards (1 = unsharded).
func durableMonitor(t *testing.T, shards int) *Monitor {
	t.Helper()
	m, err := New(hrSchema(), []workload.ConstraintSpec{
		{Name: "no_quick_rehire", Source: "hire(e) -> not once[0,365] fire(e)"},
	}, WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	m.SetObserver(&obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())})
	return m
}

// journalPath is where the tests keep journal i of n under dir.
func journalPath(dir string, n, i int) string {
	return JournalPaths(filepath.Join(dir, "state.wal"), n)[i]
}

func snapshotPath(dir string) string { return filepath.Join(dir, "state.snap") }

// openJournals opens the n journals under dir; last applies extra
// options (a fault filesystem, typically) to the last journal only, so
// the tests also cover journals that fail independently.
func openJournals(t *testing.T, dir string, n int, last ...wal.Option) []*wal.Log {
	t.Helper()
	logs := make([]*wal.Log, n)
	for i := range logs {
		var opts []wal.Option
		if i == n-1 {
			opts = last
		}
		l, err := wal.Open(journalPath(dir, n, i), opts...)
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = l
	}
	return logs
}

func closeJournals(t *testing.T, logs []*wal.Log) {
	t.Helper()
	for _, l := range logs {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// attachDurable builds the manager over logs, checkpointing to snapPath
// ("" = journal only), and starts journaling.
func attachDurable(t *testing.T, m *Monitor, logs []*wal.Log, snapPath string, opts ...DurableOption) *Durable {
	t.Helper()
	d, err := NewDurableLogs(m, logs, snapPath, opts...)
	if err != nil {
		t.Fatal(err)
	}
	d.Attach()
	return d
}

// recoverFrom does what a restarted process does over dir on the real
// filesystem: restore the checkpoint if there is one, reopen the
// journals, replay. The journals stay open until the test ends.
func recoverFrom(t *testing.T, dir string, n int, snapPath string) (*Monitor, *Durable, int) {
	t.Helper()
	var m *Monitor
	if sf, err := os.Open(snapPath); err == nil {
		m, err = RestoreObserved(hrSchema(), nil, sf, &obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())}, WithShards(n))
		sf.Close()
		if err != nil {
			t.Fatalf("restoring checkpoint: %v", err)
		}
	} else {
		m = durableMonitor(t, n)
	}
	logs := openJournals(t, dir, n)
	t.Cleanup(func() {
		for _, l := range logs {
			l.Close()
		}
	})
	d, err := NewDurableLogs(m, logs, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := d.Recover()
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	return m, d, replayed
}

// applyAll commits steps and returns each step's violations.
func applyAll(t *testing.T, m *Monitor, steps []struct {
	t  uint64
	tx *storage.Transaction
}) [][]check.Violation {
	t.Helper()
	var out [][]check.Violation
	for _, st := range steps {
		vs, err := m.Apply(st.t, st.tx)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, check.CloneViolations(vs))
	}
	return out
}

// violationKeys flattens per-step violations into comparable strings.
// Within one step the parallel pipeline reports violations in
// nondeterministic order, so each step's batch is sorted.
func violationKeys(vss [][]check.Violation) []string {
	var out []string
	for i, vs := range vss {
		step := make([]string, 0, len(vs))
		for _, v := range vs {
			step = append(step, fmt.Sprintf("%d:%s", i, v.String()))
		}
		sort.Strings(step)
		out = append(out, step...)
	}
	return out
}

// TestKillAndRecoverMatchesUninterrupted drives half a trace into a
// durable monitor, checkpoints mid-way, keeps committing, "crashes"
// (abandons the monitor without any shutdown), recovers a fresh one
// from checkpoint + journal replay, and finishes the trace. Violations
// from the recovered half and the final auxiliary state must be
// identical to one uninterrupted run.
func TestKillAndRecoverMatchesUninterrupted(t *testing.T) {
	forJournalCounts(t, func(t *testing.T, n int) {
		trace := hrTrace(30)
		half := len(trace) / 2
		ckptAt := len(trace) / 3

		ref := durableMonitor(t, n)
		refVs := applyAll(t, ref, trace)

		dir := t.TempDir()
		snapPath := snapshotPath(dir)
		m1 := durableMonitor(t, n)
		logs1 := openJournals(t, dir, n)
		d1 := attachDurable(t, m1, logs1, snapPath)
		firstVs := applyAll(t, m1, trace[:ckptAt])
		if err := d1.Checkpoint(); err != nil {
			t.Fatalf("mid-run checkpoint: %v", err)
		}
		firstVs = append(firstVs, applyAll(t, m1, trace[ckptAt:half])...)
		if !reflect.DeepEqual(violationKeys(firstVs), violationKeys(refVs[:half])) {
			t.Fatal("pre-crash violations diverge from reference — test bug")
		}
		for i, l := range logs1 {
			if l.Records() != half-ckptAt {
				t.Fatalf("journal %d holds %d records, want the %d since the checkpoint", i, l.Records(), half-ckptAt)
			}
		}
		// Crash: no checkpoint, no journal close, the monitor is simply gone.

		m2, d2, replayed := recoverFrom(t, dir, n, snapPath)
		if want := half - ckptAt; replayed != want {
			t.Errorf("replayed %d commits, want %d (journal tail past the checkpoint)", replayed, want)
		}
		if h := d2.Health(); h.Status != "ok" || h.ReplayedRecords != replayed {
			t.Errorf("Health() = %+v, want ok with %d replayed", h, replayed)
		}
		if m2.Len() != half || m2.Now() != trace[half-1].t {
			t.Fatalf("recovered to Len=%d Now=%d, want %d/%d", m2.Len(), m2.Now(), half, trace[half-1].t)
		}
		d2.Attach()

		// The recovered monitor must finish the trace exactly like the
		// uninterrupted one: same violations, same auxiliary state.
		restVs := applyAll(t, m2, trace[half:])
		if got, want := violationKeys(restVs), violationKeys(refVs[half:]); !reflect.DeepEqual(got, want) {
			t.Errorf("post-recovery violations = %v, want %v", got, want)
		}
		if got, want := m2.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("post-recovery aux stats = %+v, want %+v", got, want)
		}
	})
}

// TestRecoverWALOnly replays the journals into an empty monitor when no
// checkpoint was ever written.
func TestRecoverWALOnly(t *testing.T) {
	forJournalCounts(t, func(t *testing.T, n int) {
		trace := hrTrace(12)
		dir := t.TempDir()

		m1 := durableMonitor(t, n)
		logs1 := openJournals(t, dir, n)
		d1 := attachDurable(t, m1, logs1, "")
		if k, err := d1.Recover(); err != nil || k != 0 {
			t.Fatalf("Recover on empty journals = (%d, %v), want (0, nil)", k, err)
		}
		applyAll(t, m1, trace)
		for i, l := range logs1 {
			if l.Records() != len(trace) {
				t.Fatalf("journal %d holds %d records, want one per commit (%d)", i, l.Records(), len(trace))
			}
		}
		// Crash without closing.

		m2, _, replayed := recoverFrom(t, dir, n, "")
		if replayed != len(trace) {
			t.Fatalf("Recover replayed %d commits, want %d", replayed, len(trace))
		}
		if m2.Len() != m1.Len() || m2.Now() != m1.Now() || !reflect.DeepEqual(m2.Stats(), m1.Stats()) {
			t.Errorf("journal-only recovery diverged: Len %d/%d Now %d/%d", m2.Len(), m1.Len(), m2.Now(), m1.Now())
		}
	})
}

// TestRecoverSkipsRecordsCoveredByCheckpoint simulates a crash between
// the checkpoint rename and the last journal reset, for every subset of
// journals the crash (or a failed reset) left unreset: every record
// still journaled is also in the checkpoint, and replay must skip all
// of them by timestamp — per journal, before comparing journals, since
// they now differ in length. The journals must stay usable: commits
// journaled after the recovery replay, alone, on the next one.
func TestRecoverSkipsRecordsCoveredByCheckpoint(t *testing.T) {
	forJournalCounts(t, func(t *testing.T, n int) {
		for unreset := 1; unreset < 1<<n; unreset++ {
			trace := hrTrace(12)
			covered := trace[:8]
			dir := t.TempDir()
			snapPath := snapshotPath(dir)

			m1 := durableMonitor(t, n)
			logs1 := openJournals(t, dir, n)
			attachDurable(t, m1, logs1, snapPath)
			applyAll(t, m1, covered)
			// Checkpoint by hand, as if the process died part-way through
			// the resets.
			if err := wal.WriteFileAtomic(snapPath, m1.Snapshot); err != nil {
				t.Fatal(err)
			}
			for i, l := range logs1 {
				if unreset&(1<<i) == 0 {
					if err := l.Reset(); err != nil {
						t.Fatal(err)
					}
				}
			}

			m2, d2, replayed := recoverFrom(t, dir, n, snapPath)
			if replayed != 0 {
				t.Errorf("unreset=%b: replayed %d records that the checkpoint already covers", unreset, replayed)
			}
			if m2.Len() != m1.Len() || m2.Now() != m1.Now() {
				t.Errorf("unreset=%b: double-apply detected: Len %d/%d Now %d/%d", unreset, m2.Len(), m1.Len(), m2.Now(), m1.Now())
			}
			d2.Attach()
			applyAll(t, m2, trace[len(covered):])
			m3, _, replayed := recoverFrom(t, dir, n, snapPath)
			if replayed != len(trace)-len(covered) || m3.Len() != len(trace) || !reflect.DeepEqual(m3.Stats(), m2.Stats()) {
				t.Errorf("unreset=%b: second recovery replayed %d to Len=%d, want %d to %d", unreset, replayed, m3.Len(), len(trace)-len(covered), len(trace))
			}
			// Neither recovery may have cut a journal: the covered records
			// are a prefix to skip, not a torn tail.
			logs3 := openJournals(t, dir, n)
			for i, l := range logs3 {
				want := len(trace) - len(covered)
				if unreset&(1<<i) != 0 {
					want = len(trace)
				}
				if l.Records() != want {
					t.Errorf("unreset=%b: journal %d holds %d records after two recoveries, want %d", unreset, i, l.Records(), want)
				}
			}
			closeJournals(t, logs3)
		}
	})
}

// TestCheckpointFailureReportsDegraded points the checkpoint at an
// unwritable path and expects Health to flip to degraded — and back to
// ok once checkpointing succeeds again.
func TestCheckpointFailureReportsDegraded(t *testing.T) {
	forJournalCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		m := durableMonitor(t, n)
		logs := openJournals(t, dir, n)
		defer closeJournals(t, logs)
		d := attachDurable(t, m, logs, filepath.Join(dir, "no-such-dir", "state.snap"))
		if _, err := m.Apply(0, ins("fire", 1)); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err == nil {
			t.Fatal("checkpoint into a missing directory succeeded")
		}
		h := d.Health()
		if h.Status != "degraded" || h.LastError == "" {
			t.Errorf("health after failed checkpoint = %+v, want degraded", h)
		}
		if h.LastCheckpointAgeSeconds != -1 {
			t.Errorf("LastCheckpointAgeSeconds = %v, want -1 (never)", h.LastCheckpointAgeSeconds)
		}
		mm := m.Observer().MetricSink()
		if mm.CheckpointErrors.Value() != 1 {
			t.Errorf("CheckpointErrors = %d, want 1", mm.CheckpointErrors.Value())
		}

		// Recovery of the degraded state: fix the path, checkpoint again.
		d.snapPath = snapshotPath(dir)
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		h = d.Health()
		if h.Status != "ok" || h.LastCheckpointAgeSeconds < 0 {
			t.Errorf("health after recovery = %+v, want ok with a real age", h)
		}
		for i, l := range logs {
			if l.Records() != 0 {
				t.Errorf("checkpoint did not reset journal %d: %d records", i, l.Records())
			}
		}
	})
}
