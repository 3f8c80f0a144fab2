package monitor

import (
	"path/filepath"
	"strings"
	"testing"

	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/wal"
)

// TestShardedRecoverTruncatesTornJournals simulates a crash that
// journaled a commit on only some shards: the extra records must be
// discarded (not replayed), and the longer journals truncated back to
// the common prefix so the next run appends aligned.
func TestShardedRecoverTruncatesTornJournals(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	trace := hrTrace(12)

	m1 := durableMonitor(t, shards)
	logs1 := openJournals(t, dir, shards)
	d1, err := NewDurableLogs(m1, logs1, "")
	if err != nil {
		t.Fatal(err)
	}
	d1.Attach()
	for _, st := range trace {
		if _, err := m1.Apply(st.t, st.tx); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the tail: shards 0 and 2 journal one more commit, shard 1
	// crashes before its append.
	torn := storage.NewTransaction().Insert("fire", tuple.Ints(1))
	for _, i := range []int{0, 2} {
		if err := logs1[i].AppendTx(uint64(len(trace)*10), torn); err != nil {
			t.Fatal(err)
		}
	}
	closeJournals(t, logs1)

	m2 := durableMonitor(t, shards)
	logs2 := openJournals(t, dir, shards)
	d2, err := NewDurableLogs(m2, logs2, "")
	if err != nil {
		t.Fatal(err)
	}
	applied, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(trace) {
		t.Fatalf("Recover applied %d commits, want %d (torn tail discarded)", applied, len(trace))
	}
	if m2.Now() != trace[len(trace)-1].t {
		t.Fatalf("recovered to t=%d, want %d", m2.Now(), trace[len(trace)-1].t)
	}
	for i, l := range logs2 {
		if l.Records() != len(trace) {
			t.Fatalf("journal %d holds %d records after recovery, want %d", i, l.Records(), len(trace))
		}
	}
	// The truncation must hold on disk, not only in memory.
	closeJournals(t, logs2)
	logs3 := openJournals(t, dir, shards)
	defer closeJournals(t, logs3)
	for i, l := range logs3 {
		if l.Records() != len(trace) {
			t.Fatalf("journal %d holds %d records after reopen, want %d", i, l.Records(), len(trace))
		}
	}
}

// TestShardedRecoverEveryTornSubset crashes a run at every (shard
// subset, prefix length) combination the torn-tail model allows and
// proves recovery always lands on a consistent global state: the
// common prefix replayed, the tail gone, and the run completable.
func TestShardedRecoverEveryTornSubset(t *testing.T) {
	const shards = 3
	trace := hrTrace(8)
	full := len(trace)

	for prefix := 0; prefix < full; prefix++ {
		for mask := 1; mask < 1<<shards-1; mask++ { // proper nonempty subsets got the extra commit
			dir := t.TempDir()
			m1 := durableMonitor(t, shards)
			logs1 := openJournals(t, dir, shards)
			d1, err := NewDurableLogs(m1, logs1, "")
			if err != nil {
				t.Fatal(err)
			}
			d1.Attach()
			for _, st := range trace[:prefix] {
				if _, err := m1.Apply(st.t, st.tx); err != nil {
					t.Fatal(err)
				}
			}
			// The crash commit reaches only the journals in mask.
			crashStep := trace[prefix]
			parts := m1.Router().Split(crashStep.tx)
			for i := 0; i < shards; i++ {
				if mask&(1<<i) != 0 {
					if err := logs1[i].AppendTx(crashStep.t, parts[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			closeJournals(t, logs1)

			m2 := durableMonitor(t, shards)
			logs2 := openJournals(t, dir, shards)
			d2, err := NewDurableLogs(m2, logs2, "")
			if err != nil {
				t.Fatal(err)
			}
			applied, err := d2.Recover()
			if err != nil {
				t.Fatalf("prefix=%d mask=%b: Recover: %v", prefix, mask, err)
			}
			if applied != prefix {
				t.Fatalf("prefix=%d mask=%b: applied %d, want %d", prefix, mask, applied, prefix)
			}
			d2.Attach()
			// The run must be completable from the recovered state,
			// re-committing the commit whose journaling tore.
			for _, st := range trace[prefix:] {
				if _, err := m2.Apply(st.t, st.tx); err != nil {
					t.Fatalf("prefix=%d mask=%b: resume at t=%d: %v", prefix, mask, st.t, err)
				}
			}
			if m2.Len() != full {
				t.Fatalf("prefix=%d mask=%b: finished at len=%d, want %d", prefix, mask, m2.Len(), full)
			}
			closeJournals(t, logs2)
		}
	}
}

// TestDurableJournalValidation covers the constructor's journal checks:
// none at all, or exactly one per shard, none of them nil.
func TestDurableJournalValidation(t *testing.T) {
	unsharded := durableMonitor(t, 1)
	if _, err := NewDurableLogs(unsharded, nil, ""); err == nil {
		t.Fatal("NewDurableLogs accepted neither journals nor a checkpoint path")
	}
	if _, err := NewDurableLogs(unsharded, make([]*wal.Log, 2), ""); err == nil || !strings.Contains(err.Error(), "1 journals") {
		t.Fatalf("two journals on an unsharded monitor: err = %v, want a 1-journals complaint", err)
	}

	m := durableMonitor(t, 3)
	if _, err := NewDurableLogs(m, make([]*wal.Log, 2), ""); err == nil || !strings.Contains(err.Error(), "3 journals") {
		t.Fatalf("wrong journal count: err = %v, want a 3-journals complaint", err)
	}
	if _, err := NewDurableLogs(m, make([]*wal.Log, 3), ""); err == nil || !strings.Contains(err.Error(), "nil") {
		t.Fatalf("nil journal: err = %v, want a nil complaint", err)
	}
	if _, err := NewDurableLogs(m, nil, filepath.Join(t.TempDir(), "state.snap")); err != nil {
		t.Fatalf("checkpoint-only durability on a sharded monitor: %v", err)
	}
}

// TestShardedRecoverRejectsDisagreeingTimestamps feeds Recover journals
// whose records carry different timestamps at the same index — the
// signature of swapped or cross-run journal files — and expects a
// loud error instead of a silently wrong merge.
func TestShardedRecoverRejectsDisagreeingTimestamps(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	logs := openJournals(t, dir, shards)
	tx := storage.NewTransaction().Insert("hire", tuple.Ints(1))
	if err := logs[0].AppendTx(10, tx); err != nil {
		t.Fatal(err)
	}
	if err := logs[1].AppendTx(20, tx); err != nil {
		t.Fatal(err)
	}
	closeJournals(t, logs)

	m := durableMonitor(t, shards)
	logs2 := openJournals(t, dir, shards)
	defer closeJournals(t, logs2)
	d, err := NewDurableLogs(m, logs2, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Recover(); err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("Recover on disagreeing journals: err = %v, want a disagreement error", err)
	}
}

// TestShardedJournalDegradesNotFails closes a journal out from under
// the hook: the commit still succeeds (the engine already applied it)
// and Health turns degraded.
func TestShardedJournalDegradesNotFails(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	m := durableMonitor(t, shards)
	logs := openJournals(t, dir, shards)
	d, err := NewDurableLogs(m, logs, "")
	if err != nil {
		t.Fatal(err)
	}
	d.Attach()
	if _, err := m.Apply(10, storage.NewTransaction().Insert("hire", tuple.Ints(1))); err != nil {
		t.Fatal(err)
	}
	if h := d.Health(); h.Status != "ok" {
		t.Fatalf("healthy journaling reported %+v", h)
	}
	logs[1].Close()
	if _, err := m.Apply(20, storage.NewTransaction().Insert("hire", tuple.Ints(2))); err != nil {
		t.Fatalf("commit failed on journal error (should degrade, not fail): %v", err)
	}
	if h := d.Health(); h.Status != "degraded" || h.LastError == "" {
		t.Fatalf("Health() = %+v, want degraded with an error", h)
	}
	logs[0].Close()
}
