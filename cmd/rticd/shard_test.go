package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rtic/internal/monitor"
	"rtic/internal/wal"
)

// TestDaemonShardedMatchesUnsharded runs the same trace through an
// unsharded daemon and a -shards 3 daemon: protocol replies must be
// identical line for line.
func TestDaemonShardedMatchesUnsharded(t *testing.T) {
	trace := rehireTrace(20)

	ref, err := start(options{
		specPath: writeSpec(t, t.TempDir(), "hr.rtic", hrSpec),
		listen:   "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.shutdown()
	refC := dialLine(t, ref)

	sh, err := start(options{
		specPath: writeSpec(t, t.TempDir(), "hr.rtic", hrSpec),
		listen:   "127.0.0.1:0",
		shards:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.shutdown()
	shC := dialLine(t, sh)

	for i, line := range trace {
		want := refC.commit(t, line)
		if got := shC.commit(t, line); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: sharded replies %q, want %q", i, got, want)
		}
	}
}

// TestDaemonShardedWALTruncationSweep is the sharded kill-and-recover
// acceptance test: a -shards 3 daemon journals a trace to three shard
// WALs and crashes; the sweep then tears every shard subset's final
// record at several byte offsets and restarts against the mutilated
// journals. Every restart must recover the journals' common prefix —
// the full trace minus the one commit whose journaling tore — land on
// a consistent global state, and finish the workload with replies
// matching an uninterrupted daemon.
func TestDaemonShardedWALTruncationSweep(t *testing.T) {
	const shards = 3
	trace := rehireTrace(8)
	last := len(trace) - 1

	// Reference replies from an uninterrupted unsharded daemon.
	ref, err := start(options{
		specPath: writeSpec(t, t.TempDir(), "hr.rtic", hrSpec),
		listen:   "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.shutdown()
	refC := dialLine(t, ref)
	var want [][]string
	for _, line := range trace {
		want = append(want, refC.commit(t, line))
	}

	// Crash a sharded durable daemon after the full trace.
	dir := t.TempDir()
	spec := writeSpec(t, dir, "hr.rtic", hrSpec)
	walPath := filepath.Join(dir, "state.wal")
	d, err := start(options{specPath: spec, listen: "127.0.0.1:0", shards: shards, walPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	c := dialLine(t, d)
	for i, line := range trace {
		if got := c.commit(t, line); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("sharded step %d: replies %q, want %q", i, got, want[i])
		}
	}
	d.crash()

	// Per-shard raw bytes and final-record offsets of the intact journals.
	raws := make([][]byte, shards)
	lastStarts := make([]int, shards)
	for i := 0; i < shards; i++ {
		path := fmt.Sprintf("%s.%d", walPath, i)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
		var lastPayload int
		l, err := wal.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		n, err := l.Replay(func(p []byte) error { lastPayload = len(p); return nil })
		l.Close()
		if err != nil || n != len(trace) {
			t.Fatalf("shard %d journal replays %d records (err %v), want %d", i, n, err, len(trace))
		}
		lastStarts[i] = len(raw) - (8 + lastPayload) // 4-byte length + 4-byte CRC32C
	}

	// cuts maps a tear kind to a byte offset within shard i's final record.
	cuts := func(i, kind int) int {
		switch kind {
		case 0:
			return lastStarts[i] // record fully gone
		case 1:
			return lastStarts[i] + 5 // torn mid-frame-header
		default:
			return len(raws[i]) - 1 // torn in the last payload byte
		}
	}

	for mask := 1; mask < 1<<shards; mask++ { // every nonempty torn subset
		for kind := 0; kind < 3; kind++ {
			caseDir := t.TempDir()
			caseWal := filepath.Join(caseDir, "state.wal")
			for i := 0; i < shards; i++ {
				raw := raws[i]
				if mask&(1<<i) != 0 {
					raw = raw[:cuts(i, kind)]
				}
				if err := os.WriteFile(fmt.Sprintf("%s.%d", caseWal, i), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			r, err := start(options{specPath: spec, listen: "127.0.0.1:0", shards: shards, walPath: caseWal})
			if err != nil {
				t.Fatalf("mask=%b kind=%d: recovery failed: %v", mask, kind, err)
			}
			if r.m.Len() != last {
				t.Errorf("mask=%b kind=%d: recovered %d states, want %d", mask, kind, r.m.Len(), last)
			}
			// The torn commit is lost; re-submitting it must yield the
			// reference replies, proving the recovered state is the same
			// consistent prefix every time.
			rc := dialLine(t, r)
			if got := rc.commit(t, trace[last]); !reflect.DeepEqual(got, want[last]) {
				t.Errorf("mask=%b kind=%d: re-commit replies %q, want %q", mask, kind, got, want[last])
			}
			// And the realigned journals keep accepting new commits.
			if got := rc.commit(t, "@1000 +fire(9)"); got[len(got)-1] != "ok 0" {
				t.Errorf("mask=%b kind=%d: commit after recovery replied %q", mask, kind, got)
			}
			if err := r.shutdown(); err != nil {
				t.Errorf("mask=%b kind=%d: shutdown: %v", mask, kind, err)
			}
		}
	}
}

// TestDaemonShardedHealthz checks the /healthz shards and durability
// sections of a sharded daemon.
func TestDaemonShardedHealthz(t *testing.T) {
	dir := t.TempDir()
	d, err := start(options{
		specPath:    writeSpec(t, dir, "hr.rtic", hrSpec),
		listen:      "127.0.0.1:0",
		shards:      3,
		walPath:     filepath.Join(dir, "state.wal"),
		metricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.shutdown()
	c := dialLine(t, d)
	c.commit(t, "@0 +fire(1)")

	health := httpGet(t, "http://"+d.hl.Addr().String()+"/healthz")
	for _, wantStr := range []string{`"status":"ok"`, `"shards":3`, `"wal_bytes"`} {
		if !strings.Contains(health, wantStr) {
			t.Errorf("/healthz missing %q: %s", wantStr, health)
		}
	}

	// The per-shard metrics flow through to the exposition.
	metrics := httpGet(t, "http://"+d.hl.Addr().String()+"/metrics")
	for _, wantStr := range []string{"rtic_shards 3", `rtic_shard_commits_total{shard="0"}`} {
		if !strings.Contains(metrics, wantStr) {
			t.Errorf("/metrics missing %q", wantStr)
		}
	}
}

// TestDaemonShardedCheckpointBoundsRecovery is the bounded-recovery
// acceptance test for a sharded daemon: with -shards 2 -wal -snapshot
// -checkpoint-interval the periodic checkpoint truncates both journals,
// so a restart after a kill replays only the tail since the last
// checkpoint, and lands on the state of an unsharded daemon fed the
// same trace. The checkpoint then refuses another shard count.
func TestDaemonShardedCheckpointBoundsRecovery(t *testing.T) {
	trace := rehireTrace(40)
	tail := 4 // commits sent after the last observed checkpoint

	ref, err := start(options{
		specPath: writeSpec(t, t.TempDir(), "hr.rtic", hrSpec),
		listen:   "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.shutdown()
	refC := dialLine(t, ref)
	var want [][]string
	for _, line := range trace {
		want = append(want, refC.commit(t, line))
	}

	dir := t.TempDir()
	opts := options{
		specPath:     writeSpec(t, dir, "hr.rtic", hrSpec),
		listen:       "127.0.0.1:0",
		shards:       2,
		walPath:      filepath.Join(dir, "state.wal"),
		snapPath:     filepath.Join(dir, "state.snap"),
		ckptInterval: 50 * time.Millisecond,
		metricsAddr:  "127.0.0.1:0",
	}
	a, err := start(opts)
	if err != nil {
		t.Fatal(err)
	}
	ac := dialLine(t, a)
	sent := len(trace) - tail
	for i, line := range trace[:sent] {
		if got := ac.commit(t, line); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("step %d: sharded replies %q, want %q", i, got, want[i])
		}
	}
	// Wait for a periodic checkpoint that covers everything sent so far:
	// both journals are back to their bare 8-byte headers.
	checkpointed := func(b string) bool {
		return strings.Contains(b, `"wal_bytes":16,`) && !strings.Contains(b, `"last_checkpoint_age_seconds":-1`)
	}
	if health := pollHealthz(t, "http://"+a.hl.Addr().String(), 10*time.Second, checkpointed); !checkpointed(health) {
		t.Fatalf("no periodic checkpoint truncated the shard journals: %s", health)
	}
	a.dur.Stop() // freeze the checkpointer so the tail stays in the journals
	for i, line := range trace[sent:] {
		if got := ac.commit(t, line); !reflect.DeepEqual(got, want[sent+i]) {
			t.Fatalf("step %d: sharded replies %q, want %q", sent+i, got, want[sent+i])
		}
	}
	a.crash()

	b, err := start(opts)
	if err != nil {
		t.Fatalf("restart after crash: %v", err)
	}
	if b.m.Len() != len(trace) {
		t.Fatalf("recovered %d states, want %d", b.m.Len(), len(trace))
	}
	health := pollHealthz(t, "http://"+b.hl.Addr().String(), 10*time.Second, func(b string) bool {
		return !strings.Contains(b, `"last_checkpoint_age_seconds":-1`)
	})
	var report struct {
		Status     string
		Shards     int
		Durability monitor.DurabilityHealth
	}
	if err := json.Unmarshal([]byte(health), &report); err != nil {
		t.Fatalf("/healthz after recovery: %v: %s", err, health)
	}
	if dh := report.Durability; report.Status != "ok" || report.Shards != 2 ||
		dh.ReplayedRecords != tail || dh.LastCheckpointAgeSeconds < 0 {
		t.Errorf("/healthz after recovery = %s, want ok on 2 shards with %d of %d commits replayed and a fresh checkpoint",
			health, tail, len(trace))
	}
	if got, wantStats := b.m.Stats(), ref.m.Stats(); got.Entries != wantStats.Entries || got.Timestamps != wantStats.Timestamps {
		t.Errorf("recovered aux stats = %+v, want the entries and timestamps of %+v", got, wantStats)
	}
	bc := dialLine(t, b)
	probe := fmt.Sprintf("@%d -fire(0) +hire(0)", len(trace)*10)
	if got, want := bc.commit(t, probe), refC.commit(t, probe); !reflect.DeepEqual(got, want) {
		t.Errorf("probe after recovery replies %q, want %q", got, want)
	}
	if err := b.shutdown(); err != nil {
		t.Fatal(err)
	}

	opts.shards = 4
	if c, err := start(opts); err == nil {
		c.shutdown()
		t.Fatal("a 2-shard checkpoint restored under -shards 4")
	} else if !strings.Contains(err.Error(), "written by 2 shards") || !strings.Contains(err.Error(), "configured with 4") {
		t.Fatalf("shard-count mismatch error = %v, want both counts named", err)
	}
}

// TestDaemonShardedArgValidation covers what a sharded daemon rejects
// at startup now that it checkpoints like an unsharded one.
func TestDaemonShardedArgValidation(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, "hr.rtic", hrSpec)

	// A checkpoint written by an unsharded daemon.
	snap := filepath.Join(dir, "one.snap")
	d, err := start(options{specPath: spec, listen: "127.0.0.1:0", snapPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.shutdown(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		opts options
		want string
	}{
		{"unsharded checkpoint under -shards",
			options{specPath: spec, listen: "127.0.0.1:0", shards: 2, restore: true, snapPath: snap},
			"not a sharded rtic snapshot"},
		{"restore without a checkpoint file",
			options{specPath: spec, listen: "127.0.0.1:0", shards: 2, restore: true, snapPath: filepath.Join(dir, "nope.snap")},
			"nope.snap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := start(tc.opts)
			if err == nil {
				d.shutdown()
				t.Fatal("start accepted bad options")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}
