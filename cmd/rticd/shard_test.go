package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rtic/internal/monitor"
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

// TestDaemonShardedWALTruncationSweep is TestDaemonWALTruncationSweep
// over two shard journals: the final commit is missing or torn on
// either journal alone or on both, and every restart must land on the
// journals' common prefix and finish the trace.
func TestDaemonShardedWALTruncationSweep(t *testing.T) {
	daemonCrashSweep(t, 2)
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
// at startup now that it checkpoints like an unsharded one, and what it
// starts fresh from.
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

	t.Run("unsharded checkpoint under -shards", func(t *testing.T) {
		d, err := start(options{specPath: spec, listen: "127.0.0.1:0", shards: 2, snapPath: snap})
		if err == nil {
			d.shutdown()
			t.Fatal("start accepted bad options")
		}
		if want := "not a sharded rtic snapshot"; !strings.Contains(err.Error(), want) {
			t.Fatalf("error = %v, want substring %q", err, want)
		}
	})
	// A missing checkpoint file is a fresh start, as under -wal.
	t.Run("restore without a checkpoint file", func(t *testing.T) {
		d, err := start(options{specPath: spec, listen: "127.0.0.1:0", shards: 2, snapPath: filepath.Join(dir, "nope.snap")})
		if err != nil {
			t.Fatal(err)
		}
		defer d.shutdown()
		if d.m.Len() != 0 || d.m.Shards() != 2 {
			t.Fatalf("fresh start has %d states on %d shards, want 0 on 2", d.m.Len(), d.m.Shards())
		}
	})
}
