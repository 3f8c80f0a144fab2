package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rtic/internal/vfs"
)

// pollHealthz fetches /healthz until the predicate holds or the
// deadline passes, returning the last body either way.
func pollHealthz(t *testing.T, base string, deadline time.Duration, ok func(string) bool) string {
	t.Helper()
	var body string
	for end := time.Now().Add(deadline); time.Now().Before(end); {
		body = httpGet(t, base+"/healthz")
		if ok(body) {
			return body
		}
		time.Sleep(5 * time.Millisecond)
	}
	return body
}

// TestDaemonDegradeEpisodeAndRearm drives a daemon through a transient
// ENOSPC episode on its journal: the commit that hits the fault is
// still acknowledged, /healthz flips to degraded, the durability
// worker's re-arm rotation checkpoints and resets the journals once the disk
// "recovers", and a kill/restart afterwards proves the degraded-window
// commit was made durable. The episode is the same with one journal and
// with one per shard.
func TestDaemonDegradeEpisodeAndRearm(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { degradeEpisode(t, shards) })
	}
}

func degradeEpisode(t *testing.T, shards int) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, "hr.rtic", hrSpec)
	walPath := filepath.Join(dir, "state.wal")
	snapPath := filepath.Join(dir, "state.snap")
	ffs := vfs.NewFaultFS(vfs.OS)
	d, err := start(options{
		specPath:    spec,
		listen:      "127.0.0.1:0",
		shards:      shards,
		walPath:     walPath,
		snapPath:    snapPath,
		metricsAddr: "127.0.0.1:0",
		fsys:        ffs,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := dialLine(t, d)
	c.commit(t, "@10 +fire(1)")

	// Fail every write in a window wide enough that several re-arm
	// attempts also fail before the "disk" recovers. A failed rotation
	// spends four ops (the checkpoint's temp-file open, its failing write,
	// close and remove), so twelve ops cover two or three of them.
	base := ffs.OpCount()
	for i := uint64(1); i <= 12; i++ {
		ffs.Inject(vfs.Injection{AtOp: base + i, Op: vfs.OpWrite, Kind: vfs.ENOSPC})
	}

	// The commit that hits the fault must still be acknowledged.
	replies := c.commit(t, "@20 +fire(2)")
	if got := replies[len(replies)-1]; !strings.HasPrefix(got, "ok ") {
		t.Fatalf("commit during fault episode not acknowledged: %v", replies)
	}

	hbase := "http://" + d.hl.Addr().String()
	health := httpGet(t, hbase+"/healthz")
	for _, want := range []string{`"status":"degraded"`, `"policy":"degrade"`, `"degraded_seconds"`} {
		if !strings.Contains(health, want) {
			t.Errorf("/healthz during episode missing %q: %s", want, health)
		}
	}
	if metrics := httpGet(t, hbase+"/metrics"); !strings.Contains(metrics, "rtic_durability_degraded 1") {
		t.Errorf("metrics during episode missing degraded gauge: %s", metrics)
	}

	// The worker's re-arm must restore full durability once writes succeed.
	health = pollHealthz(t, hbase, 15*time.Second, func(b string) bool {
		return strings.Contains(b, `"status":"ok"`) && strings.Contains(b, `"rearms":1`)
	})
	if !strings.Contains(health, `"status":"ok"`) || !strings.Contains(health, `"rearms":1`) {
		t.Fatalf("/healthz never recovered after fault window: %s", health)
	}
	c.commit(t, "@30 +fire(3)")

	// Kill without shutdown and restart on the real filesystem: the
	// commit acknowledged during the degraded window must be in the
	// re-arm's checkpoint, so rehiring employee 2 still violates.
	d.crash()
	d2, err := start(options{
		specPath: spec,
		listen:   "127.0.0.1:0",
		shards:   shards,
		walPath:  walPath,
		snapPath: snapPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.crash()
	c2 := dialLine(t, d2)
	replies = c2.commit(t, "@40 -fire(2) +hire(2)")
	if len(replies) != 2 || !strings.Contains(replies[0], "no_quick_rehire") {
		t.Fatalf("degraded-window commit lost across crash: rehire replies %v", replies)
	}
}

// TestDaemonWALOnlyRearm runs -wal without -snapshot, whose journal
// latches broken on a failed fsync. The daemon checkpoints to
// <wal>.ckpt, so the worker's re-arm rotation heals it without a restart,
// and a kill/restart keeps the commit acknowledged while it was
// degraded.
func TestDaemonWALOnlyRearm(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { walOnlyRearm(t, shards) })
	}
}

func walOnlyRearm(t *testing.T, shards int) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "state.wal")
	opts := options{
		specPath: writeSpec(t, dir, "hr.rtic", hrSpec),
		listen:   "127.0.0.1:0",
		shards:   shards,
		walPath:  walPath,
	}
	ffs := vfs.NewFaultFS(vfs.OS)
	faulty := opts
	faulty.fsys, faulty.metricsAddr = ffs, "127.0.0.1:0"
	d, err := start(faulty)
	if err != nil {
		t.Fatal(err)
	}
	c := dialLine(t, d)
	c.commit(t, "@10 +fire(1)")

	// The next append is a write then an fsync; fail whichever of the
	// next ops is the fsync, latching the first journal broken.
	base := ffs.OpCount()
	for i := uint64(1); i <= 2; i++ {
		ffs.Inject(vfs.Injection{AtOp: base + i, Op: vfs.OpSync, Kind: vfs.SyncFailure})
	}
	if replies := c.commit(t, "@20 +fire(2)"); !strings.HasPrefix(replies[len(replies)-1], "ok ") {
		t.Fatalf("commit over a failing fsync not acknowledged: %v", replies)
	}
	health := pollHealthz(t, "http://"+d.hl.Addr().String(), 15*time.Second, func(b string) bool {
		return strings.Contains(b, `"status":"ok"`) && strings.Contains(b, `"rearms":1`)
	})
	if !strings.Contains(health, `"status":"ok"`) || !strings.Contains(health, `"rearms":1`) {
		t.Fatalf("-wal daemon never re-armed its broken journal: %s", health)
	}
	if _, err := os.Stat(walPath + ".ckpt"); err != nil {
		t.Fatalf("re-arm wrote no checkpoint beside the journal: %v", err)
	}
	c.commit(t, "@30 +fire(3)") // journaled again

	d.crash()
	d2, err := start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.crash()
	c2 := dialLine(t, d2)
	replies := c2.commit(t, "@40 -fire(2) -fire(3) +hire(2) +hire(3)")
	if len(replies) != 3 || !strings.HasSuffix(replies[0], "e=2") || !strings.HasSuffix(replies[1], "e=3") {
		t.Fatalf("a fire from the degraded window or after the re-arm was lost across the crash: rehire replies %v", replies)
	}
}

// TestDaemonShutdownWhileDegraded shuts a -wal daemon down while its
// journal is degraded and the disk has healed. The shutdown checkpoint
// is the last re-arm attempt: it must write <wal>.ckpt covering the
// degraded window, so a restart holds the commit acknowledged during
// it.
func TestDaemonShutdownWhileDegraded(t *testing.T) {
	dir := t.TempDir()
	opts := options{
		specPath: writeSpec(t, dir, "hr.rtic", hrSpec),
		listen:   "127.0.0.1:0",
		walPath:  filepath.Join(dir, "state.wal"),
	}
	ffs := vfs.NewFaultFS(vfs.OS)
	faulty := opts
	faulty.fsys = ffs
	d, err := start(faulty)
	if err != nil {
		t.Fatal(err)
	}
	c := dialLine(t, d)
	c.commit(t, "@10 +fire(1)")
	ffs.Inject(vfs.Injection{AtOp: ffs.OpCount() + 1, Op: vfs.OpWrite, Kind: vfs.ENOSPC})
	c.commit(t, "@20 +fire(2)") // degraded; the one-shot fault leaves the disk healed

	// Stop the durability worker first, as shutdown does. Its first
	// re-arm attempt is due 25ms or more after the failure, so it has
	// almost never run.
	d.dur.Stop()
	if h := d.dur.Health(); h.Rearms == 0 && h.Status != "degraded" {
		t.Fatalf("health before shutdown = %+v, want degraded", h)
	}
	if err := d.shutdown(); err != nil {
		t.Fatalf("shutdown while degraded: %v", err)
	}
	if h := d.dur.Health(); h.Status != "ok" || h.Rearms != 1 {
		t.Fatalf("health after shutdown = %+v, want ok with 1 re-arm", h)
	}

	d2, err := start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.shutdown()
	if d2.m.Len() != 2 {
		t.Fatalf("restart holds %d commits, want 2 (the degraded window's included)", d2.m.Len())
	}
	c2 := dialLine(t, d2)
	if replies := c2.commit(t, "@30 -fire(2) +hire(2)"); len(replies) != 2 || !strings.Contains(replies[0], "no_quick_rehire") {
		t.Fatalf("degraded-window commit lost across shutdown: rehire replies %v", replies)
	}
}

// TestDaemonHaltPolicy verifies -on-durability-failure=halt: the first
// journal failure delivers a fatal error to the daemon's done channel
// instead of entering degraded mode.
func TestDaemonHaltPolicy(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, "hr.rtic", hrSpec)
	ffs := vfs.NewFaultFS(vfs.OS)
	d, err := start(options{
		specPath:     spec,
		listen:       "127.0.0.1:0",
		walPath:      filepath.Join(dir, "state.wal"),
		onDurFailure: "halt",
		fsys:         ffs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.crash()
	c := dialLine(t, d)
	c.commit(t, "@10 +fire(1)")

	ffs.Inject(vfs.Injection{AtOp: ffs.OpCount() + 1, Op: vfs.OpWrite, Kind: vfs.ENOSPC})
	c.commit(t, "@20 +fire(2)")

	select {
	case err := <-d.done:
		if err == nil || !strings.Contains(err.Error(), "durability failure") {
			t.Fatalf("halt delivered wrong error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("halt policy never delivered a fatal error")
	}
}
