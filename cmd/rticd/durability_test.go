package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rtic"
	"rtic/internal/chaos"
	"rtic/internal/vfs"
)

// crash abandons a daemon the way kill -9 would: the listeners die, but
// no shutdown checkpoint is written and the WAL is never closed. (The
// durability worker is stopped because a dead process runs no
// goroutines.)
func (d *daemon) crash() {
	d.l.Close()
	d.srv.Close()
	if d.hsrv != nil {
		d.hsrv.close()
	}
	if d.dur != nil {
		d.dur.Stop()
	}
}

type lineClient struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialLine(t *testing.T, d *daemon) *lineClient {
	t.Helper()
	conn, err := net.Dial("tcp", d.l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() { conn.Close() })
	return &lineClient{conn: conn, r: bufio.NewReader(conn)}
}

// commit sends one transaction line and returns every reply line up to
// and including the closing "ok N" (or "error ..."). The violation
// lines are sorted: within one constraint the binding order follows
// plan enumeration and is unspecified.
func (c *lineClient) commit(t *testing.T, line string) []string {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		t.Fatal(err)
	}
	var replies []string
	for {
		raw, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading reply to %q: %v", line, err)
		}
		reply := strings.TrimSpace(raw)
		replies = append(replies, reply)
		if strings.HasPrefix(reply, "ok ") || strings.HasPrefix(reply, "error ") {
			sort.Strings(replies[:len(replies)-1])
			return replies
		}
	}
}

// rehireTrace builds protocol lines where every odd step rehires one
// employee fired earlier — at most one violation per line, so replies
// are deterministic.
func rehireTrace(n int) []string {
	lines := make([]string, 0, n)
	for i := 0; i < n; i++ {
		e := (i / 2) % 5
		if i%2 == 0 {
			lines = append(lines, fmt.Sprintf("@%d +fire(%d)", i*10, e))
		} else {
			lines = append(lines, fmt.Sprintf("@%d -fire(%d) +hire(%d)", i*10, e, e))
		}
	}
	return lines
}

const hrSpec = "relation hire/1\nrelation fire/1\nconstraint no_quick_rehire: hire(e) -> not once[0,365] fire(e)\n"

// TestDaemonKillAndRecover is the end-to-end acceptance test: a daemon
// running with -wal is killed without any shutdown, restarted against
// the same files, and must finish the workload with byte-identical
// protocol replies to an uninterrupted daemon.
func TestDaemonKillAndRecover(t *testing.T) {
	trace := rehireTrace(24)
	half := len(trace) / 2
	ckptAt := len(trace) / 3

	// Reference: one uninterrupted daemon over the whole trace.
	refDir := t.TempDir()
	ref, err := start(options{
		specPath: writeSpec(t, refDir, "hr.rtic", hrSpec),
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

	// Durable daemon: half the trace, a mid-way checkpoint, then a crash.
	dir := t.TempDir()
	spec := writeSpec(t, dir, "hr.rtic", hrSpec)
	snap := filepath.Join(dir, "state.snap")
	walPath := filepath.Join(dir, "state.wal")
	opts := options{
		specPath:    spec,
		listen:      "127.0.0.1:0",
		snapPath:    snap,
		walPath:     walPath,
		walSync:     "always",
		metricsAddr: "127.0.0.1:0",
	}
	a, err := start(opts)
	if err != nil {
		t.Fatal(err)
	}
	ac := dialLine(t, a)
	for i, line := range trace[:half] {
		if got := ac.commit(t, line); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("pre-crash step %d: replies %q, want %q", i, got, want[i])
		}
		if i+1 == ckptAt {
			if err := a.dur.Checkpoint(); err != nil {
				t.Fatalf("mid-run checkpoint: %v", err)
			}
		}
	}
	health := httpGet(t, "http://"+a.hl.Addr().String()+"/healthz")
	for _, wantStr := range []string{`"status":"ok"`, `"last_checkpoint_age_seconds"`, `"wal_bytes"`} {
		if !strings.Contains(health, wantStr) {
			t.Errorf("/healthz missing %q: %s", wantStr, health)
		}
	}
	a.crash()

	// Recovery: checkpoint + WAL tail, then the rest of the trace.
	b, err := start(opts)
	if err != nil {
		t.Fatalf("restart after crash: %v", err)
	}
	if b.m.Len() != half || b.m.Now() != uint64((half-1)*10) {
		t.Fatalf("recovered to Len=%d Now=%d, want %d/%d", b.m.Len(), b.m.Now(), half, (half-1)*10)
	}
	health = httpGet(t, "http://"+b.hl.Addr().String()+"/healthz")
	if !strings.Contains(health, fmt.Sprintf(`"replayed_records":%d`, half-ckptAt)) {
		t.Errorf("/healthz does not report %d replayed records: %s", half-ckptAt, health)
	}
	bc := dialLine(t, b)
	for i, line := range trace[half:] {
		if got := bc.commit(t, line); !reflect.DeepEqual(got, want[half+i]) {
			t.Errorf("post-recovery step %d: replies %q, want %q", half+i, got, want[half+i])
		}
	}
	// Auxiliary state converged too, not just the violation stream.
	if got, wantStats := b.m.Stats(), ref.m.Stats(); !reflect.DeepEqual(got, wantStats) {
		t.Errorf("recovered aux stats = %+v, want %+v", got, wantStats)
	}

	// A clean shutdown checkpoints and truncates the WAL; the next start
	// needs no replay.
	if err := b.shutdown(); err != nil {
		t.Fatal(err)
	}
	c, err := start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.shutdown()
	if c.m.Len() != len(trace) {
		t.Errorf("post-shutdown restart: Len=%d, want %d", c.m.Len(), len(trace))
	}
}

// TestDaemonSnapshotRestart restarts a -snapshot daemon with the same
// flags: the second run must start from the first run's shutdown
// checkpoint, so a fire before the restart still forbids a rehire after
// it.
func TestDaemonSnapshotRestart(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			opts := options{
				specPath: writeSpec(t, dir, "hr.rtic", hrSpec),
				listen:   "127.0.0.1:0",
				shards:   shards,
				snapPath: filepath.Join(dir, "state.snap"),
			}
			a, err := start(opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := dialLine(t, a).commit(t, "@0 +fire(7)"); got[len(got)-1] != "ok 0" {
				t.Fatalf("first run replies %q", got)
			}
			if err := a.shutdown(); err != nil {
				t.Fatal(err)
			}

			b, err := start(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer b.shutdown()
			got := dialLine(t, b).commit(t, "@100 +hire(7)")
			if len(got) != 2 || !strings.HasPrefix(got[0], "violation no_quick_rehire") || got[1] != "ok 1" {
				t.Fatalf("rehire after restart replies %q, want one no_quick_rehire violation", got)
			}
			if b.m.Len() != 2 {
				t.Fatalf("restarted daemon has %d states, want 2", b.m.Len())
			}
		})
	}
}

// TestDaemonRefusesVersion1Checkpoint: a checkpoint an earlier build
// wrote (format version 1) fails the daemon at startup, naming the file,
// the version and the converter, since the daemon links no reader for
// it; rtic.UpgradeSnapshot converts it, and the daemon restarted over
// the converted file replies as one that never stopped. The fixtures
// are the hire/fire spec's checkpoints written by that build's rticd:
// testdata/hr_v1.snap unsharded after "@0 +fire(7)", and
// testdata/hr_shards2_v1.snap under -shards 2 after the first two
// commits of the sharded trace below.
func TestDaemonRefusesVersion1Checkpoint(t *testing.T) {
	for _, tc := range []struct {
		fixture string
		shards  int
		trace   []string // the fixture's commits, then the restart's
		written int
	}{
		{"hr_v1.snap", 1, []string{"@0 +fire(7)", "@100 +hire(7)"}, 1},
		{"hr_shards2_v1.snap", 2, []string{"@0 +fire(7) +fire(8) +fire(9) +fire(10)", "@10 -fire(10)",
			"@100 +hire(7) +hire(8) +hire(9) +hire(10)", "@400 -hire(7) +hire(11) +fire(11)", "@500 -fire(11) +hire(8)"}, 2},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			dir := t.TempDir()
			spec := writeSpec(t, dir, "hr.rtic", hrSpec)
			ref, err := start(options{specPath: spec, listen: "127.0.0.1:0", shards: tc.shards})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.shutdown()
			refC := dialLine(t, ref)
			for _, line := range tc.trace[:tc.written] {
				refC.commit(t, line)
			}

			raw, err := os.ReadFile(filepath.Join("testdata", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			snap := filepath.Join(dir, "state.snap")
			if err := os.WriteFile(snap, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			opts := options{specPath: spec, listen: "127.0.0.1:0", shards: tc.shards, snapPath: snap}
			d, err := start(opts)
			if err == nil {
				d.shutdown()
				t.Fatal("the daemon restored a version-1 checkpoint")
			}
			for _, want := range []string{snap, "format version 1", "rtic.UpgradeSnapshot"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("startup error %q does not name %q", err, want)
				}
			}

			s, err := rtic.NewSchema().Relation("hire", 1).Relation("fire", 1).Build()
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := rtic.UpgradeSnapshot(s, bytes.NewReader(raw), &out); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(snap, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if d, err = start(opts); err != nil {
				t.Fatalf("restoring the converted checkpoint: %v", err)
			}
			defer d.shutdown()
			if got := d.m.Len(); got != tc.written {
				t.Fatalf("restored daemon has %d states, want %d", got, tc.written)
			}
			c := dialLine(t, d)
			for _, line := range tc.trace[tc.written:] {
				if got, want := c.commit(t, line), refC.commit(t, line); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: restored daemon replies %q, uninterrupted one %q", line, got, want)
				}
			}
		})
	}
}

// TestDaemonWALTruncationSweep restarts the daemon over every disk the
// crash enumerator (internal/chaos) finds in which only the final
// commit of its trace is missing or torn, one journal; see
// daemonCrashSweep.
func TestDaemonWALTruncationSweep(t *testing.T) {
	daemonCrashSweep(t, 1)
}

// daemonCrashSweep takes the disks of the enumerator's SyncAlways runs
// over n journals cut inside the trace's last commit — fault-free, or
// after a short write tore that commit's record on one journal — and
// restarts a daemon over each with the same -snapshot and -wal. Every
// restart must recover at least the commits that were durable, and
// finish the trace over the line protocol with the replies of an
// uninterrupted daemon. Tearing a record at every byte offset is
// wal.TestTruncateEveryOffset's job.
func daemonCrashSweep(t *testing.T, n int) {
	trace := chaos.Trace()
	last := len(trace) - 1
	ref, err := start(options{specPath: writeSpec(t, t.TempDir(), "hr.rtic", hrSpec), listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.shutdown()
	refC := dialLine(t, ref)
	var want [][]string
	for _, line := range trace {
		want = append(want, refC.commit(t, line))
	}

	spec := writeSpec(t, t.TempDir(), "hr.rtic", hrSpec)
	res, err := chaos.Sweep{Dir: t.TempDir(), Journals: n,
		Faults: func(f chaos.Fault) bool {
			return f.Kind == vfs.ShortWrite && f.In.Kind == "commit" && f.In.Index == last
		},
		Cuts: func(c chaos.Cut) bool { return c.Fault.AtOp != 0 || c.In.Kind == "commit" && c.In.Index == last },
		Check: func(dir string, durable int) error {
			d, err := start(options{specPath: spec, listen: "127.0.0.1:0", shards: n,
				snapPath: filepath.Join(dir, "state.snap"), walPath: filepath.Join(dir, "state.wal")})
			if err != nil {
				return fmt.Errorf("restart: %w", err)
			}
			if got := d.m.Len(); got < durable || got < last {
				d.shutdown()
				return fmt.Errorf("restart recovered %d commits, want at least %d of %d", got, max(durable, last), len(trace))
			}
			c := dialLine(t, d)
			for i := d.m.Len(); i < len(trace); i++ {
				if got := c.commit(t, trace[i]); !reflect.DeepEqual(got, want[i]) {
					d.shutdown()
					return fmt.Errorf("step %d after the restart: replies %q, want %q", i, got, want[i])
				}
			}
			return d.shutdown()
		}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The last commit is a write and a sync per journal, each a cut of
	// the fault-free run; a short write on journal k is followed by its
	// rollback, the later journals' ops and the end of the run. The
	// disks: the record missing, whole, or torn on each journal.
	pinned := map[int]chaos.SweepResult{1: {Runs: 2, Cuts: 4, Images: 3}, 2: {Runs: 3, Cuts: 10, Images: 7}}[n]
	if res != pinned {
		t.Fatalf("counts %+v, want %+v", res, pinned)
	}
	t.Logf("%+v", res)
}

// TestDaemonHealthzDegraded flips /healthz to degraded when the
// checkpoint directory disappears out from under a running daemon.
func TestDaemonHealthzDegraded(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, "hr.rtic", hrSpec)
	snapDir := filepath.Join(dir, "snaps")
	if err := os.Mkdir(snapDir, 0o755); err != nil {
		t.Fatal(err)
	}
	d, err := start(options{
		specPath:    spec,
		listen:      "127.0.0.1:0",
		snapPath:    filepath.Join(snapDir, "state.snap"),
		walPath:     filepath.Join(dir, "state.wal"),
		metricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	c := dialLine(t, d)
	c.commit(t, "@0 +fire(1)")

	if err := d.dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + d.hl.Addr().String()
	if health := httpGet(t, base+"/healthz"); !strings.Contains(health, `"status":"ok"`) {
		t.Fatalf("/healthz before failure: %s", health)
	}

	if err := os.RemoveAll(snapDir); err != nil {
		t.Fatal(err)
	}
	if err := d.dur.Checkpoint(); err == nil {
		t.Fatal("checkpoint into a removed directory succeeded")
	}
	health := httpGet(t, base+"/healthz")
	for _, want := range []string{`"status":"degraded"`, `"last_error"`} {
		if !strings.Contains(health, want) {
			t.Errorf("/healthz after failed checkpoint missing %q: %s", want, health)
		}
	}
	d.crash() // shutdown would fail on the missing snapshot dir, by design
}

// TestDurabilityArgValidation covers the flag combinations the
// durability layer rejects at startup.
func TestDurabilityArgValidation(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, "s.rtic", "relation p/1\nconstraint c: p(x) -> not once p(x)\n")
	cases := []struct {
		name string
		opts options
		want string
	}{
		{"checkpoint interval without snapshot",
			options{specPath: spec, listen: "127.0.0.1:0", ckptInterval: time.Second},
			"-checkpoint-interval requires -snapshot"},
		{"bad wal sync policy",
			options{specPath: spec, listen: "127.0.0.1:0", walPath: filepath.Join(dir, "w.wal"), walSync: "sometimes"},
			"sync policy"},
		{"bad failure policy",
			options{specPath: spec, listen: "127.0.0.1:0", walPath: filepath.Join(dir, "w.wal"), onDurFailure: "panic"},
			"failure policy"},
		{"negative checkpoint interval",
			options{specPath: spec, listen: "127.0.0.1:0", snapPath: filepath.Join(dir, "s.snap"), ckptInterval: -time.Second},
			"-checkpoint-interval must not be negative"},
		{"sub-millisecond checkpoint interval",
			options{specPath: spec, listen: "127.0.0.1:0", snapPath: filepath.Join(dir, "s.snap"), ckptInterval: 100 * time.Microsecond},
			"below the 1ms floor"},
		{"negative max conns",
			options{specPath: spec, listen: "127.0.0.1:0", maxConns: -1},
			"-max-conns must not be negative"},
		{"negative idle timeout",
			options{specPath: spec, listen: "127.0.0.1:0", idleTimeout: -time.Minute},
			"-idle-timeout must not be negative"},
		{"wal parent dir missing",
			options{specPath: spec, listen: "127.0.0.1:0", walPath: filepath.Join(dir, "no-such-dir", "w.wal")},
			"parent directory"},
		{"snapshot parent dir missing",
			options{specPath: spec, listen: "127.0.0.1:0", snapPath: filepath.Join(dir, "no-such-dir", "s.snap")},
			"parent directory"},
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

// TestStartFailureReleasesDurability pins that a startup failure after
// the durability layer is up — a -listen or -metrics port that is
// already taken — stops the durability worker and closes the journals
// instead of leaking them: the filesystem sees no further operation
// once start has returned, and a second start over the same files
// recovers everything.
func TestStartFailureReleasesDurability(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	for _, shards := range []int{1, 2} {
		for _, flag := range []string{"-listen", "-metrics"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, flag), func(t *testing.T) {
				dir := t.TempDir()
				opts := options{
					specPath:     writeSpec(t, dir, "hr.rtic", hrSpec),
					listen:       "127.0.0.1:0",
					shards:       shards,
					walPath:      filepath.Join(dir, "state.wal"),
					snapPath:     filepath.Join(dir, "state.snap"),
					ckptInterval: time.Millisecond,
				}
				d, err := start(opts)
				if err != nil {
					t.Fatal(err)
				}
				c := dialLine(t, d)
				trace := rehireTrace(6)
				for _, line := range trace {
					c.commit(t, line)
				}
				d.crash()

				ffs := vfs.NewFaultFS(vfs.OS)
				bad := opts
				bad.fsys = ffs
				if flag == "-listen" {
					bad.listen = taken.Addr().String()
				} else {
					bad.metricsAddr = taken.Addr().String()
				}
				if d, err := start(bad); err == nil {
					d.shutdown()
					t.Fatalf("start bound the occupied %s address", flag)
				}
				ops := ffs.OpCount()
				time.Sleep(20 * time.Millisecond) // twenty checkpoint intervals
				if now := ffs.OpCount(); now != ops {
					t.Fatalf("failed start left the durability worker running: %d filesystem ops after it returned", now-ops)
				}

				again, err := start(opts)
				if err != nil {
					t.Fatalf("second start over the same files: %v", err)
				}
				defer again.shutdown()
				if again.m.Len() != len(trace) {
					t.Fatalf("second start recovered %d states, want %d", again.m.Len(), len(trace))
				}
			})
		}
	}
}
