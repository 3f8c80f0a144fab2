package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"rtic/internal/obs"
	"rtic/internal/vfs"
)

// commitN drives n commits over the line protocol.
func commitN(t *testing.T, d *daemon, n int) {
	t.Helper()
	conn, err := net.Dial("tcp", d.l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	for i := 0; i < n; i++ {
		if _, err := fmt.Fprintf(conn, "@%d +p(%d)\n", i+1, i); err != nil {
			t.Fatal(err)
		}
		// Drain any violation lines until the commit's "ok" ack, so the
		// caller knows every commit has been processed.
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(line, "ok ") {
				break
			}
		}
	}
}

// TestDaemonSnapshotCheckpointObserved: a -snapshot daemon without
// -checkpoint-interval reports its durability on /healthz and writes its
// shutdown checkpoint through the durability manager, so the checkpoint
// metrics count it.
func TestDaemonSnapshotCheckpointObserved(t *testing.T) {
	dir := t.TempDir()
	d, err := start(options{
		specPath:    writeSpec(t, dir, "hr.rtic", hrSpec),
		listen:      "127.0.0.1:0",
		metricsAddr: "127.0.0.1:0",
		snapPath:    filepath.Join(dir, "state.snap"),
	})
	if err != nil {
		t.Fatal(err)
	}
	dialLine(t, d).commit(t, "@0 +fire(7)")
	health := httpGet(t, "http://"+d.hl.Addr().String()+"/healthz")
	var report struct{ Durability *struct{ Status string } }
	if err := json.Unmarshal([]byte(health), &report); err != nil {
		t.Fatalf("/healthz: %v: %s", err, health)
	}
	if report.Durability == nil || report.Durability.Status != "ok" {
		t.Fatalf("/healthz has no ok durability section: %s", health)
	}
	if err := d.shutdown(); err != nil {
		t.Fatal(err)
	}
	mm := d.m.Observer().Metrics
	if got := mm.Checkpoints.Value(); got != 1 {
		t.Errorf("rtic_checkpoints_total = %d after shutdown, want 1", got)
	}
	if got := mm.CheckpointSeconds.Count(); got != 1 {
		t.Errorf("rtic_checkpoint_duration_seconds_count = %d after shutdown, want 1", got)
	}
}

func TestMetricsContentTypeAndBuildInfo(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, "s.rtic", "relation p/1\nconstraint c: p(x) -> not once p(x)\n")
	d, err := start(options{specPath: spec, listen: "127.0.0.1:0", metricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.shutdown()

	resp, err := http.Get("http://" + d.hl.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got, want := resp.Header.Get("Content-Type"), "text/plain; version=0.0.4; charset=utf-8"; got != want {
		t.Errorf("Content-Type = %q, want %q", got, want)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "# TYPE rtic_build_info gauge") {
		t.Error("/metrics missing rtic_build_info family")
	}
	if !strings.Contains(string(body), `rtic_build_info{go_version="go1.`) {
		t.Errorf("rtic_build_info sample missing go_version label:\n%s", body)
	}
}

func TestPprofEndpoint(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, "s.rtic", "relation p/1\nconstraint c: p(x) -> not once p(x)\n")

	// -pprof without -metrics has nowhere to serve.
	if _, err := start(options{specPath: spec, listen: "127.0.0.1:0", pprof: true}); err == nil ||
		!strings.Contains(err.Error(), "-metrics") {
		t.Fatalf("start without -metrics: err = %v, want mention of -metrics", err)
	}

	d, err := start(options{specPath: spec, listen: "127.0.0.1:0", metricsAddr: "127.0.0.1:0", pprof: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.shutdown()
	base := "http://" + d.hl.Addr().String()
	if body := httpGet(t, base+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index unexpected:\n%.200s", body)
	}
	// The profile endpoints stream protobuf; status 200 is the contract.
	for _, p := range []string{"goroutine", "heap", "block", "mutex"} {
		resp, err := http.Get(base + "/debug/pprof/" + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/debug/pprof/%s: status %d", p, resp.StatusCode)
		}
	}

	// Without -pprof the endpoints must not exist.
	d2, err := start(options{specPath: spec, listen: "127.0.0.1:0", metricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.shutdown()
	resp, err := http.Get("http://" + d2.hl.Addr().String() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof served without -pprof: status %d", resp.StatusCode)
	}
}

// dumpSpan is one line of a -slow-commit dump, parsed back into the
// tree Render drew: name, optional (detail), and the key=value fields.
type dumpSpan struct {
	name, detail string
	attrs        map[string]string // ops, wait, track, err
	children     []*dumpSpan
}

func (s *dumpSpan) childNames() []string {
	var names []string
	for _, c := range s.children {
		names = append(names, c.name)
	}
	return names
}

func (s *dumpSpan) child(name string) *dumpSpan {
	for _, c := range s.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

// walk visits s and its descendants, parents first.
func (s *dumpSpan) walk(f func(*dumpSpan)) {
	f(s)
	for _, c := range s.children {
		c.walk(f)
	}
}

// dumpBlock is one "slow <root> t=<t> took ..." block: the headline's
// root name and timestamp, and the tree printed beneath it.
type dumpBlock struct {
	headRoot string
	t        uint64
	root     *dumpSpan
}

// parseSlowDump parses everything the -slow-commit logger wrote. Each
// block is a headline followed by an indented tree (two spaces per
// level) and a blank line.
func parseSlowDump(t *testing.T, out string) []dumpBlock {
	t.Helper()
	var blocks []dumpBlock
	var stack []*dumpSpan // stack[d] = the last span seen at depth d
	for _, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "slow "); ok {
			var b dumpBlock
			if _, err := fmt.Sscanf(rest, "%s t=%d took", &b.headRoot, &b.t); err != nil {
				t.Fatalf("unparseable headline %q: %v", line, err)
			}
			if !strings.Contains(rest, "(threshold 1ns)") {
				t.Fatalf("headline %q does not name the threshold", line)
			}
			blocks = append(blocks, b)
			stack = stack[:0]
			continue
		}
		if len(blocks) == 0 {
			t.Fatalf("span line before any headline: %q", line)
		}
		body := strings.TrimLeft(line, " ")
		depth := (len(line) - len(body)) / 2
		sp := &dumpSpan{attrs: map[string]string{}}
		// err= is rendered last and may contain spaces.
		if i := strings.Index(body, " err="); i >= 0 {
			sp.attrs["err"] = body[i+len(" err="):]
			body = body[:i]
		}
		fields := strings.Fields(body)
		sp.name = fields[0]
		if i := strings.IndexByte(sp.name, '('); i >= 0 {
			sp.name, sp.detail = sp.name[:i], strings.TrimSuffix(sp.name[i+1:], ")")
		}
		for _, f := range fields[2:] { // fields[1] is the duration
			if k, v, ok := strings.Cut(f, "="); ok {
				sp.attrs[k] = v
			}
		}
		switch {
		case depth == 0 && blocks[len(blocks)-1].root == nil:
			blocks[len(blocks)-1].root = sp
		case depth >= 1 && depth <= len(stack):
			stack[depth-1].children = append(stack[depth-1].children, sp)
		default:
			t.Fatalf("span line at depth %d has no parent: %q", depth, line)
		}
		stack = append(stack[:depth], sp)
	}
	return blocks
}

// captureStderr runs f with os.Stderr redirected and returns what was
// written. Every goroutine that may write to stderr must be started and
// stopped inside f, so none touches the variable while it is swapped.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = pw
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, pr)
		done <- buf.String()
	}()
	f()
	os.Stderr = old
	pw.Close()
	out := <-done
	pr.Close()
	return out
}

var (
	fourPhases = []string{"phase.apply", "phase.update", "phase.check", "phase.carry"}
	twoShards  = []string{"shard.commit", "shard.commit"}
)

// checkCommitBlock asserts the tree docs/OBSERVABILITY.md draws for one
// acknowledged commit at time ts: a monitor.apply root carrying the lock
// wait, the engine's commit beneath it decomposed into inner (its four
// phases, or one sub-commit per shard), then the given journal children
// — and nothing else at the top level.
func checkCommitBlock(t *testing.T, b dumpBlock, ts uint64, inner []string, journal ...string) {
	t.Helper()
	if b.headRoot != "monitor.apply" || b.t != ts || b.root == nil || b.root.name != "monitor.apply" {
		t.Fatalf("block = slow %s t=%d over %+v, want monitor.apply t=%d", b.headRoot, b.t, b.root, ts)
	}
	if b.root.attrs["wait"] == "" {
		t.Errorf("t=%d: monitor.apply carries no wait=", ts)
	}
	want := append([]string{"commit"}, journal...)
	if got := b.root.childNames(); !slices.Equal(got, want) {
		t.Fatalf("t=%d: monitor.apply children = %v, want %v", ts, got, want)
	}
	if got := b.root.child("commit").childNames(); !slices.Equal(got, inner) {
		t.Errorf("t=%d: commit children = %v, want %v", ts, got, inner)
	}
}

const slowSpec = "relation p/1\nconstraint c: p(x) -> not once p(x)\n"

// TestSlowCommitLog: -slow-commit prints one tree per acknowledged
// commit, rooted at monitor.apply with the engine's commit and its four
// phases beneath it — not one block per layer.
func TestSlowCommitLog(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, "s.rtic", slowSpec)
	out := captureStderr(t, func() {
		// A 1ns threshold makes every commit slow.
		d, err := start(options{specPath: spec, listen: "127.0.0.1:0", slowCommit: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		defer d.shutdown()
		if d.m.Observer().SpanSink() == nil {
			t.Fatal("slow-commit logger not wired into the observer")
		}
		commitN(t, d, 3)
	})
	blocks := parseSlowDump(t, out)
	if len(blocks) != 3 {
		t.Fatalf("%d blocks for 3 commits:\n%s", len(blocks), out)
	}
	for i, b := range blocks {
		checkCommitBlock(t, b, uint64(i+1), fourPhases)
	}
}

// TestSlowCommitLogWAL: with a journal the commit's wal.append (and the
// per-commit fsync inside it) joins the same tree — one per shard
// journal when sharded — and every span in it carries the commit's
// timestamp, which the WAL itself never knew.
func TestSlowCommitLogWAL(t *testing.T) {
	t.Run("unsharded", func(t *testing.T) { slowCommitLogWAL(t, 1, fourPhases, "wal.append") })
	t.Run("shards=2", func(t *testing.T) { slowCommitLogWAL(t, 2, twoShards, "wal.append", "wal.append") })
}

func slowCommitLogWAL(t *testing.T, shards int, inner []string, journal ...string) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, "s.rtic", slowSpec)
	var roots []*obs.Span
	out := captureStderr(t, func() {
		d, err := start(options{
			specPath: spec, listen: "127.0.0.1:0", slowCommit: time.Nanosecond, shards: shards,
			walPath: filepath.Join(dir, "state.wal"), traceOut: filepath.Join(dir, "trace.json"),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.shutdown()
		commitN(t, d, 3)
		roots = d.rec.Snapshot()
	})
	// -wal alone checkpoints to <wal>.ckpt at shutdown; an unsharded
	// snapshot is a snapshot.save root of its own after the commits.
	blocks := parseSlowDump(t, out)
	if len(blocks) == 4 && blocks[3].headRoot == "snapshot.save" {
		blocks = blocks[:3]
	}
	if len(blocks) != 3 {
		t.Fatalf("%d blocks for 3 commits:\n%s", len(blocks), out)
	}
	for i, b := range blocks {
		checkCommitBlock(t, b, uint64(i+1), inner, journal...)
		for _, c := range b.root.children[1:] {
			if got := c.childNames(); !slices.Equal(got, []string{"wal.fsync"}) {
				t.Errorf("t=%d: wal.append children = %v, want [wal.fsync]", b.t, got)
			}
		}
		b.root.walk(func(s *dumpSpan) {
			if s.attrs["err"] != "" {
				t.Errorf("t=%d: healthy commit shows err=%s on %s", b.t, s.attrs["err"], s.name)
			}
		})
	}
	// The recorder saw the same three trees; the dump does not print
	// per-span timestamps, the spans themselves carry them.
	if len(roots) != 3 {
		t.Fatalf("recorder holds %d roots, want 3", len(roots))
	}
	for i, r := range roots {
		r.Walk(func(s *obs.Span) {
			if s.Time != uint64(i+1) {
				t.Errorf("commit %d: %s carries t=%d", i+1, s.Name, s.Time)
			}
		})
	}
}

// TestSlowCommitLogFsyncFailure: a failed fsync is an acknowledged,
// non-durable commit under the degrade policy. The tree says which layer
// failed: the error sits on the wal.fsync leaf and its wal.append
// parent, and nowhere on the engine's side of the tree. The re-arm that
// follows replaces the broken journal behind a checkpoint, under the
// commit lock but outside any Apply: its snapshot.save is a root of its
// own, and the next commit journals into the fresh segment as one tree
// again.
func TestSlowCommitLogFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, "s.rtic", slowSpec)
	ffs := vfs.NewFaultFS(vfs.OS)
	out := captureStderr(t, func() {
		d, err := start(options{
			specPath: spec, listen: "127.0.0.1:0", slowCommit: time.Nanosecond,
			walPath: filepath.Join(dir, "state.wal"), snapPath: filepath.Join(dir, "state.snap"), fsys: ffs,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.shutdown()
		c := dialLine(t, d)
		c.commit(t, "@1 +p(1)")
		// The next append is a write then an fsync; fail whichever of the
		// next ops is the fsync.
		base := ffs.OpCount()
		for i := uint64(1); i <= 2; i++ {
			ffs.Inject(vfs.Injection{AtOp: base + i, Op: vfs.OpSync, Kind: vfs.SyncFailure})
		}
		if replies := c.commit(t, "@2 +p(2)"); !strings.HasPrefix(replies[len(replies)-1], "ok ") {
			t.Fatalf("commit over a failing fsync not acknowledged: %v", replies)
		}
		for deadline := time.Now().Add(10 * time.Second); d.dur.Health().Rearms == 0; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("durability never re-armed: %+v", d.dur.Health())
			}
		}
		c.commit(t, "@3 +p(3)")
	})
	var faulted, healed *dumpBlock
	var checkpoints int
	for _, b := range parseSlowDump(t, out) {
		b := b
		switch {
		case b.headRoot == "monitor.apply" && b.t == 2:
			faulted = &b
		case b.headRoot == "monitor.apply" && b.t == 3:
			healed = &b
		case b.headRoot == "snapshot.save" && b.root.name == "snapshot.save" && len(b.root.children) == 0:
			checkpoints++
		case b.headRoot != "monitor.apply":
			t.Errorf("stray root %s t=%d:\n%s", b.headRoot, b.t, out)
		}
	}
	if faulted == nil || healed == nil || checkpoints == 0 {
		t.Fatalf("want monitor.apply blocks for t=2 and t=3 and the re-arm's snapshot.save root:\n%s", out)
	}
	checkCommitBlock(t, *healed, 3, fourPhases, "wal.append")
	checkCommitBlock(t, *faulted, 2, fourPhases, "wal.append")
	app := faulted.root.child("wal.append")
	fsync := app.child("wal.fsync")
	if fsync == nil || fsync.attrs["err"] == "" || app.attrs["err"] == "" {
		t.Fatalf("fsync failure not on wal.fsync and wal.append:\n%s", out)
	}
	if faulted.root.attrs["err"] != "" {
		t.Errorf("monitor.apply shows err=%s; the commit itself succeeded", faulted.root.attrs["err"])
	}
	faulted.root.child("commit").walk(func(s *dumpSpan) {
		if s.attrs["err"] != "" {
			t.Errorf("engine span %s shows err=%s; only the journal failed", s.name, s.attrs["err"])
		}
	})
}

func TestTraceOutWritesChromeTrace(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, "s.rtic", "relation p/1\nconstraint c: p(x) -> not once p(x)\n")
	tracePath := filepath.Join(dir, "trace.json")
	d, err := start(options{specPath: spec, listen: "127.0.0.1:0", traceOut: tracePath})
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, d, 5)
	if err := d.shutdown(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]int{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" || ev.Pid != 1 {
			t.Fatalf("malformed event %+v", ev)
		}
		names[ev.Name]++
	}
	// 5 commits from the engine, each under a monitor.apply section,
	// each decomposed into the four phases.
	for _, want := range []string{"monitor.apply", "commit", "phase.apply", "phase.update", "phase.check", "phase.carry"} {
		if names[want] != 5 {
			t.Errorf("trace has %d %q events, want 5 (all: %v)", names[want], want, names)
		}
	}
}

// TestDaemonExportsRuntimeCounters: /metrics carries the Go runtime's
// heap-allocated-objects and GC-cycle counters, read at the scrape, so
// an operator can watch whether commits allocate on a live daemon. The
// allocation counter is past zero at the first scrape (starting the
// daemon allocates) and never falls between scrapes.
func TestDaemonExportsRuntimeCounters(t *testing.T) {
	dir := t.TempDir()
	d, err := start(options{
		specPath:    writeSpec(t, dir, "hr.rtic", hrSpec),
		listen:      "127.0.0.1:0",
		metricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.shutdown() //nolint:errcheck — nothing to checkpoint
	read := func() (allocs, cycles float64) {
		t.Helper()
		body := httpGet(t, "http://"+d.hl.Addr().String()+"/metrics")
		values := map[string]float64{}
		for _, line := range strings.Split(body, "\n") {
			var name string
			var v float64
			if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil && !strings.HasPrefix(name, "#") {
				values[name] = v
			}
		}
		for _, name := range []string{"rtic_runtime_heap_allocs_objects_total", "rtic_runtime_gc_cycles_total"} {
			if _, ok := values[name]; !ok {
				t.Fatalf("/metrics has no %s series:\n%s", name, body)
			}
		}
		return values["rtic_runtime_heap_allocs_objects_total"], values["rtic_runtime_gc_cycles_total"]
	}
	a0, c0 := read()
	if a0 <= 0 {
		t.Fatalf("rtic_runtime_heap_allocs_objects_total = %g at the first scrape", a0)
	}
	dialLine(t, d).commit(t, "@0 +fire(7)")
	if a1, c1 := read(); a1 < a0 || c1 < c0 {
		t.Fatalf("runtime counters fell between scrapes: allocs %g -> %g, cycles %g -> %g", a0, a1, c0, c1)
	}
}
