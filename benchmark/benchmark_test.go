package main

import (
	"context"
	"os"
	"testing"
	"time"
)

// The harness resolves ./cmd/rticd, .bench_build and BENCHMARK.json from
// the repository root, where `go run ./benchmark` is started.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestParseReply(t *testing.T) {
	for _, tc := range []struct {
		line string
		kind reply
		n    int
		bad  bool
	}{
		{"ok 0\n", replyOK, 0, false},
		{"ok 12\n", replyOK, 12, false},
		{"violation fresh_serve violated at state 3 (time 9) by s=4\n", replyViolation, 0, false},
		{"error spec: bad timestamp\n", replyError, 0, false},
		{"ok twelve\n", replyOK, 0, true},
		{"stats nodes=1\n", 0, 0, true},
	} {
		kind, n, err := parseReply([]byte(tc.line))
		if (err != nil) != tc.bad || (!tc.bad && (kind != tc.kind || n != tc.n)) {
			t.Errorf("parseReply(%q) = %v, %d, %v", tc.line, kind, n, err)
		}
	}
}

func TestParseProc(t *testing.T) {
	if cpu, err := parseSchedstat("3472915 77701 12\n"); err != nil || cpu != 3472915*time.Nanosecond {
		t.Errorf("parseSchedstat = %v, %v", cpu, err)
	}
	if _, err := parseSchedstat("\n"); err == nil {
		t.Error("parseSchedstat accepted an empty line")
	}
	status := "Name:\trticd\nVmPeak:\t  999 kB\nVmHWM:\t   15684 kB\nVmRSS:\t 100 kB\n"
	if b, err := parseVmHWM(status); err != nil || b != 15684<<10 {
		t.Errorf("parseVmHWM = %d, %v", b, err)
	}
	if _, err := parseVmHWM("Name:\trticd\n"); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
}

func TestParseStartupLine(t *testing.T) {
	var d daemon
	for _, line := range []string{
		"sharding across 2 engines (1 of 3 constraints on the global shard)\n",
		"rticd metrics on http://127.0.0.1:40123/metrics\n",
		"rticd listening on 127.0.0.1:40567 (3 constraints)\n",
	} {
		d.parseStartupLine(line)
	}
	if d.addr != "127.0.0.1:40567" || d.health != "http://127.0.0.1:40123/healthz" {
		t.Errorf("addr %q, health %q", d.addr, d.health)
	}
}

// TestManifestNames keeps BENCHMARK.json and the harness in step: the
// workloads and metrics it declares are the ones a run prints.
func TestManifestNames(t *testing.T) {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	// The harness may know workloads the manifest does not gate (see
	// README.md, cdc-durable); every one the manifest lists must exist.
	for _, w := range man.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the harness does not have", w.Name)
		}
	}
	if len(man.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(man.PerLayer), len(layerMetrics))
	}
	for i, m := range man.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], harness %s [%s]", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

// TestSmoke runs a fraction of a second of load: shard-recover end to
// end against the real daemon (journals, shards, crash and replay), and
// the traced run of the two journaling workloads, which between them use
// every layer. It asserts correctness and shape, never a timing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns rticd")
	}
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	bin, err := buildDaemon(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const measure = 200 * time.Millisecond
	sharded, _ := findWorkload("shard-recover")
	rep, err := runWorkload(ctx, sharded, 5, measure, bin)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || rep.attempted < warmupCommits {
		t.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
	}
	if len(rep.metrics) != len(man.EndToEnd) {
		t.Fatalf("%d end-to-end metrics, BENCHMARK.json lists %d", len(rep.metrics), len(man.EndToEnd))
	}
	for i, def := range man.EndToEnd {
		if m := rep.metrics[i]; m.name != def.Name || m.unit != def.Unit {
			t.Errorf("metric %d is %s [%s], BENCHMARK.json wants %s [%s]", i, m.name, m.unit, def.Name, def.Unit)
		}
	}

	durable, _ := findWorkload("cdc-durable")
	for _, w := range []wl{durable, sharded} {
		layers, err := traceWorkload(ctx, w, 5, measure)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if len(layers.metrics) != len(layerMetrics) {
			t.Errorf("%s traced: %d metrics, want %d", w.name, len(layers.metrics), len(layerMetrics))
		}
		if layers.get("monitor.recover_records") == 0 || layers.get("vfs.write_count_per_commit") == 0 {
			t.Errorf("%s traced: the journal was not written or not recovered: %v", w.name, layers.metrics)
		}
	}
}
