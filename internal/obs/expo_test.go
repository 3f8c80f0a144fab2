package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// fullRegistry is the daemon's registry (NewMetrics plus
// RegisterRuntime) with every family holding series and values that
// exercise each formatting path: zero, a count past int64, a negative
// gauge, float sums that need all 17 digits, observations on, between
// and past the bucket bounds. One extra family needs escaping in its
// help text and in a label value.
func fullRegistry() *Registry {
	r := NewRegistry()
	m := NewMetrics(r)
	RegisterRuntime(r)
	m.Commits.Add(1<<63 + 5)
	m.CommitErrors.Add(0)
	m.Violations.With("no_quick_rehire").Add(7)
	m.Violations.With("stale_reading").Add(1)
	obsv := []float64{0, 1e-9, 1e-6, 3e-6, 7.5e-5, 0.07, 0.1, 0.3, 3}
	for i, v := range obsv {
		m.CommitSeconds.Observe(v)
		m.ConstraintSeconds.With("no_quick_rehire").Observe(v * 2)
		m.StepPhaseSeconds.With([]string{"apply", "update", "check", "carry"}[i%4]).Observe(v / 3)
		m.ShardCommitSeconds.With("0").Observe(v)
		m.LockWaitSeconds.Observe(v / 7)
		m.CheckpointSeconds.Observe(v + 1e-3)
	}
	m.ShardCommitSeconds.With("1") // a series that never observed
	m.AuxNodes.Set(3)
	m.AuxEntries.Set(1024)
	m.AuxTimestamps.Set(4096)
	m.AuxBytes.Set(123456789)
	m.Shards.Set(2)
	m.ShardCommits.With("0").Add(10)
	m.ShardCommits.With("1").Add(12)
	m.ShardOpsRouted.With("0").Add(40)
	m.ShardOpsRouted.With("1").Add(44)
	m.ShardGlobalConstraints.Set(1)
	m.ShardSkew.Set(1.0 / 3)
	m.Connections.Add(5)
	m.ConnectionsActive.Set(-1)
	m.ConnectionsRejected.Inc()
	m.ProtocolErrors.Add(2)
	m.DroppedViolations.Add(9)
	m.BuildInfo.With("go1.22.0", "abc123").Set(1)
	m.LintWarnings.Add(1)
	m.LintFindings.With("cost").Add(2)
	m.LintFindings.With("unused-relation").Inc()
	m.WALAppends.Add(100)
	m.WALAppendedBytes.Add(8432)
	m.WALFsyncs.Add(10)
	m.WALErrors.Add(0)
	m.WALSizeBytes.Set(8)
	m.Checkpoints.Add(3)
	m.CheckpointErrors.Inc()
	m.CheckpointLastUnix.Set(1760000000)
	m.ReplayedRecords.Add(17)
	m.DurabilityDegraded.Set(0)
	m.RearmAttempts.Add(4)
	m.Rearms.Add(1)
	esc := r.CounterVec("rtic_escape_total", "Help with a backslash \\ and a\nnewline.", "k")
	esc.With("plain").Inc()
	esc.With("q\"b\\s\nn").Add(2)
	return r
}

// runtimeSample matches the two runtime counters' sample lines, whose
// values are this process's.
var runtimeSample = regexp.MustCompile(`(?m)^(rtic_runtime_[a-z_]+) [0-9]+$`)

// TestFullRegistryGolden holds the daemon's whole exposition to bytes
// rendered by the writer it replaced (testdata/full_registry.prom);
// the runtime counters' values are masked.
func TestFullRegistryGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fullRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := runtimeSample.ReplaceAll(buf.Bytes(), []byte("$1 N"))
	path := filepath.Join("testdata", "full_registry.prom")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exposition differs from %s:\ngot:\n%s", path, got)
	}
}

// TestAppendPrometheusAllocatesNothing renders the full registry into
// a kept buffer: after the first render has grown it, a render
// allocates nothing, the runtime counters' read included.
func TestAppendPrometheusAllocatesNothing(t *testing.T) {
	r := fullRegistry()
	buf := r.AppendPrometheus(nil)
	if n := testing.AllocsPerRun(100, func() { buf = r.AppendPrometheus(buf[:0]) }); n != 0 {
		t.Errorf("a render into a kept buffer allocates %v times, want 0", n)
	}
}
