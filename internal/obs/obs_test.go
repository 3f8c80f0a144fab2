package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	vec := r.CounterVec("cv_total", "help", "k")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				vec.With("a").Inc()
				vec.With("b").Add(2)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := vec.With("a").Value(); got != workers*per {
		t.Errorf("vec[a] = %d, want %d", got, workers*per)
	}
	if got := vec.With("b").Value(); got != 2*workers*per {
		t.Errorf("vec[b] = %d, want %d", got, 2*workers*per)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "help")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help", []float64{0.1, 1, 10})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.05) // bucket le=0.1
				h.Observe(5)    // bucket le=10
				h.Observe(100)  // bucket +Inf
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 3*workers*per {
		t.Errorf("count = %d, want %d", got, 3*workers*per)
	}
	want := float64(workers*per) * (0.05 + 5 + 100)
	if got := h.Sum(); got < want*0.999 || got > want*1.001 {
		t.Errorf("sum = %g, want %g", got, want)
	}
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total != h.Count() {
		t.Errorf("bucket counts sum to %d, count is %d", total, h.Count())
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	h.Observe(1.5)
	h.Observe(3)
	if got := h.counts[0].Load(); got != 1 {
		t.Errorf("bucket le=1 = %d, want 1", got)
	}
	if got := h.counts[1].Load(); got != 1 {
		t.Errorf("bucket le=2 = %d, want 1", got)
	}
	if got := h.counts[2].Load(); got != 1 {
		t.Errorf("bucket +Inf = %d, want 1", got)
	}
}

func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rtic_commits_total", "Committed transactions.")
	c.Add(42)
	v := r.CounterVec("rtic_violations_total", "Violations by constraint.", "constraint")
	v.With("no_rehire").Add(3)
	v.With("pay_fast").Add(0)
	g := r.Gauge("rtic_aux_bytes", "Auxiliary bytes.")
	g.Set(1234)
	h := r.Histogram("rtic_commit_duration_seconds", "Commit latency.", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.0005)
	h.Observe(0.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP rtic_commits_total Committed transactions.
# TYPE rtic_commits_total counter
rtic_commits_total 42
# HELP rtic_violations_total Violations by constraint.
# TYPE rtic_violations_total counter
rtic_violations_total{constraint="no_rehire"} 3
rtic_violations_total{constraint="pay_fast"} 0
# HELP rtic_aux_bytes Auxiliary bytes.
# TYPE rtic_aux_bytes gauge
rtic_aux_bytes 1234
# HELP rtic_commit_duration_seconds Commit latency.
# TYPE rtic_commit_duration_seconds histogram
rtic_commit_duration_seconds_bucket{le="0.001"} 2
rtic_commit_duration_seconds_bucket{le="0.01"} 2
rtic_commit_duration_seconds_bucket{le="+Inf"} 3
rtic_commit_duration_seconds_sum 0.501
rtic_commit_duration_seconds_count 3
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestExpositionLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("c_total", "help", "k").With("a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `c_total{k="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", buf.String())
	}
}

func TestRegistryReRegister(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Error("same-shape re-registration should return the same metric")
	}
	defer func() {
		if recover() == nil {
			t.Error("conflicting re-registration should panic")
		}
	}()
	r.Gauge("x_total", "help")
}

func TestVecArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("y_total", "help", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity should panic")
		}
	}()
	v.With("only-one")
}

func TestNewMetricsIdempotent(t *testing.T) {
	r := NewRegistry()
	m1 := NewMetrics(r)
	m2 := NewMetrics(r)
	m1.Commits.Inc()
	if got := m2.Commits.Value(); got != 1 {
		t.Errorf("second NewMetrics saw %d commits, want 1 (shared registry)", got)
	}
	if m1.Registry() != r {
		t.Error("Registry() should return the backing registry")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"rtic_commits_total", "rtic_violations_total", "rtic_commit_duration_seconds",
		"rtic_aux_nodes", "rtic_aux_entries", "rtic_aux_timestamps", "rtic_aux_bytes",
		"rtic_monitor_connections_total",
	} {
		if !strings.Contains(buf.String(), "# TYPE "+name+" ") {
			t.Errorf("exposition missing family %s", name)
		}
	}
}

func TestObserverNilSafety(t *testing.T) {
	var o *Observer
	if o.MetricSink() != nil || o.SpanSink() != nil || o.WantsDetail() {
		t.Error("nil observer sinks should be nil")
	}
	if cs := o.BeginCommit(1, 0); !cs.Idle() {
		t.Error("nil observer should open the idle commit scope")
	}
	o = &Observer{}
	if cs := o.BeginCommit(1, 0); !cs.Idle() {
		t.Error("empty observer should open the idle commit scope")
	}
	o.Metrics = NewMetrics(NewRegistry())
	if cs := o.BeginCommit(1, 0); cs.Idle() {
		t.Error("observer with metrics should observe its commits")
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake" }

// BenchmarkObserverDisabled measures the guard an uninstrumented engine
// pays per commit: opening the commit scope on a nil observer. This is
// the "observer hooks add no measurable overhead when unset" criterion.
func BenchmarkObserverDisabled(b *testing.B) {
	var o *Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cs := o.BeginCommit(uint64(i), 1); !cs.Idle() {
			b.Fatal("unreachable")
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(DefLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(3.7e-5)
	}
}

func BenchmarkCounterVecWith(b *testing.B) {
	r := NewRegistry()
	v := r.CounterVec("c_total", "help", "k")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("constraint_name").Inc()
	}
}

func TestFloatGauge(t *testing.T) {
	r := NewRegistry()
	g := r.FloatGauge("rtic_shard_commit_skew", "Max/min shard sub-commit time.")
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Errorf("Value = %v, want 0.75", got)
	}
	if g2 := r.FloatGauge("rtic_shard_commit_skew", "Max/min shard sub-commit time."); g2 != g {
		t.Error("re-registration should return the same gauge")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE rtic_shard_commit_skew gauge") {
		t.Errorf("float gauge must expose as TYPE gauge:\n%s", out)
	}
	if !strings.Contains(out, "rtic_shard_commit_skew 0.75") {
		t.Errorf("float gauge sample missing:\n%s", out)
	}
}

// TestConcurrentScrape scrapes the registry while every metric kind is
// being written — the situation the rticd /metrics endpoint is in. Run
// under -race this is the exposition thread-safety check.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	m := NewMetrics(r)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.Commits.Inc()
				m.Violations.With(fmt.Sprintf("c%d", w)).Inc()
				m.CommitSeconds.Observe(0.001)
				m.StepPhaseSeconds.With("check").Observe(0.0005)
				m.LockWaitSeconds.Observe(0.0001)
				m.ShardSkew.Set(float64(i%100) / 100)
				m.AuxBytes.Set(int64(i))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "rtic_commits_total") {
			t.Fatal("scrape lost the commits family")
		}
	}
	close(stop)
	wg.Wait()
}

func TestMetricsIncludesAttributionFamilies(t *testing.T) {
	r := NewRegistry()
	m := NewMetrics(r)
	m.StepPhaseSeconds.With("apply").Observe(0.001)
	m.ShardSkew.Set(2)
	m.LockWaitSeconds.Observe(0.0002)
	m.BuildInfo.With("go1.24.0", "abc123").Set(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE rtic_step_phase_seconds histogram",
		`rtic_step_phase_seconds_bucket{phase="apply",le=`,
		"# TYPE rtic_shard_commit_skew gauge",
		"# TYPE rtic_commit_lock_wait_seconds histogram",
		`rtic_build_info{go_version="go1.24.0",rev="abc123"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
