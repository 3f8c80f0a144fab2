// Package obs is the instrumentation layer of the checker stack:
// dependency-free counters, gauges and fixed-bucket latency histograms
// with atomic updates, a Prometheus text-format exposition writer, and
// one tracing model: trees of timed Spans that the engines, the monitor
// and the WAL hand to a SpanSink (recorder, slow-commit logger, slog
// lines, Chrome trace export).
//
// The package deliberately has no third-party dependencies so every
// layer (core engine, monitor, daemons) can import it freely. All
// metric updates are lock-free atomics; registration takes a lock but
// happens once at startup. A nil *Observer is the fully disabled state:
// every guard in the engines is a nil check, so an uninstrumented
// checker pays nothing beyond two pointer comparisons per commit (see
// BenchmarkObserverDisabled).
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//rtic:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//rtic:noalloc
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
//
//rtic:noalloc
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
//
//rtic:noalloc
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
//
//rtic:noalloc
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
//
//rtic:noalloc
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
//
//rtic:noalloc
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a gauge holding a float64 — for ratios like shard
// skew, where an int64 gauge would truncate.
type FloatGauge struct {
	v atomic.Uint64 // float64 bits
}

// Set replaces the gauge value.
//
//rtic:noalloc
func (g *FloatGauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the current value.
//
//rtic:noalloc
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// Histogram is a fixed-bucket histogram of float64 observations
// (typically seconds). Buckets are cumulative in the exposition, as
// Prometheus expects; internally each bucket stores its own count so
// Observe touches exactly one bucket.
type Histogram struct {
	bounds []float64       // sorted upper bounds; implicit +Inf last
	counts []atomic.Uint64 // len(bounds)+1
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// DefLatencyBuckets spans sub-microsecond engine steps to full-second
// stalls; the defaults for commit and constraint timing.
var DefLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5,
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
//
//rtic:noalloc
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. the "le" bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
//
//rtic:noalloc
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
//
//rtic:noalloc
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metric is anything a series can hold.
type metric interface{}

// series is one labelled instance of a metric family.
type series struct {
	labelValues []string
	m           metric
}

// family is a named metric with a fixed label set and one series per
// distinct label-value combination (exactly one, with no labels, for
// plain metrics).
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []string
	bounds []float64 // histograms only

	mu     sync.Mutex
	order  []string
	series map[string]*series
}

func (f *family) get(values []string) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s.m
	}
	var m metric
	switch f.typ {
	case "counter":
		m = &Counter{}
	case "gauge":
		m = &Gauge{}
	case "floatgauge":
		m = &FloatGauge{}
	case "histogram":
		m = newHistogram(f.bounds)
	}
	f.series[key] = &series{labelValues: append([]string(nil), values...), m: m}
	f.order = append(f.order, key)
	return m
}

func labelKey(values []string) string {
	key := ""
	for _, v := range values {
		key += fmt.Sprintf("%d:%s;", len(v), v)
	}
	return key
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use. It panics if the number of values does not match the
// family's label names — a programming error, like a bad format verb.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).(*Counter) }

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).(*Gauge) }

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).(*Histogram) }

// Registry holds metric families in registration order; one registry
// backs one exposition endpoint. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register creates or retrieves a family; re-registering the same name
// with the same type and labels returns the existing family, a
// conflicting re-registration panics.
func (r *Registry) register(name, help, typ string, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s with %d labels (was %s with %d)",
				name, typ, len(labels), f.typ, len(f.labels)))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with label %q (was %q)", name, labels[i], f.labels[i]))
			}
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		typ:    typ,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		series: make(map[string]*series),
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Counter registers (or retrieves) a plain counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, "counter", nil, nil).get(nil).(*Counter)
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labels, nil)}
}

// Gauge registers (or retrieves) a plain gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, "gauge", nil, nil).get(nil).(*Gauge)
}

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, "gauge", labels, nil)}
}

// FloatGauge registers (or retrieves) a float-valued gauge; it exposes
// as TYPE gauge.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	return r.register(name, help, "floatgauge", nil, nil).get(nil).(*FloatGauge)
}

// Histogram registers (or retrieves) a plain histogram with the given
// bucket upper bounds (nil means DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return r.register(name, help, "histogram", nil, bounds).get(nil).(*Histogram)
}

// HistogramVec registers a histogram family with the given bucket
// bounds (nil means DefLatencyBuckets) and label names.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return &HistogramVec{f: r.register(name, help, "histogram", labels, bounds)}
}
