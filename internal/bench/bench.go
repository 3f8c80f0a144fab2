// Package bench implements the reconstructed evaluation: one experiment
// per table/figure listed in DESIGN.md, each returning a formatted table
// with the same rows/series the write-up reports. The absolute numbers
// depend on the host; the shapes (who wins, by what factor, where
// growth appears) are what the experiments reproduce.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"rtic/internal/active"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/naive"
	"rtic/internal/obs"
	"rtic/internal/shard"
	"rtic/internal/workload"
)

// traceSink, when set, is attached to every incremental and sharded
// engine the experiments build, so a bench run can export its commit
// spans (rticbench -trace-out). Span building adds measurable overhead
// to the hot path; leave it unset for runs whose numbers are recorded.
var traceSink obs.SpanSink

// SetTraceSink installs (or, with nil, removes) the span sink bench
// engines are built with. Not safe to call concurrently with a run.
func SetTraceSink(s obs.SpanSink) { traceSink = s }

// observeEngine attaches the trace sink to a freshly built engine.
func observeEngine(e interface{ SetObserver(*obs.Observer) }) {
	if traceSink != nil {
		e.SetObserver(&obs.Observer{Spans: traceSink})
	}
}

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "  %-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Columns)
	var sep []string
	for _, wd := range widths {
		sep = append(sep, strings.Repeat("-", wd))
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// replayResult carries the measurements of one replay.
type replayResult struct {
	nsPerStepAll      float64 // average over all steps
	nsPerStepTail     float64 // average over the final 10% (steady state)
	allocsPerStepTail float64 // heap allocations per step over the tail
	violations        int
	totalNs           int64
}

// replay commits h's steps on eng, one at a time, timing each.
func replay(h workload.History, eng engine.Engine) (replayResult, error) {
	// Settle the heap so one experiment's garbage does not tax the next
	// experiment's timings.
	runtime.GC()
	var res replayResult
	n := len(h.Steps)
	tailStart := n - n/10
	if tailStart >= n {
		tailStart = 0
	}
	var tailNs int64
	tailCount := 0
	var m0, m1 runtime.MemStats
	for i, s := range h.Steps {
		if i == tailStart {
			// Snapshot the malloc counter outside the timed region; the
			// delta over the tail is the steady-state allocs/tx.
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		vs, err := eng.Step(s.Time, s.Tx)
		d := time.Since(t0).Nanoseconds()
		if err != nil {
			return res, fmt.Errorf("step %d: %w", i, err)
		}
		res.totalNs += d
		if i >= tailStart {
			tailNs += d
			tailCount++
		}
		res.violations += len(vs)
	}
	if n > 0 {
		res.nsPerStepAll = float64(res.totalNs) / float64(n)
	}
	if tailCount > 0 {
		runtime.ReadMemStats(&m1)
		res.nsPerStepTail = float64(tailNs) / float64(tailCount)
		res.allocsPerStepTail = float64(m1.Mallocs-m0.Mallocs) / float64(tailCount)
	}
	return res, nil
}

func newIncremental(h workload.History) (*core.Checker, error) {
	c := core.New(h.Schema)
	if err := engine.Install(c, h.Schema, h.Constraints); err != nil {
		return nil, err
	}
	observeEngine(c)
	return c, nil
}

// newSharded builds a shard router over h's schema (incremental
// engines inside) with h's constraints installed.
func newSharded(h workload.History, shards int) (*shard.Router, error) {
	r, err := shard.NewMode(h.Schema, shards, engine.Incremental)
	if err != nil {
		return nil, err
	}
	if err := engine.Install(r, h.Schema, h.Constraints); err != nil {
		return nil, err
	}
	observeEngine(r)
	return r, nil
}

// repeats is how many fresh replays the timing experiments take the
// fastest of; single runs are too exposed to GC scheduling noise.
func repeats(quick bool) int {
	if quick {
		return 1
	}
	return 3
}

// best replays h n times through run, each on a fresh engine, and
// keeps the fastest run with what run reported beside it.
func best[T any](h workload.History, n int, run func(workload.History) (replayResult, T, error)) (replayResult, T, error) {
	var fastest replayResult
	var side T
	for i := 0; i < n; i++ {
		res, v, err := run(h)
		if err != nil {
			return res, v, err
		}
		if i == 0 || res.totalNs < fastest.totalNs {
			fastest, side = res, v
		}
	}
	return fastest, side, nil
}

// runIncremental replays h on the incremental checker and returns its
// auxiliary storage stats.
func runIncremental(h workload.History) (replayResult, core.Stats, error) {
	c, err := newIncremental(h)
	if err != nil {
		return replayResult{}, core.Stats{}, err
	}
	res, err := replay(h, c)
	return res, c.Stats(), err
}

// runSharded is runIncremental on a router over shards engines.
func runSharded(shards int) func(workload.History) (replayResult, core.Stats, error) {
	return func(h workload.History) (replayResult, core.Stats, error) {
		r, err := newSharded(h, shards)
		if err != nil {
			return replayResult{}, core.Stats{}, err
		}
		res, err := replay(h, r)
		return res, r.Stats(), err
	}
}

// runUnpruned replays h on an incremental checker with the pruning
// rules disabled (the space ablation) and returns its auxiliary stats.
func runUnpruned(h workload.History) (core.Stats, error) {
	c := core.New(h.Schema)
	if err := c.DisablePruning(); err != nil {
		return core.Stats{}, err
	}
	if err := engine.Install(c, h.Schema, h.Constraints); err != nil {
		return core.Stats{}, err
	}
	_, err := replay(h, c)
	return c.Stats(), err
}

// runCheckpointedNaive replays h on the checkpointed-history naive
// checker and returns its storage footprint.
func runCheckpointedNaive(h workload.History, interval int) (int, error) {
	c := naive.NewCheckpointed(h.Schema, interval)
	if err := engine.Install(c, h.Schema, h.Constraints); err != nil {
		return 0, err
	}
	_, err := replay(h, c)
	return c.HistoryBytes(), err
}

// runNaive replays h on the naive checker and returns its history
// footprint.
func runNaive(h workload.History) (replayResult, int, error) {
	c := naive.New(h.Schema)
	if err := engine.Install(c, h.Schema, h.Constraints); err != nil {
		return replayResult{}, 0, err
	}
	res, err := replay(h, c)
	return res, c.HistoryBytes(), err
}

// runActive replays h on the active-rules checker and returns its
// auxiliary tuple count.
func runActive(h workload.History) (replayResult, int, error) {
	c := active.New(h.Schema)
	if err := engine.Install(c, h.Schema, h.Constraints); err != nil {
		return replayResult{}, 0, err
	}
	res, err := replay(h, c)
	if err != nil {
		return res, 0, err
	}
	aux, err := c.AuxTuples()
	return res, aux, err
}

func ns(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2f ms", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1f µs", v/1e3)
	default:
		return fmt.Sprintf("%.0f ns", v)
	}
}

func bytesStr(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func ratio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", a/b)
}
