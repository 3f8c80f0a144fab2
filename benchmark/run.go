package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A run sets the daemon up from nothing five times: twice before the
// paced phase (the second daemon is the one that is measured), once
// after it and twice at the very end, each spare one in a directory of
// its own and stopped at once. setup_s is the second fastest of the five.
// A set-up is 0.7s of CPU-bound work, and this host's CPUs run a quarter
// slower for seconds at a time: samples taken together share that state,
// and their median is the slow state's as often as not, which put the
// medians of two series of runs of the same code a bound apart. Samples
// spread over the run seldom all meet the slow state, and a set-up that
// really got slower is slower in all five.
const setupQuantile = 0.25

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	attempted int
	failed    int
	metrics   []metric // the metrics BENCHMARK.json lists, in its order
	info      []metric // printed beside them, not gated: see README.md for why each is not
	invalid   string   // why the timings cannot be trusted, if they cannot
}

// all lists the gated metrics followed by the ungated ones.
func (r report) all() []metric {
	return append(append([]metric(nil), r.metrics...), r.info...)
}

func (r report) get(name string) float64 {
	for _, m := range r.all() {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// satWindows is how many equal parts the saturation phase is run in.
const satWindows = 12

// window is one windowTicks-long slice of the paced phase.
type window struct {
	steal int64     // clock ticks the hypervisor took from this machine during it
	ack   []float64 // latencies of the commits sent in it, in µs
}

// quietest pools the latencies of the third of the windows in which the
// host took the least CPU time away, and of every window that ties with
// the last of them. The reference host is a two-vCPU virtual machine
// whose hypervisor runs something else for 1-30% of the time, in episodes
// of up to seconds, and says so in /proc/stat; commits that waited for a
// CPU the machine did not have say nothing about the daemon. Choosing
// windows by that signal instead of by their own latency keeps the
// choice from flattering the result.
func quietest(ws []window) (pooled []float64, chosen int) {
	steals := make([]float64, len(ws))
	for i, w := range ws {
		steals[i] = float64(w.steal)
	}
	limit := int64(sortedCopy(steals)[(len(ws)-1)/3])
	for _, w := range ws {
		if w.steal <= limit {
			pooled = append(pooled, w.ack...)
			chosen++
		}
	}
	return pooled, chosen
}

// mark is what is read at a window boundary of the paced phase.
type mark struct {
	sent  int   // commits sent so far
	steal int64 // host steal time so far, in clock ticks
}

// clockTick is the unit of the times in /proc/stat; Linux fixes USER_HZ
// at 100 on every architecture Go runs on.
const clockTick = 10 * time.Millisecond

// hostSteal returns the time the hypervisor has run something else while
// one of this machine's CPUs had work, from the first line of /proc/stat,
// in clock ticks.
func hostSteal() (int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("proc stat: unexpected first line %q", line)
	}
	return strconv.ParseInt(f[8], 10, 64)
}

// liveDaemon is a daemon that has been set up: warmed, with the writer
// connection still open.
type liveDaemon struct {
	d *daemon
	c *writer
}

// stop kills the daemon and closes the connection; stopping twice is
// harmless.
func (l liveDaemon) stop() {
	l.c.close()
	l.d.kill()
}

// startWarm is the daemon's half of the setup phase: write the spec file,
// start the daemon on an empty data directory, and commit the feed's
// warm-up prefix closed-loop.
func startWarm(ctx context.Context, w wl, f feed, bin, dir string) (liveDaemon, error) {
	data := filepath.Join(dir, "data")
	if err := os.RemoveAll(data); err != nil {
		return liveDaemon{}, err
	}
	if err := os.MkdirAll(data, 0o755); err != nil {
		return liveDaemon{}, err
	}
	if err := os.WriteFile(filepath.Join(dir, "spec.rtic"), []byte(f.spec), 0o644); err != nil {
		return liveDaemon{}, err
	}
	d, err := startDaemon(ctx, bin, w.daemonArgs(dir))
	if err != nil {
		return liveDaemon{}, err
	}
	c, err := dialWriter(d.addr, f.lines)
	if err != nil {
		d.kill()
		return liveDaemon{}, err
	}
	live := liveDaemon{d, c}
	if err := c.saturate(warmupCommits); err != nil {
		live.stop()
		return liveDaemon{}, err
	}
	return live, nil
}

// checkpointTail is how many commits a checkpointing workload sends
// between the daemon's last checkpoint and the crash, so every run
// recovers a checkpoint plus a journal tail of the same length instead
// of wherever in the 2s interval the kill happened to land.
const checkpointTail = 1000

// runWorkload drives one workload against the daemon binary for about
// measure of timed load and returns its end-to-end metrics.
func runWorkload(ctx context.Context, w wl, seed int64, measure time.Duration, bin string) (report, error) {
	rep := report{workload: w.name}
	paced, sat := w.pacedCommits(measure), w.satCommits(measure)
	if paced == 0 || sat < satWindows {
		return rep, fmt.Errorf("%v is too short to measure", measure)
	}
	total := warmupCommits + paced + sat
	if w.checkpoint {
		total += checkpointTail
	}

	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)
	fsyncProbe, err := probeFsync(dir)
	if err != nil {
		return rep, err
	}

	// Phase 1: setup, repeated here and after later phases.
	var setups []float64
	setUp := func(dir string) (liveDaemon, feed, error) {
		t0 := time.Now()
		f := w.makeFeed(seed, total)
		live, err := startWarm(ctx, w, f, bin, dir)
		if err != nil {
			return live, f, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return live, f, nil
	}
	spareSetUp := func() error {
		spare, _, err := setUp(filepath.Join(dir, "spare"))
		if err != nil {
			return err
		}
		spare.stop()
		return nil
	}
	if err := spareSetUp(); err != nil {
		return rep, err
	}
	live, f, err := setUp(dir)
	if err != nil {
		return rep, err
	}
	defer live.stop()
	d, c := live.d, live.c

	// Phase 2: paced, open loop, beside an operator's reads.
	obs := &observer{}
	if w.observed {
		if obs, err = startObserver(d.addr); err != nil {
			return rep, err
		}
	}
	pacedCPU, err := d.cpuTime()
	if err != nil {
		return rep, err
	}
	var marks []mark
	var markErr error
	take := func(sent int) {
		steal, err := hostSteal()
		if err != nil {
			markErr = err
		}
		marks = append(marks, mark{sent, steal})
	}
	pacedStart := time.Now()
	late, err := c.pace(paced/w.batch, w.batch, take)
	obs.halt()
	if err != nil {
		return rep, fmt.Errorf("paced phase: %w", err)
	}
	pacedWall := time.Since(pacedStart)
	take(c.next)
	if markErr != nil {
		return rep, markErr
	}
	cpu, err := d.cpuTime()
	if err != nil {
		return rep, err
	}
	pacedCPU = cpu - pacedCPU
	var wins []window
	for i, m := range marks[1:] {
		from := marks[i]
		win := window{steal: m.steal - from.steal}
		for k := from.sent; k < m.sent; k++ {
			win.ack = append(win.ack, float64(c.acked[k]-c.due[k])/1e3)
		}
		wins = append(wins, win)
	}
	ack, quietWins := quietest(wins)
	sort.Float64s(ack)
	genLate := make([]float64, len(late))
	for i, ns := range late {
		genLate[i] = float64(ns) / 1e3
	}
	sort.Float64s(genLate)
	stolen := float64(marks[len(marks)-1].steal-marks[0].steal) * clockTick.Seconds()

	if err := spareSetUp(); err != nil {
		return rep, err
	}

	// Phase 3: saturation, closed loop, one window at a time.
	satRate := make([]float64, satWindows)
	satCPU, err := d.cpuTime()
	if err != nil {
		return rep, err
	}
	for i := range satRate {
		t0 := time.Now()
		if err := c.saturate(sat / satWindows); err != nil {
			return rep, fmt.Errorf("saturation phase: %w", err)
		}
		satRate[i] = float64(sat/satWindows) / time.Since(t0).Seconds()
	}
	if cpu, err = d.cpuTime(); err != nil {
		return rep, err
	}
	satCPU = cpu - satCPU
	rss, err := d.peakRSS()
	if err != nil {
		return rep, err
	}

	// Phase 4: crash, then restart with identical flags.
	if w.checkpoint {
		if err := d.awaitCheckpoint(ctx); err != nil {
			return rep, err
		}
		if err := c.saturate(checkpointTail); err != nil {
			return rep, fmt.Errorf("checkpoint tail: %w", err)
		}
	}
	acked := int(c.nAcked)
	live.stop()
	journal, err := dirBytes(filepath.Join(dir, "data"))
	if err != nil {
		return rep, err
	}
	var recoveries []float64
	lost := 0
	for spent := 0.0; len(recoveries) < maxRestarts && spent < restartBudget.Seconds(); {
		secs, states, err := restart(ctx, w, bin, dir)
		if err != nil {
			return rep, fmt.Errorf("restart: %w", err)
		}
		recoveries = append(recoveries, secs)
		spent += secs
		if w.walSync != "" {
			lost = max(lost, acked-states)
		}
	}

	// Phase 5: verify against the in-process references.
	mismatches, err := verify(f, c.viol[:acked])
	if err != nil {
		return rep, err
	}

	for i := 0; i < 2; i++ {
		if err := spareSetUp(); err != nil {
			return rep, err
		}
	}

	rep.attempted = acked + obs.requests + len(recoveries)
	rep.failed = int(c.failures) + mismatches + obs.failed + lost
	rep.metrics = []metric{
		{"setup_s", "s", quantile(sortedCopy(setups), setupQuantile)},
		{"cpu_us_per_commit", "us", float64(pacedCPU) / 1e3 / float64(paced)},
		{"peak_rss_mb", "MiB", float64(rss) / (1 << 20)},
	}
	rep.info = []metric{
		{"ack_p50_us", "us", quantile(ack, 0.50)},
		{"ack_p99_us", "us", quantile(ack, 0.99)},
		{"sat_commits_per_s", "1/s", quantile(sortedCopy(satRate), 0.75)},
		{"sat_cpu_us_per_commit", "us", float64(satCPU) / 1e3 / float64(sat/satWindows*satWindows)},
		{"recovery_s", "s", median(recoveries)},
		{"stats_p50_us", "us", median(obs.statsUs)},
		{"failed_ops_pct", "%", 100 * float64(rep.failed) / float64(rep.attempted)},
		{"lost_acked_commits", "count", float64(lost)},
		{"journal_bytes_per_commit", "B", float64(journal) / float64(acked)},
		{"paced_rate", "1/s", float64(w.batch) / pacedTick.Seconds()},
		{"ack_samples", "count", float64(len(ack))},
		{"quiet_windows", "count", float64(quietWins)},
		{"host_steal_pct", "%", 100 * stolen / (pacedWall.Seconds() * float64(runtime.NumCPU()))},
		{"stats_samples", "count", float64(len(obs.statsUs))},
		{"gen_late_p50_us", "us", quantile(genLate, 0.50)},
		{"gen_late_p99_us", "us", quantile(genLate, 0.99)},
		{"fsync_probe_us", "us", fsyncProbe},
	}
	// A generator that is itself late measures itself, not the daemon.
	if lateP50, ackP50 := quantile(genLate, 0.50), quantile(ack, 0.50); lateP50 > ackP50/10 {
		rep.invalid = fmt.Sprintf("the load generator ran %.1fus late at the median, more than a tenth of ack_p50_us (%.1fus)", lateP50, ackP50)
	}
	return rep, nil
}

// A crashed daemon is restarted up to maxRestarts times, each from the
// same on-disk state (it is killed again well inside the first checkpoint
// interval), until restartBudget is spent; recovery_s is the median. A
// cold start of a few milliseconds is repeated, a long replay is not.
const (
	maxRestarts   = 15
	restartBudget = 1500 * time.Millisecond
)

// restart starts the daemon over the data a killed one left in dir, with
// identical flags, and times spawn to first "stats" reply. It returns the
// number of commits the daemon reports to hold, and kills it again.
func restart(ctx context.Context, w wl, bin, dir string) (secs float64, states int, err error) {
	t0 := time.Now()
	d, err := startDaemon(ctx, bin, w.daemonArgs(dir))
	if err != nil {
		return 0, 0, err
	}
	defer d.kill()
	conn, err := net.Dial("tcp", d.addr)
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	if _, err := statsRoundTrip(conn, bufio.NewReader(conn)); err != nil {
		return 0, 0, err
	}
	secs = time.Since(t0).Seconds()
	h, err := d.healthz(ctx)
	return secs, h.States, err
}

// probeFsync is the host fact that decides every durable number: the
// median of 200 small write+fsync pairs in the run's directory, in µs.
func probeFsync(dir string) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var us []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := f.Write(make([]byte, 64)); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us), nil
}
