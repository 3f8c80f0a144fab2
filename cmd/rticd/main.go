// Command rticd runs a network integrity monitor: one shared
// incremental checker, fed transactions over a TCP line protocol.
//
// -listen and -metrics take an IP literal with a port: 127.0.0.1:7411,
// [::1]:7411, or :7411 for every interface (IPv4 and IPv6); port 0
// picks a free one, and the startup lines print the port bound. There
// is no resolver, so a host name such as localhost:7411 is refused at
// startup. On Linux the daemon opens its sockets with system calls and
// links no package net: its build is static and maps no C library.
//
// Usage:
//
//	rticd -spec constraints.rtic [-listen 127.0.0.1:7411] [-shards N]
//	      [-wal state.wal] [-wal-sync always|batch]
//	      [-snapshot state.snap (default <wal>.ckpt)]
//	      [-checkpoint-interval 30s]
//	      [-on-durability-failure degrade|halt]
//	      [-max-conns N] [-idle-timeout 5m]
//	      [-metrics 127.0.0.1:9411] [-trace]
//	      [-pprof] [-slow-commit 5ms] [-trace-out trace.json]
//
// Protocol (one line per transaction, shared global clock):
//
//	-> @100 -fire(7) +hire(7)
//	<- violation no_quick_rehire violated at state 1 (time 100) by e=7
//	<- ok 1
//	-> stats
//	<- stats nodes=1 entries=1 timestamps=1 bytes=93
//	-> metrics
//	<- ... Prometheus text exposition ...
//	<- # EOF
//	-> quit
//
// With -snapshot the monitor checkpoints its (small, bounded) state to
// the given file on shutdown — atomically (tmp + fsync + rename), so a
// crash mid-checkpoint never destroys the previous good checkpoint —
// and, with -checkpoint-interval, periodically in the background. A
// daemon starts from its checkpoint whenever the file exists, and from
// an empty history otherwise, so a restart with the same flags keeps
// every window's past. Shutdown triggers on SIGINT or SIGTERM, so the
// checkpoint is also written under container/systemd stops.
//
// With -wal every committed transaction is journaled to a checksummed
// write-ahead log before the next commit is accepted (-wal-sync selects
// per-commit fsync or batched flushing), and startup recovers crash
// state automatically: load the newest valid checkpoint, replay the
// journal tail (tolerating a torn final record), continue. Periodic
// checkpoints truncate the replayed journal prefix. -wal without
// -snapshot checkpoints to <wal>.ckpt, exactly as if -snapshot
// <wal>.ckpt had been given. See docs/DURABILITY.md for the format and
// recovery semantics.
//
// -on-durability-failure selects what happens when journaling fails at
// runtime (disk full, I/O error, failed fsync). The default, degrade,
// keeps the daemon checking and acknowledging commits — as non-durable,
// and unjournaled — while /healthz reports "degraded",
// rtic_durability_degraded flips to 1, and the durability worker
// (exponential backoff with jitter) retries one rotation: an atomic
// checkpoint that covers the degraded window, then every journal reset
// in place or, if it latched broken, replaced by a fresh segment. A
// shutdown while degraded is one more such attempt, and fails rather
// than report a checkpoint it could not write. halt shuts the daemon
// down on the first durability failure instead. See docs/DURABILITY.md
// for the failure matrix.
//
// With -shards N the monitor hash-partitions its state across N shard
// engines behind a router (see docs/ARCHITECTURE.md): the shards commit
// one after another and results stay exact. Durability is the same
// manager over N journals: -wal names one WAL per shard at <path>.0 ..
// <path>.N-1, startup recovers the journals' common prefix past the
// checkpoint, and -snapshot and -checkpoint-interval work as unsharded
// — one checkpoint file holds every shard, and a restart must pass the
// -shards it was written with.
//
// With -metrics the daemon serves HTTP/1.1 on the given address, from
// a small responder of its own rather than net/http (internal/httpd):
//
//	GET /metrics  -> Prometheus text exposition (commits, violations by
//	                 constraint, commit-latency histogram, auxiliary
//	                 encoding gauges, connection counters)
//	GET /healthz  -> {"status":"ok","states":N,"now":T,...} with a
//	                 "lint" section summarizing the startup findings
//
// At startup the daemon lints the spec (see docs/LINTING.md): every
// finding is logged, counted in rtic_lint_warnings_total and
// rtic_lint_findings_total{rule=...}, and summarized under /healthz.
// Findings never stop the daemon — the constraints parsed and compiled
// — but an Error-severity finding (contradiction, unsatisfiable
// window) means some constraint cannot behave as written. Clients can
// also retrieve the findings over the line protocol with "lint".
//
// Engine metrics are always collected (the line-protocol "metrics"
// command scrapes them without the HTTP listener); -metrics only
// controls the HTTP endpoint. With -trace every span (each commit's
// monitor.apply tree down to per-node updates and constraint checks,
// WAL appends, snapshot save/restore) is logged as a structured line on
// stderr.
//
// Three commit-path attribution switches (see docs/OBSERVABILITY.md):
// -pprof serves the runtime's profiles under /debug/pprof/ on the
// -metrics listener (block and mutex profiling enabled): a plain-text
// index, profile?seconds=N (CPU, default 30), trace?seconds=N (default
// 1), and goroutine, heap, allocs, block, mutex and threadcreate, each
// with ?debug=N; there is no cmdline or symbol endpoint, as runtime
// profiles carry their symbols; -slow-commit logs the
// span tree of every commit slower than the threshold to stderr — one
// tree per acknowledged commit, rooted at monitor.apply, with the
// engine's commit and the journal's wal.append beneath it;
// -trace-out records every commit's span tree and writes a Chrome
// trace-event file at shutdown, loadable in chrome://tracing or
// Perfetto.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"rtic/internal/httpd"
	"rtic/internal/lint"
	"rtic/internal/monitor"
	"rtic/internal/obs"
	"rtic/internal/shard"
	"rtic/internal/spec"
	"rtic/internal/vfs"
	"rtic/internal/wal"
)

type options struct {
	specPath     string
	listen       string
	shards       int
	snapPath     string
	walPath      string
	walSync      string
	ckptInterval time.Duration
	onDurFailure string
	maxConns     int
	idleTimeout  time.Duration
	metricsAddr  string
	trace        bool
	pprof        bool
	slowCommit   time.Duration
	traceOut     string

	// fsys lets tests inject a fault filesystem under the durability
	// paths (WAL, checkpoints); nil means the real filesystem.
	fsys vfs.FS
}

func main() {
	var opts options
	flag.StringVar(&opts.specPath, "spec", "", "spec file with relations and constraints (required)")
	flag.StringVar(&opts.listen, "listen", "127.0.0.1:7411", "TCP listen address: an IP literal with a port (127.0.0.1:7411, [::1]:7411, :7411 for every interface); no host names")
	flag.IntVar(&opts.shards, "shards", 1,
		"hash-partition state across N shard engines behind a router (1 = unsharded; -wal journals to one file per shard, -snapshot holds all shards and restores only under the same N)")
	flag.StringVar(&opts.snapPath, "snapshot", "", "checkpoint file, restored at startup when present and written atomically on shutdown (and periodically with -checkpoint-interval); default <wal>.ckpt with -wal")
	flag.StringVar(&opts.walPath, "wal", "", "write-ahead log journaling every commit; startup recovers checkpoint + WAL tail automatically")
	flag.StringVar(&opts.walSync, "wal-sync", "always", "WAL sync policy: always (fsync per commit) or batch (fsync every 100ms by the durability worker)")
	flag.DurationVar(&opts.ckptInterval, "checkpoint-interval", 0, "background checkpoint period truncating the WAL (0 = checkpoint only on shutdown)")
	flag.StringVar(&opts.onDurFailure, "on-durability-failure", "degrade",
		"journaling-failure policy: degrade (keep serving non-durably, re-arm in the background) or halt (shut down)")
	flag.IntVar(&opts.maxConns, "max-conns", 0, "cap on concurrently open line-protocol connections (0 = unlimited)")
	flag.DurationVar(&opts.idleTimeout, "idle-timeout", 0, "close line-protocol connections idle for this long (0 = never)")
	flag.StringVar(&opts.metricsAddr, "metrics", "", "HTTP listen address for /metrics and /healthz, an IP literal with a port like -listen (empty: disabled)")
	flag.BoolVar(&opts.trace, "trace", false, "log every span tree (structured, stderr)")
	flag.BoolVar(&opts.pprof, "pprof", false, "serve runtime profiles under /debug/pprof/ on the -metrics listener (enables block and mutex profiling)")
	flag.DurationVar(&opts.slowCommit, "slow-commit", 0, "log the span tree of commits slower than this (0 = disabled)")
	flag.StringVar(&opts.traceOut, "trace-out", "", "record commit span trees and write Chrome trace-event JSON here at shutdown")
	flag.Parse()

	d, err := start(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rticd:", err)
		os.Exit(1)
	}

	// SIGTERM is what containers and systemd send; without it the
	// shutdown snapshot would only be written on Ctrl-C.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("rticd: received %s, shutting down\n", s)
	case err := <-d.done:
		if err != nil {
			fmt.Fprintln(os.Stderr, "rticd:", err)
			os.Exit(1)
		}
	}
	if err := d.shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "rticd:", err)
		os.Exit(1)
	}
}

// daemon holds the running pieces so tests can drive a full lifecycle
// without signals.
type daemon struct {
	opts options
	m    *monitor.Monitor
	srv  *monitor.Server
	dur  *monitor.Durable // nil without a checkpoint path; owns the checkpoint and the journals
	l    listener
	hl   listener // nil without -metrics
	hsrv *metricsServer
	rec  *obs.SpanRecorder // nil without -trace-out
	done chan error
}

// lintSummary condenses the startup findings for /healthz.
func lintSummary(diags []lint.Diagnostic) map[string]any {
	var errs, warns int
	rules := map[string]int{}
	for _, d := range diags {
		switch d.Severity {
		case lint.Error:
			errs++
		case lint.Warning:
			warns++
		}
		rules[d.Rule]++
	}
	s := map[string]any{
		"findings": len(diags),
		"errors":   errs,
		"warnings": warns,
	}
	if len(rules) > 0 {
		s["rules"] = rules
	}
	return s
}

// start loads the spec, builds (or restores) the monitor with its
// observer, and brings up the TCP server plus the optional HTTP
// metrics listener.
func start(opts options) (*daemon, error) {
	if opts.specPath == "" {
		return nil, fmt.Errorf("-spec is required")
	}
	f, err := os.Open(opts.specPath)
	if err != nil {
		return nil, err
	}
	sp, err := spec.ParseSpec(f)
	f.Close()
	if err != nil {
		return nil, err
	}

	// Metrics are always collected — the line protocol's "metrics"
	// command and the snapshot path use them — the HTTP listener is the
	// only optional part.
	o := &obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())}
	o.Metrics.BuildInfo.With(runtime.Version(), buildRev()).Set(1)
	obs.RegisterRuntime(o.Metrics.Registry())

	// Span sinks: structured lines for -trace, an in-memory ring for
	// -trace-out (exported as a Chrome trace at shutdown) and a
	// slow-commit logger. All see one tree per acknowledged commit — the
	// monitor adopts what the engine and the WAL emit under its lock.
	var rec *obs.SpanRecorder
	var sinks []obs.SpanSink
	if opts.trace {
		sinks = append(sinks, obs.NewSlogSink(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{
			Level: slog.LevelDebug,
		}))))
	}
	if opts.traceOut != "" {
		rec = obs.NewSpanRecorder(0)
		sinks = append(sinks, rec)
	}
	if opts.slowCommit > 0 {
		sinks = append(sinks, obs.NewSlowSpanLogger(opts.slowCommit, func(s string) {
			fmt.Fprintln(os.Stderr, s)
		}))
	}
	o.Spans = obs.MultiSpanSink(sinks...)

	if opts.walSync == "" {
		opts.walSync = "always"
	}
	if opts.onDurFailure == "" {
		opts.onDurFailure = "degrade"
	}
	// A journal always has a checkpoint beside it: the rotation that
	// re-arms a failed journal writes one, and shutdown leaves one to
	// restart from.
	if opts.walPath != "" && opts.snapPath == "" {
		opts.snapPath = opts.walPath + ".ckpt"
	}
	fsys := opts.fsys
	if fsys == nil {
		fsys = vfs.OS
	}
	if opts.onDurFailure != "degrade" && opts.onDurFailure != "halt" {
		return nil, fmt.Errorf("monitor: unknown durability failure policy %q (want degrade or halt)", opts.onDurFailure)
	}

	if opts.ckptInterval < 0 {
		return nil, fmt.Errorf("-checkpoint-interval must not be negative, got %v", opts.ckptInterval)
	}
	if opts.ckptInterval > 0 && opts.ckptInterval < time.Millisecond {
		return nil, fmt.Errorf("-checkpoint-interval %v is below the 1ms floor (0 disables periodic checkpoints)", opts.ckptInterval)
	}
	if opts.ckptInterval > 0 && opts.snapPath == "" {
		return nil, fmt.Errorf("-checkpoint-interval requires -snapshot or -wal")
	}
	if opts.maxConns < 0 {
		return nil, fmt.Errorf("-max-conns must not be negative, got %d", opts.maxConns)
	}
	if opts.idleTimeout < 0 {
		return nil, fmt.Errorf("-idle-timeout must not be negative, got %v", opts.idleTimeout)
	}
	if opts.pprof && opts.metricsAddr == "" {
		return nil, fmt.Errorf("-pprof requires -metrics (pprof serves on the metrics listener)")
	}
	// Catch a mistyped durability path at startup instead of failing the
	// first append or checkpoint at runtime.
	for _, p := range []struct{ flag, path string }{{"-wal", opts.walPath}, {"-snapshot", opts.snapPath}} {
		if p.path == "" {
			continue
		}
		dir := filepath.Dir(p.path)
		st, err := fsys.Stat(dir)
		if err != nil {
			return nil, fmt.Errorf("%s %s: parent directory %s does not exist", p.flag, p.path, dir)
		}
		if !st.IsDir() {
			return nil, fmt.Errorf("%s %s: parent %s is not a directory", p.flag, p.path, dir)
		}
	}

	// One start rule: restore the checkpoint when the file exists (the
	// journal tail past it is replayed below), otherwise start from the
	// spec with an empty history.
	var sf vfs.File
	if opts.snapPath != "" {
		if sf, err = fsys.OpenFile(opts.snapPath, os.O_RDONLY, 0); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	var m *monitor.Monitor
	if sf != nil {
		m, err = monitor.RestoreObserved(sp.Schema, sp.Constraints, sf, o, monitor.WithShards(opts.shards))
		sf.Close()
		if err != nil {
			err = fmt.Errorf("restoring %s (-shards %d): %w", opts.snapPath, max(opts.shards, 1), err)
			// The library states the mismatch; the flag that mends it is
			// the daemon's.
			var ce *shard.CountError
			switch {
			case !errors.As(err, &ce):
			case ce.Written == 0:
				err = fmt.Errorf("%w: restart with the -shards it was written with", err)
			default:
				err = fmt.Errorf("%w: restart with -shards %d", err, ce.Written)
			}
			return nil, err
		}
		fmt.Printf("restored checkpoint: %d states, t=%d\n", m.Len(), m.Now())
	} else {
		if m, err = monitor.New(sp.Schema, sp.Constraints, monitor.WithShards(opts.shards)); err != nil {
			return nil, err
		}
		m.SetObserver(o)
	}
	if rtr := m.Router(); rtr != nil {
		global := 0
		for _, cp := range rtr.Plan().Cons {
			if !cp.Partitioned {
				global++
			}
		}
		fmt.Printf("sharding across %d engines (%d of %d constraints on the global shard)\n",
			rtr.Shards(), global, len(sp.Constraints))
	}

	// Log the spec's lint findings and feed the lint counters. The
	// monitor linted the spec once, on either start path; the lint
	// command and /healthz read the same findings.
	diags := m.Diagnostics()
	for _, dg := range diags {
		fmt.Printf("lint: %s\n", dg.String())
		o.Metrics.LintFindings.With(dg.Rule).Inc()
		if dg.Severity >= lint.Warning {
			o.Metrics.LintWarnings.Inc()
		}
	}
	if n := len(diags); n > 0 {
		fmt.Printf("lint: %d finding(s) in %s (run `rtic lint -spec %s` for details)\n",
			n, opts.specPath, opts.specPath)
	}

	// done is created before the durability layer so the halt function
	// can signal the main loop; the send never blocks (capacity 1, and
	// only the first failure matters).
	done := make(chan error, 1)
	durOpts := []monitor.DurableOption{monitor.WithDurableFS(fsys)}
	if opts.onDurFailure == "halt" {
		durOpts = append(durOpts, monitor.WithHaltFunc(func(err error) {
			select {
			case done <- fmt.Errorf("durability failure (-on-durability-failure=halt): %w", err):
			default:
			}
		}))
	}

	// Every checkpoint path (-snapshot, or <wal>.ckpt) gets the manager,
	// which writes every checkpoint: periodic, re-arm and shutdown.
	var dur *monitor.Durable
	if opts.snapPath != "" {
		if dur, err = openDurability(opts, m, o, fsys, durOpts); err != nil {
			return nil, err
		}
	}
	// The manager now holds open journals and runs its durability worker:
	// every later failure releases both.
	fail := func(err error) (*daemon, error) {
		if dur != nil {
			dur.Stop()
			dur.CloseLogs()
		}
		return nil, err
	}

	l, err := listen("-listen", opts.listen)
	if err != nil {
		return fail(err)
	}
	srv := monitor.NewServer(m,
		monitor.WithMaxConns(opts.maxConns), monitor.WithIdleTimeout(opts.idleTimeout))
	d := &daemon{opts: opts, m: m, l: l, srv: srv, dur: dur, rec: rec, done: done}

	if opts.metricsAddr != "" {
		hl, err := listen("-metrics", opts.metricsAddr)
		if err != nil {
			l.Close()
			return fail(err)
		}
		reg := o.Metrics.Registry()
		routes := map[string]httpd.Route{
			// The exposition is appended into the connection's kept body
			// buffer: a scrape on a kept-alive connection allocates nothing.
			"/metrics": func(_ string, body []byte) httpd.Reply {
				return httpd.Reply{Status: 200, Type: "text/plain; version=0.0.4; charset=utf-8", Body: reg.AppendPrometheus(body)}
			},
			"/healthz": func(string, []byte) httpd.Reply {
				states, now := m.Progress()
				resp := map[string]any{
					"status": "ok",
					"states": states,
					"now":    now,
					"lint":   lintSummary(diags),
				}
				if s := m.Shards(); s > 1 {
					resp["shards"] = s
				}
				if d.dur != nil {
					dh := d.dur.Health()
					resp["durability"] = dh
					if dh.Status != "ok" {
						// Orchestrators watch the top-level status: commits
						// still serve, but they are no longer durable.
						resp["status"] = "degraded"
					}
				}
				var b bytes.Buffer
				if err := json.NewEncoder(&b).Encode(resp); err != nil {
					return httpd.Text(500, err.Error())
				}
				return httpd.Reply{Status: 200, Type: "application/json", Body: b.Bytes()}
			},
		}
		if opts.pprof {
			// Block and mutex profiles are empty unless sampling is on;
			// these rates are cheap enough to leave running (one block
			// event per millisecond blocked, 1-in-5 mutex contentions).
			runtime.SetBlockProfileRate(1_000_000)
			runtime.SetMutexProfileFraction(5)
			addPprofRoutes(routes)
			fmt.Printf("rticd pprof on http://%s/debug/pprof/\n", hl.Addr())
		}
		d.hl = hl
		d.hsrv = serveHTTP(hl, routes)
		fmt.Printf("rticd metrics on http://%s/metrics\n", hl.Addr())
	}

	go func() { d.done <- d.srv.Serve(l) }()
	fmt.Printf("rticd listening on %s (%d constraints)\n", l.Addr(), len(sp.Constraints))
	return d, nil
}

// openDurability opens the -wal journals, if any (monitor.JournalPaths:
// the path itself for one shard, <path>.0 .. <path>.N-1 for N, so
// journals written by earlier versions are found), builds the
// durability manager over them and the checkpoint path, replays
// whatever the checkpoint m was restored from does not cover, and
// starts journaling and the durability worker. On failure the
// journals are closed again.
func openDurability(opts options, m *monitor.Monitor, o *obs.Observer, fsys vfs.FS, durOpts []monitor.DurableOption) (dur *monitor.Durable, err error) {
	var logs []*wal.Log
	defer func() {
		if err != nil {
			for _, l := range logs {
				l.Close()
			}
		}
	}()
	if opts.walPath != "" {
		pol, err := wal.ParseSyncPolicy(opts.walSync)
		if err != nil {
			return nil, err
		}
		// The factory also hands the re-arm rotation fresh segments with
		// the same sync policy and instrumentation as the original journals.
		// It runs under the commit lock there, so the monitor's sink is
		// taken once, here.
		spans := m.SpanSink()
		openWAL := func(path string) (*wal.Log, error) {
			return wal.Open(path, wal.WithSyncPolicy(pol), wal.WithMetrics(o.Metrics), wal.WithSpans(spans), wal.WithFS(fsys))
		}
		durOpts = append(durOpts, monitor.WithLogFactory(openWAL))
		for _, path := range monitor.JournalPaths(opts.walPath, m.Shards()) {
			l, err := openWAL(path)
			if err != nil {
				return nil, err
			}
			logs = append(logs, l)
			if off, torn := l.TornTail(); torn {
				fmt.Printf("wal: truncated torn final record at byte %d of %s\n", off, path)
			}
		}
	}
	if dur, err = monitor.NewDurableLogs(m, logs, opts.snapPath, durOpts...); err != nil {
		return nil, err
	}
	n, err := dur.Recover()
	if err != nil {
		return nil, fmt.Errorf("wal recovery: %w", err)
	}
	if n > 0 {
		src := opts.walPath
		if len(logs) > 1 {
			src = fmt.Sprintf("%s.0..%d", opts.walPath, len(logs)-1)
		}
		fmt.Printf("replayed %d transactions from %s (now %d states, t=%d)\n", n, src, m.Len(), m.Now())
	}
	dur.Attach()
	dur.Start(opts.ckptInterval)
	return dur, nil
}

// shutdown stops both listeners, closes open connections, and, with a
// checkpoint path, writes a final checkpoint through the durability
// manager — atomically, so even a crash here cannot destroy the
// previous good checkpoint. While degraded the checkpoint is the last
// re-arm attempt: if it cannot be written, shutdown fails instead of
// discarding the degraded window's commits.
func (d *daemon) shutdown() error {
	d.l.Close()
	d.srv.Close()
	if d.hsrv != nil {
		d.hsrv.close()
	}

	var err error
	if d.dur != nil {
		d.dur.Stop()
		if err = d.dur.Checkpoint(); err == nil {
			fmt.Printf("checkpoint written to %s (%d states)\n", d.opts.snapPath, d.m.Len())
		}
		// Close through the manager: a fresh-segment re-arm may have
		// swapped the live journals since startup.
		if cerr := d.dur.CloseLogs(); err == nil {
			err = cerr
		}
	}
	if d.rec != nil {
		if terr := writeChromeTrace(d.opts.traceOut, d.rec); terr != nil {
			if err == nil {
				err = terr
			}
		} else {
			fmt.Printf("trace written to %s (%d commit spans)\n", d.opts.traceOut, d.rec.Len())
		}
	}
	return err
}

// writeChromeTrace dumps the recorded span trees as a Chrome
// trace-event file.
func writeChromeTrace(path string, rec *obs.SpanRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, rec.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildRev is the VCS revision stamped into the binary by go build, or
// "unknown" under plain `go run` / test binaries.
func buildRev() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
}
