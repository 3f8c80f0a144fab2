package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/monitor"
	"rtic/internal/obs"
	"rtic/internal/shard"
	"rtic/internal/spec"
	"rtic/internal/storage"
	"rtic/internal/vfs"
	"rtic/internal/wal"
	"rtic/internal/workload"
)

// stack is the daemon's composition of layers, rebuilt in-process: a
// monitor as rticd configures it, journaling through a SetJournal hook
// into the workload's WAL files. Under a tracer the hook, the WAL calls
// and the filesystem are spans.
type stack struct {
	w    wl
	tr   *tracer
	dir  string
	m    *monitor.Monitor
	mm   *obs.Metrics // shared by monitor, engine and journals, as in rticd
	fs   vfs.FS
	tfs  *timedFS // nil when untraced
	logs []*wal.Log
	err  error // first journaling failure
}

func (w wl) walPolicy() wal.SyncPolicy {
	if w.walSync == "batch" {
		return wal.SyncBatch
	}
	return wal.SyncAlways
}

func (w wl) newStack(tr *tracer, h workload.History, dir string) (*stack, error) {
	s := &stack{w: w, tr: tr, dir: dir, mm: obs.NewMetrics(obs.NewRegistry()), fs: vfs.OS}
	if tr != nil {
		s.tfs = &timedFS{FS: vfs.OS, tr: tr}
		s.fs = s.tfs
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m, err := monitor.New(h.Schema, h.Constraints, monitor.WithShards(w.shards))
	if err != nil {
		return nil, err
	}
	m.SetObserver(&obs.Observer{Metrics: s.mm})
	s.m = m
	if w.walSync == "" {
		return s, nil
	}
	if err := s.openLogs(); err != nil {
		return nil, err
	}
	m.SetJournal(func(t uint64, tx *storage.Transaction) {
		id := tr.open("monitor.journal")
		s.journal(t, tx)
		tr.close(id)
	})
	return s, nil
}

func (s *stack) logPath(i int) string {
	if s.w.shards > 1 {
		return filepath.Join(s.dir, fmt.Sprintf("journal.wal.%d", i))
	}
	return filepath.Join(s.dir, "journal.wal")
}

func (s *stack) openLogs() error {
	s.logs = nil
	for i := 0; i < s.w.shards; i++ {
		l, err := wal.Open(s.logPath(i), wal.WithSyncPolicy(s.w.walPolicy()), wal.WithMetrics(s.mm), wal.WithFS(s.fs))
		if err != nil {
			return err
		}
		s.logs = append(s.logs, l)
	}
	return nil
}

func (s *stack) closeLogs() error {
	var first error
	for _, l := range s.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.logs = nil
	return first
}

// journal is the durability work of one commit, as monitor.Durable and
// monitor.ShardedDurable do it: one record per journal, per-shard slices
// when sharded.
func (s *stack) journal(t uint64, tx *storage.Transaction) {
	if rtr := s.m.Router(); rtr != nil {
		for i, part := range rtr.Split(tx) {
			s.appendTx(i, t, part)
		}
		return
	}
	s.appendTx(0, t, tx)
}

func (s *stack) appendTx(i int, t uint64, tx *storage.Transaction) {
	id := s.tr.open("wal.encode")
	payload := wal.EncodeTx(t, tx)
	s.tr.close(id)
	id = s.tr.open("wal.append")
	err := s.logs[i].Append(payload)
	s.tr.close(id)
	if err != nil && s.err == nil {
		s.err = err
	}
}

func (s *stack) journalBytes() int64 {
	var n int64
	for _, l := range s.logs {
		n += l.Size()
	}
	return n
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// layers collects the per-layer metrics of one traced run.
type layers map[string]float64

// traceWorkload is the traced run: in-process, one commit in flight. A
// ladder of compositions — spec, core (or shard), wal over vfs,
// monitor.Apply, monitor.Server — each adding one layer to the one
// below, replays the first commits of the workload's feed. The rungs
// take turns commit by commit, so all of them run in the same state of
// the host and of its caches, and drift cancels out of every difference
// and ratio between them.
func traceWorkload(ctx context.Context, w wl, seed int64, measure time.Duration) (report, error) {
	rep := report{workload: w.name}
	n := int(float64(w.traceN) * measure.Seconds())
	f := w.makeFeed(seed, n)
	h, fn := f.h, float64(n)
	dir, err := os.MkdirTemp(buildDir, "trace-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)
	lm := layers{}

	// Counts come first, from tight loops of their own: reading the
	// allocator's counters stops the world, which has no place between
	// timed calls.
	lineBytes := 0
	m0 := mallocs()
	for i, line := range f.lines {
		if _, _, ok, err := spec.ParseLogLine(line); err != nil || !ok {
			return rep, fmt.Errorf("feed line %d does not parse: %q: %v", i, line, err)
		}
		lineBytes += len(line)
	}
	lm["spec.parse_allocs_per_commit"] = float64(mallocs()-m0) / fn
	lm["spec.line_bytes_per_commit"] = float64(lineBytes) / fn
	if err := coreCounts(h, lm); err != nil {
		return rep, err
	}

	// One stack per rung.
	tr := &tracer{epoch: time.Now()}
	observed, bare := core.New(h.Schema), core.New(h.Schema)
	observed.SetObserver(&obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())})
	for _, c := range []*core.Checker{observed, bare} {
		if err := install(c, h); err != nil {
			return rep, err
		}
	}
	var rtr *shard.Router
	if w.shards > 1 {
		if rtr, err = w.timedRouter(tr, h, lm); err != nil {
			return rep, err
		}
	}
	var journal *stack
	if w.walSync != "" {
		if journal, err = w.newStack(tr, h, filepath.Join(dir, "wal")); err != nil {
			return rep, err
		}
	}
	apply, err := w.newStack(tr, h, filepath.Join(dir, "apply"))
	if err != nil {
		return rep, err
	}
	traced, err := w.serve(tr, h, filepath.Join(dir, "server"))
	if err != nil {
		return rep, err
	}
	defer traced.close()
	untraced, err := w.serve(nil, h, filepath.Join(dir, "server-untraced"))
	if err != nil {
		return rep, err
	}
	defer untraced.close()
	// "lint" on a monitor without findings answers "ok 0", the reply of a
	// clean commit, and does nothing below the server.
	if len(traced.s.m.Diagnostics()) != 0 {
		return rep, fmt.Errorf("the workload's spec has lint findings; the no-op request needs a clean one")
	}

	// The rungs, each a function of the commit it replays.
	bareUs, plainUs := make([]float64, n), make([]float64, n)
	rungs := []func(i int, st workload.Step) error{
		func(i int, st workload.Step) error {
			return tr.span("spec", i, "spec.parse", func() error {
				_, _, _, err := spec.ParseLogLine(f.lines[i])
				return err
			})
		},
		func(i int, st workload.Step) error {
			return tr.span("core", i, "core.step", func() error {
				_, err := observed.Step(st.Time, st.Tx)
				return err
			})
		},
		func(i int, st workload.Step) error {
			t0 := time.Now()
			_, err := bare.Step(st.Time, st.Tx)
			bareUs[i] = float64(time.Since(t0)) / 1e3
			return err
		},
		func(i int, st workload.Step) error {
			err := tr.span("apply", i, "monitor.apply", func() error {
				_, err := apply.m.Apply(st.Time, st.Tx)
				return err
			})
			if err == nil && w.checkpoint && i == n*2/3 {
				err = apply.checkpoint(lm)
			}
			return err
		},
		func(i int, st workload.Step) error {
			return tr.span("server", i, "client.roundtrip", func() error { return traced.roundTrip(f.lines[i]) })
		},
		func(i int, st workload.Step) error {
			t0 := time.Now()
			err := untraced.roundTrip(f.lines[i])
			plainUs[i] = float64(time.Since(t0)) / 1e3
			return err
		},
		func(i int, st workload.Step) error {
			if i%4 != 0 {
				return nil
			}
			return tr.span("server-noop", i/4, "client.noop", func() error { return traced.roundTrip("lint\n") })
		},
	}
	if rtr != nil {
		rungs = append(rungs, func(i int, st workload.Step) error {
			err := tr.span("shard", i, "shard.step", func() error {
				_, err := rtr.Step(st.Time, st.Tx)
				return err
			})
			id := tr.open("shard.split")
			rtr.Split(st.Tx)
			tr.close(id)
			return err
		})
	}
	if journal != nil {
		rungs = append(rungs, func(i int, st workload.Step) error {
			tr.at("wal", i)
			journal.journal(st.Time, st.Tx)
			return nil
		})
	}
	// Every rung sees commit i before any sees commit i+1. The order
	// within a commit rotates and reverses from commit to commit, so no
	// rung always runs on the caches another one has just warmed.
	for i, st := range h.Steps {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		for k := range rungs {
			r := (i + k) % len(rungs)
			if i/len(rungs)%2 == 1 {
				r = (i + len(rungs) - k) % len(rungs)
			}
			if err := rungs[r](i, st); err != nil {
				return rep, fmt.Errorf("commit %d: %w", i, err)
			}
		}
	}
	for _, s := range []*stack{journal, apply, traced.s} {
		if s != nil && s.err != nil {
			return rep, s.err
		}
	}

	// spec and core.
	parse := tr.mean("spec", "spec.parse", n)
	steps := tr.perCommit("core", "core.step", n)
	engineMean := windowMean(steps)
	lm["spec.parse_us"] = parse
	lm["obs.overhead_ratio"] = engineMean / windowMean(bareUs)
	sort.Float64s(steps)
	lm["core.step_p50_us"] = quantile(steps, 0.50)
	lm["core.step_p99_us"] = quantile(steps, 0.99)
	if rtr != nil {
		lm["shard.overhead_ratio"] = tr.mean("shard", "shard.step", n) / engineMean
		engineMean = tr.mean("shard", "shard.step", n)
		lm["shard.step_us"] = engineMean
		lm["shard.split_us"] = tr.mean("shard", "shard.split", n)
	}

	// wal over vfs, and reading the journal back.
	if journal != nil {
		lm["wal.encode_us"] = tr.mean("wal", "wal.encode", n)
		if w.walPolicy() == wal.SyncAlways {
			lm["wal.append_sync_us"] = tr.mean("wal", "wal.append", n)
		} else {
			lm["wal.append_us"] = tr.mean("wal", "wal.append", n)
		}
		lm["wal.bytes_per_commit"] = float64(journal.journalBytes()) / fn
		lm["wal.bytes_per_user_byte"] = float64(journal.journalBytes()) / float64(lineBytes)
		lm["vfs.sync_us"] = tr.mean("wal", "vfs.sync", n)
		lm["vfs.sync_count_per_commit"] = float64(journal.tfs.syncs.Load()) / fn
		lm["vfs.write_count_per_commit"] = float64(journal.tfs.writes.Load()) / fn
		lm["vfs.write_bytes_per_commit"] = float64(journal.tfs.writeBytes.Load()) / fn
		if err := journal.closeLogs(); err != nil {
			return rep, err
		}
		if lm["wal.replay_us_per_record"], err = journal.replayJournals(); err != nil {
			return rep, err
		}
	}

	// monitor: Apply's own share, an operator's reads, recovery.
	lm["monitor.apply_self_us"] = tr.mean("apply", "monitor.apply", n) - engineMean - tr.mean("apply", "monitor.journal", n)
	if err := apply.reads(lm); err != nil {
		return rep, err
	}
	if journal != nil {
		if err := apply.recover(h, lm); err != nil {
			return rep, err
		}
	}

	// The top rung. The round trip, the time inside the server, its reply
	// writes and the journal are measured directly there; what is left of
	// the round trip is the loopback transport. Inside the server, the
	// layers measured on their own rungs must add up to the time measured
	// there: the reconcile ratio is that sum over the round trip.
	rtt := tr.perCommit("server", "client.roundtrip", n)
	roundTrip := windowMean(rtt)
	write := tr.mean("server", "server.write", n)
	transport := roundTrip - tr.mean("server", "server.handle", n) - write
	vfsSelf := tr.mean("server", "vfs.write", n) + tr.mean("server", "vfs.sync", n)
	serverSelf := tr.mean("server-noop", "server.handle", (n+3)/4) + write
	lm["monitor.reply_bytes_per_commit"] = float64(traced.l.bytes.Load()) / fn
	lm["monitor.reply_flushes_per_commit"] = float64(traced.l.writes.Load()) / fn
	lm["monitor.server_self_us"] = serverSelf
	lm["trace.transport_us"] = transport
	lm["trace.roundtrip_us"] = roundTrip
	lm["trace.roundtrip_p99_us"] = quantile(sortedCopy(rtt), 0.99)
	lm["trace.spec_share"] = parse / roundTrip
	lm["trace.core_share"] = engineMean / roundTrip
	lm["trace.wal_share"] = (tr.mean("server", "monitor.journal", n) - vfsSelf) / roundTrip
	lm["trace.vfs_share"] = vfsSelf / roundTrip
	lm["trace.monitor_share"] = (lm["monitor.apply_self_us"] + serverSelf) / roundTrip
	lm["trace.transport_share"] = transport / roundTrip
	lm["trace.reconcile_ratio"] = lm["trace.spec_share"] + lm["trace.core_share"] + lm["trace.wal_share"] +
		lm["trace.vfs_share"] + lm["trace.monitor_share"] + lm["trace.transport_share"]
	lm["trace.overhead_ratio"] = roundTrip / windowMean(plainUs)

	if err := tr.writeFile(filepath.Join("benchmark", "out", "trace-"+w.name+".json")); err != nil {
		return rep, err
	}
	rep.attempted = n
	for _, def := range layerMetrics {
		rep.metrics = append(rep.metrics, metric{def.name, def.unit, lm[def.name]})
	}
	return rep, nil
}

// coreCounts replays the feed through an instrumented core.Checker for
// everything that is counted and not timed: allocations, the strategy
// the delta-driven check path chose per constraint and commit, the size
// of the auxiliary encoding — plus the two one-off timings, compiling the
// policies and saving a snapshot.
func coreCounts(h workload.History, lm layers) error {
	c := core.New(h.Schema)
	c.SetObserver(&obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())})
	t0 := time.Now()
	if err := install(c, h); err != nil {
		return err
	}
	lm["plan.compile_ms"] = float64(time.Since(t0)) / 1e6

	actions := map[core.SkipAction]int{}
	m0 := mallocs()
	for i, st := range h.Steps {
		if _, err := c.Step(st.Time, st.Tx); err != nil {
			return fmt.Errorf("core step %d: %w", i, err)
		}
		for _, si := range c.LastSkips() {
			actions[si.Action]++
		}
	}
	n := float64(len(h.Steps))
	lm["core.allocs_per_commit"] = float64(mallocs()-m0) / n
	decisions := n * float64(len(h.Constraints))
	lm["core.skip_share"] = float64(actions[core.ActionSkipped]) / decisions
	lm["core.seed_share"] = float64(actions[core.ActionSeeded]) / decisions
	lm["core.plan_share"] = float64(actions[core.ActionPlanned]) / decisions
	lm["core.treewalk_share"] = float64(actions[core.ActionTreeWalk]) / decisions
	st := c.Stats()
	lm["core.aux_entries"] = float64(st.Entries)
	lm["core.aux_bytes"] = float64(st.Bytes)

	var size countingWriter
	t0 = time.Now()
	if err := c.SaveSnapshot(&size); err != nil {
		return err
	}
	lm["core.snapshot_ms"] = float64(time.Since(t0)) / 1e6
	lm["core.snapshot_bytes"] = float64(size)
	return nil
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// timedRouter builds the shard rung: a router as shard.NewMode builds it,
// but over engines that time themselves. The routing counts are taken
// here, before any commit.
func (w wl) timedRouter(tr *tracer, h workload.History, lm layers) (*shard.Router, error) {
	rtr, err := shard.New(h.Schema, w.shards, func() engine.Engine {
		return timedEngine{core.New(h.Schema, core.WithParallelism(1)), tr}
	})
	if err != nil {
		return nil, err
	}
	rtr.SetObserver(&obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())})
	if err := install(rtr, h); err != nil {
		return nil, err
	}
	perShard := make([]float64, w.shards)
	total, most := 0.0, 0.0
	for _, st := range h.Steps {
		for _, op := range st.Tx.Ops() {
			perShard[rtr.ShardFor(op.Rel, op.Tuple)]++
			total++
		}
	}
	for _, ops := range perShard {
		most = max(most, ops)
	}
	lm["shard.route_skew"] = most / (total / float64(w.shards))
	for _, cp := range rtr.Plan().Cons {
		if !cp.Partitioned {
			lm["shard.global_constraints"]++
		}
	}
	return rtr, nil
}

// replayJournals reopens the stack's closed journals and times Replay
// with DecodeTx, in µs per record.
func (s *stack) replayJournals() (float64, error) {
	records := 0
	t0 := time.Now()
	for i := 0; i < s.w.shards; i++ {
		l, err := wal.Open(s.logPath(i))
		if err != nil {
			return 0, err
		}
		n, err := l.Replay(func(payload []byte) error {
			_, _, err := wal.DecodeTx(payload)
			return err
		})
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		records += n
	}
	return float64(time.Since(t0)) / 1e3 / float64(records), nil
}

func (s *stack) snapPath() string { return filepath.Join(s.dir, "state.snap") }

// checkpoint is what rticd's background checkpointer does every 2s:
// rotate a snapshot in, reset the journal.
func (s *stack) checkpoint(lm layers) error {
	dur, err := monitor.NewDurable(s.m, s.logs[0], s.snapPath(), monitor.WithDurableFS(s.fs))
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := dur.Checkpoint(); err != nil {
		return err
	}
	s.tr.leaf("monitor.checkpoint", t0)
	lm["monitor.checkpoint_ms"] = float64(time.Since(t0)) / 1e6
	info, err := os.Stat(s.snapPath())
	if err != nil {
		return err
	}
	lm["monitor.checkpoint_bytes"] = float64(info.Size())
	return nil
}

// reads times what an operator's requests cost the monitor.
func (s *stack) reads(lm layers) error {
	const reads = 200
	t0 := time.Now()
	for i := 0; i < reads; i++ {
		s.m.Stats()
	}
	lm["monitor.stats_us"] = float64(time.Since(t0)) / 1e3 / reads
	t0 = time.Now()
	for i := 0; i < reads/10; i++ {
		if err := s.mm.Registry().WritePrometheus(io.Discard); err != nil {
			return err
		}
	}
	lm["obs.expose_ms"] = float64(time.Since(t0)) / 1e6 / (reads / 10)
	return nil
}

// recover is the daemon's start-up over the journals the stack wrote:
// restore the checkpoint if the workload keeps one, then replay.
func (s *stack) recover(h workload.History, lm layers) error {
	if err := s.closeLogs(); err != nil {
		return err
	}
	s.tr.at("recover", 0)
	var m *monitor.Monitor
	var err error
	if s.w.checkpoint {
		f, oerr := os.Open(s.snapPath())
		if oerr != nil {
			return oerr
		}
		m, err = monitor.Restore(h.Schema, f)
		f.Close()
	} else {
		m, err = monitor.New(h.Schema, h.Constraints, monitor.WithShards(s.w.shards))
	}
	if err != nil {
		return err
	}
	if err := s.openLogs(); err != nil {
		return err
	}
	var replay func() (int, error)
	if s.w.shards > 1 {
		sd, err := monitor.NewShardedDurable(m, s.logs)
		if err != nil {
			return err
		}
		replay = sd.Recover
	} else {
		d, err := monitor.NewDurable(m, s.logs[0], s.snapPath())
		if err != nil {
			return err
		}
		replay = d.Recover
	}
	id := s.tr.open("monitor.recover")
	t0 := time.Now()
	records, err := replay()
	took := time.Since(t0)
	s.tr.close(id)
	if err != nil {
		return err
	}
	if m.Len() != len(h.Steps) {
		return fmt.Errorf("recovered %d of %d commits", m.Len(), len(h.Steps))
	}
	lm["monitor.recover_records"] = float64(records)
	lm["monitor.recover_us_per_commit"] = float64(took) / 1e3 / float64(records)
	return s.closeLogs()
}

// served is a stack behind monitor.Server on an in-process loopback
// listener, with one client connection to it.
type served struct {
	s      *stack
	l      *tracedListener
	srv    *monitor.Server
	conn   net.Conn
	r      *bufio.Reader
	closed chan struct{} // Serve returned
}

func (w wl) serve(tr *tracer, h workload.History, dir string) (*served, error) {
	s, err := w.newStack(tr, h, dir)
	if err != nil {
		return nil, err
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	v := &served{s: s, l: &tracedListener{Listener: inner, tr: tr}, srv: monitor.NewServer(s.m), closed: make(chan struct{})}
	var l net.Listener = v.l
	if tr == nil {
		l = inner
	}
	go func() {
		_ = v.srv.Serve(l) // returns when close shuts the listener
		close(v.closed)
	}()
	if v.conn, err = net.Dial("tcp", inner.Addr().String()); err != nil {
		v.close()
		return nil, err
	}
	v.r = bufio.NewReader(v.conn)
	return v, nil
}

func (v *served) close() {
	if v.conn != nil {
		_ = v.conn.Close() // nothing more is read from it
	}
	_ = v.l.Close() // stops Serve
	v.srv.Close()
	<-v.closed
	_ = v.s.closeLogs() // a journaling failure was already reported through s.err
}

// roundTrip sends one request line and reads replies up to the closing
// "ok N"; an "error" reply is a failure.
func (v *served) roundTrip(line string) error {
	if _, err := io.WriteString(v.conn, line); err != nil {
		return err
	}
	for {
		reply, err := v.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		switch kind, _, err := parseReply(reply); {
		case err != nil:
			return err
		case kind == replyError:
			return fmt.Errorf("daemon replied %q", bytes.TrimSpace(reply))
		case kind == replyOK:
			return nil
		}
	}
}
