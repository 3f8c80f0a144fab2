package chaos

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"rtic/internal/monitor"
	"rtic/internal/vfs"
	"rtic/internal/wal"
)

// Sweep is one configuration of the crash enumerator. It drives a short
// durable trace — a few commits, a Checkpoint, more commits, a second
// Checkpoint, one last commit — over Journals journals on a vfs.FaultFS,
// once fault-free and, under SyncAlways, once per fault outcome (fail,
// short write, crash) at each op past journal setup. Each run is then
// cut by a power cut at every later op, and each cut takes every disk
// the FaultFS's crash model allows. A run serves all of its cuts: the
// disk at a cut is rebuilt from the run's op log, not by a second run.
// Byte-identical disks are recovered once, held to the strictest
// watermark among the cuts that leave them.
//
// The re-arm backoff is an hour, so a latched journal heals only at the
// trace's own Checkpoint calls and a run's op sequence depends on its
// fault alone.
type Sweep struct {
	Dir      string // scratch directory (required)
	Journals int    // journals, one per shard (default 1)
	// Batch journals under SyncBatch with a flush interval longer than
	// the run; the trace calls Log.Sync at fixed points, and the sweep
	// makes no fault runs.
	Batch bool
	// Faults picks the fault runs (nil: every one). Cuts picks each
	// run's power cuts (nil: every one).
	Faults func(Fault) bool
	Cuts   func(Cut) bool
	// Check recovers one distinct disk, rebuilt as dir/state.snap and
	// dir/state.wal*, from which at least the first durable commits of
	// Trace must come back. nil holds the recovered monitor to the
	// invariant (see checkImage).
	Check func(dir string, durable int) error
}

// Step is one event of a run's trace and the ops it made, First
// through Last (none when Last < First).
type Step struct {
	Kind        string // "setup", "commit", "checkpoint", "sync", or "end" past the last op
	Index       int    // commits: the index in Trace; checkpoints and syncs: their ordinal
	First, Last uint64
}

// Fault is the fault one run injects; AtOp 0 is the fault-free run.
type Fault struct {
	vfs.Injection
	Op   vfs.Op // the class of op AtOp
	Path string // the path op AtOp touches
	In   Step   // the fault-free run's step op AtOp belongs to
}

// Cut is one power cut of a run: op At and every op after it never ran.
type Cut struct {
	Fault Fault
	At    uint64
	In    Step   // the run's step op At belongs to
	Steps []Step // every step of the run
}

// SweepResult counts what a sweep covered.
type SweepResult struct {
	Runs   int // the fault-free run plus one per fault picked
	Cuts   int // (run, power cut) pairs picked
	Images int // distinct disks recovered
	// Longer and Shorter count the distinct disks on which journal 0
	// holds more, or fewer, records than another journal — Recover's
	// two arms (default Check only).
	Longer, Shorter int
}

// segment is the commits between two checkpoints of the sweep's trace.
const segment = 3 - raceShorter

// sweepTrace is the sweep's commits.
func sweepTrace() []step { return hrTrace(2*segment + 1) }

// Trace returns the sweep's commits as rticd protocol lines.
func Trace() []string {
	var lines []string
	for _, st := range sweepTrace() {
		lines = append(lines, fmt.Sprintf("@%d %s", st.t, st.tx))
	}
	return lines
}

// sweepRun is one run of the trace and what a cut needs from it.
type sweepRun struct {
	dir   string
	ffs   *vfs.FaultFS
	ops   uint64 // ops the trace made
	steps []Step
	marks []mark
}

// mark records that once ops had run, the first durable commits of the
// trace had to survive a power cut.
type mark struct {
	ops     uint64
	durable int
}

// durable is the watermark a cut before op j is held to.
func (r *sweepRun) durable(j uint64) int {
	n := 0
	for _, m := range r.marks {
		if m.ops < j && m.durable > n {
			n = m.durable
		}
	}
	return n
}

// stepOf names the step op j belongs to.
func stepOf(steps []Step, j uint64) Step {
	for _, st := range steps {
		if st.First <= j && j <= st.Last {
			return st
		}
	}
	return Step{Kind: "end"}
}

// run drives the trace once under plan in dir. It fails if a commit is
// rejected or Health reads degraded before an injection fired.
func (s *Sweep) run(dir string, plan ...vfs.Injection) (*sweepRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ffs := vfs.NewFaultFS(noSync{vfs.OS}, plan...)
	r := &sweepRun{dir: dir, ffs: ffs}
	opts := []wal.Option{wal.WithFS(ffs)}
	if s.Batch {
		opts = append(opts, wal.WithSyncPolicy(wal.SyncBatch), wal.WithBatchInterval(time.Hour))
	}
	logs, err := openJournals(dir, s.Journals, opts...)
	if err != nil {
		return nil, err
	}
	r.steps = append(r.steps, Step{Kind: "setup", First: 1, Last: ffs.OpCount()})
	m, err := newMonitor(hrSchema(), hrConstraints(), s.Journals)
	if err != nil {
		return nil, err
	}
	d, err := monitor.NewDurableLogs(m, logs, filepath.Join(dir, "state.snap"), monitor.WithDurableFS(ffs),
		monitor.WithRearmBackoff(time.Hour, time.Hour),
		monitor.WithLogFactory(func(p string) (*wal.Log, error) { return wal.Open(p, opts...) }))
	if err != nil {
		return nil, err
	}
	d.Attach()
	defer func() {
		d.Stop()
		// The run is over: closing only stops batch flushers and frees
		// handles.
		d.CloseLogs()
	}()

	trace, commits, syncs, ckpts := sweepTrace(), 0, 0, 0
	// do runs one step; only a rejected commit fails the run, a failed
	// Sync or Checkpoint is a fault the run goes on through.
	do := func(kind string, index int, f func() error) error {
		first := ffs.OpCount() + 1
		err := f()
		if kind == "commit" && err != nil {
			return err
		}
		st := Step{Kind: kind, Index: index, First: first, Last: ffs.OpCount()}
		r.steps = append(r.steps, st)
		h := d.Health()
		if h.Status != "ok" && len(ffs.Fired()) == 0 {
			return fmt.Errorf("%s %d: Health reads %s with no injection fired: %s", kind, index, h.Status, h.LastError)
		}
		// Under SyncAlways a commit is durable once acknowledged while
		// Health reads ok; under SyncBatch once a Sync or a rotation
		// covering it completed.
		if ok := h.Status == "ok"; !s.Batch && ok || s.Batch && err == nil && kind != "commit" {
			r.marks = append(r.marks, mark{ops: st.Last, durable: commits})
		}
		return nil
	}
	commit := func() error {
		st := trace[commits]
		return do("commit", commits, func() error {
			commits++
			if _, err := m.Apply(st.t, st.tx); err != nil {
				return fmt.Errorf("commit at t=%d rejected: %w", st.t, err)
			}
			return nil
		})
	}
	for seg := 0; seg < 3; seg++ {
		n := segment
		if seg == 2 {
			n = 1
		}
		for i := 0; i < n; i++ {
			if err := commit(); err != nil {
				return nil, err
			}
			if i == 0 && s.Batch && seg < 2 {
				if err := do("sync", syncs, func() error {
					syncs++
					var first error
					for _, l := range logs {
						if err := l.Sync(); err != nil && first == nil {
							first = err
						}
					}
					return first
				}); err != nil {
					return nil, err
				}
			}
		}
		if seg < 2 {
			if err := do("checkpoint", ckpts, func() error { ckpts++; return d.Checkpoint() }); err != nil {
				return nil, err
			}
		}
	}
	r.ops = ffs.OpCount()
	return r, nil
}

// image is one distinct disk and the strictest watermark of the cuts
// that leave it.
type image struct {
	vfs.Image
	durable int
	cut     Cut
}

// Run enumerates the sweep and checks every distinct disk.
func (s Sweep) Run() (SweepResult, error) {
	var res SweepResult
	if s.Dir == "" {
		return res, errors.New("chaos: Sweep.Dir is required")
	}
	if s.Journals < 1 {
		s.Journals = 1
	}
	check := s.Check
	if check == nil {
		check = func(dir string, durable int) error { return s.checkImage(dir, durable, &res) }
	}
	var order []*image
	seen := map[string]*image{}
	cut := func(r *sweepRun, f Fault, from uint64) {
		for j := from; j <= r.ops+1; j++ {
			c := Cut{Fault: f, At: j, In: stepOf(r.steps, j), Steps: r.steps}
			if s.Cuts != nil && !s.Cuts(c) {
				continue
			}
			res.Cuts++
			durable := r.durable(j)
			for _, im := range r.ffs.Images(r.dir, j) {
				k := im.Key()
				if e := seen[k]; e != nil {
					if durable > e.durable {
						e.durable, e.cut = durable, c
					}
					continue
				}
				e := &image{Image: im, durable: durable, cut: c}
				seen[k] = e
				order = append(order, e)
			}
		}
		os.RemoveAll(r.dir) // the disks to check are in memory
	}

	base, err := s.run(filepath.Join(s.Dir, "run-0"))
	if err != nil {
		return res, fmt.Errorf("fault-free run: %w", err)
	}
	res.Runs++
	setup := base.steps[0].Last
	cut(base, Fault{}, setup+1)
	if !s.Batch {
		for i := setup + 1; i <= base.ops; i++ {
			op, path := base.ffs.OpAt(i)
			kinds := []vfs.Kind{vfs.EIO, vfs.Crash}
			if op == vfs.OpWrite {
				kinds = append(kinds, vfs.ShortWrite)
			}
			for _, k := range kinds {
				f := Fault{Injection: vfs.Injection{AtOp: i, Kind: k}, Op: op, Path: path, In: stepOf(base.steps, i)}
				if s.Faults != nil && !s.Faults(f) {
					continue
				}
				r, err := s.run(filepath.Join(s.Dir, fmt.Sprintf("run-%d", res.Runs)), f.Injection)
				if err != nil {
					return res, fmt.Errorf("%s at op %d (%s %s): %w", k, i, op, filepath.Base(path), err)
				}
				res.Runs++
				cut(r, f, i+1)
			}
		}
	}

	for i, e := range order {
		dir := filepath.Join(s.Dir, fmt.Sprintf("image-%d", i))
		if err := e.Write(dir); err != nil {
			return res, err
		}
		if err := check(dir, e.durable); err != nil {
			return res, fmt.Errorf("%s: %w", describe(e.cut), err)
		}
		res.Images++
		os.RemoveAll(dir)
	}
	return res, nil
}

// describe names the case behind a disk for a failure report.
func describe(c Cut) string {
	s := fmt.Sprintf("power cut at op %d (%s %d)", c.At, c.In.Kind, c.In.Index)
	if f := c.Fault; f.AtOp != 0 {
		s = fmt.Sprintf("%s at op %d (%s %s, %s %d), then %s", f.Kind, f.AtOp, f.Op, filepath.Base(f.Path), f.In.Kind, f.In.Index, s)
	}
	return s
}

// checkImage recovers the disk in dir the way Run does and holds it to
// the invariant: at least the first durable commits are back, the state
// equals a reference fed the recovered trace prefix (nothing
// half-applied), a probe commit raises the same violations, and the
// monitor finishes the trace with journaling on — after which a second
// recovery reaches the whole trace, so the journals were left aligned.
func (s *Sweep) checkImage(dir string, durable int, res *SweepResult) error {
	sch, cons, trace := hrSchema(), hrConstraints(), sweepTrace()
	m, d, logs, err := openDir(sch, cons, dir, s.Journals, wal.WithFS(noSync{vfs.OS}))
	if err != nil {
		return err
	}
	defer func() { closeAll(logs) }()
	longer, shorter := false, false
	for _, l := range logs[1:] {
		longer = longer || logs[0].Records() > l.Records()
		shorter = shorter || logs[0].Records() < l.Records()
	}
	if longer {
		res.Longer++
	}
	if shorter {
		res.Shorter++
	}
	if _, err := d.Recover(); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	k := m.Len()
	if k < durable {
		return fmt.Errorf("DURABILITY LOSS: recovered %d commits, %d were durable", k, durable)
	}
	if k > len(trace) {
		return fmt.Errorf("recovered %d states from a trace of %d commits", k, len(trace))
	}
	ref, err := reference(sch, cons, s.Journals, trace[:k])
	if err != nil {
		return err
	}
	if err := sameState(m, ref); err != nil {
		return err
	}
	d.Attach()
	if err := sameStep(m, ref, step{t: m.Now() + 1, tx: probeTx()}); err != nil {
		return err
	}
	for _, st := range trace[k:] {
		if err := sameStep(m, ref, st); err != nil {
			return err
		}
	}
	if h := d.Health(); h.Status != "ok" {
		return fmt.Errorf("journaling after recovery: %s", h.LastError)
	}
	closeAll(logs)
	logs = nil
	m2, d2, logs2, err := openDir(sch, cons, dir, s.Journals, wal.WithFS(noSync{vfs.OS}))
	if err != nil {
		return fmt.Errorf("second recovery: %w", err)
	}
	defer closeAll(logs2)
	if _, err := d2.Recover(); err != nil {
		return fmt.Errorf("second recovery: %w", err)
	}
	if err := sameState(m2, ref); err != nil {
		return fmt.Errorf("second recovery: %w", err)
	}
	return nil
}

// noSync is the real filesystem with every fsync a no-op. The sweep's
// disks come from the crash model's op log, never from what the kernel
// flushed, so a real fsync would only cost time; the FaultFS above it
// still counts and records each one.
type noSync struct{ vfs.FS }

func (n noSync) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := n.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ vfs.File }

func (noSyncFile) Sync() error { return nil }
