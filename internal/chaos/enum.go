package chaos

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"rtic/internal/monitor"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/vfs"
	"rtic/internal/wal"
	"rtic/internal/workload"
)

// Sweep is one configuration of the crash enumerator. It drives a short
// durable trace — a segment of commits, a Checkpoint, a second segment,
// a second Checkpoint, the last commits — over Journals journals on a
// vfs.FaultFS, once fault-free and, under SyncAlways, once per fault
// outcome (fail, and a short write on writes) at each op past journal
// setup. A first fault that latches a journal turns the next
// Checkpoint into a re-arm rotation; behind the last such fault before
// each rotation, per journal, the sweep makes one more run per outcome
// at each op of that rotation; Run fails if two first faults that
// latch the same journal before the same rotation are followed by
// different rotation ops, for then one no longer stands for the other.
// Each run is then cut by a power cut at
// every later op, and each cut takes every disk the FaultFS's crash
// model allows. A run serves all of its cuts: the disk at a cut is
// rebuilt from the run's op log, not by a second run — a crash is a
// cut, so Crash is no fault outcome. Byte-identical disks are recovered
// once, held to the strictest watermark among the cuts that leave them.
//
// The manager's worker never starts, so a latched journal heals only at
// the trace's own Checkpoint calls and a run's op sequence depends on
// its faults alone.
type Sweep struct {
	Dir      string // scratch directory (required)
	Journals int    // journals, one per shard (default 1)
	// History is the trace the runs drive, at least three commits (nil:
	// the hire/fire commits of Trace). Its first two segments are
	// (len-1)/2 commits each.
	History *workload.History
	// Batch journals under SyncBatch; the trace calls Durable.Sync, the
	// worker's step, after each segment's first commit, and the sweep
	// makes no fault runs.
	Batch bool
	// Faults picks the fault runs, first and second faults alike (nil:
	// every one); a second fault follows only a picked first fault.
	// Cuts picks each run's power cuts (nil: every one).
	Faults func(Fault) bool
	Cuts   func(Cut) bool
	// Check recovers one distinct disk, rebuilt as dir/state.snap and
	// dir/state.wal*, from which at least the first durable commits of
	// the trace must come back. nil holds the recovered monitor to the
	// invariant (see checkImage).
	Check func(dir string, durable int) error
}

// Step is one event of a run's trace and the ops it made, First
// through Last (none when Last < First).
type Step struct {
	Kind        string // "setup", "commit", "checkpoint", "sync", or "end" past the last op
	Index       int    // commits: the index in the trace; checkpoints and syncs: their ordinal
	First, Last uint64
}

// Fault is the fault one run injects; AtOp 0 is the fault-free run. A
// second fault's run injects the first fault it follows, then itself.
type Fault struct {
	vfs.Injection
	Op    vfs.Op // the class of op AtOp
	Path  string // the path op AtOp touches
	In    Step   // the step op AtOp belongs to in the run without this fault
	After *Fault // the first fault a second fault follows; nil for a first fault
}

// String names the fault, and the first fault it follows.
func (f Fault) String() string {
	s := fmt.Sprintf("%s at op %d (%s %s, %s %d)", f.Kind, f.AtOp, f.Op, filepath.Base(f.Path), f.In.Kind, f.In.Index)
	if f.After != nil {
		s = f.After.String() + ", then " + s
	}
	return s
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
	Second int // runs of those with a second fault
	Cuts   int // (run, power cut) pairs picked
	Images int // distinct disks recovered
	// Longer and Shorter count the distinct disks on which journal 0
	// holds more, or fewer, records than another journal — Recover's
	// two arms (default Check only).
	Longer, Shorter int
}

// segment is the commits between two checkpoints of the default trace.
const segment = 3 - raceShorter

// history is the trace the sweep drives.
func (s *Sweep) history() workload.History {
	if s.History != nil {
		return *s.History
	}
	return hrHistory(2*segment + 1)
}

// Trace returns the default trace's commits as rticd protocol lines.
func Trace() []string {
	var lines []string
	for _, st := range hrHistory(2*segment + 1).Steps {
		lines = append(lines, fmt.Sprintf("@%d %s", st.Time, st.Tx))
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
		opts = append(opts, wal.WithSyncPolicy(wal.SyncBatch))
	}
	logs, err := openJournals(dir, s.Journals, opts...)
	if err != nil {
		return nil, err
	}
	r.steps = append(r.steps, Step{Kind: "setup", First: 1, Last: ffs.OpCount()})
	h := s.history()
	m, err := newMonitor(h.Schema, h.Constraints, s.Journals)
	if err != nil {
		return nil, err
	}
	d, err := monitor.NewDurableLogs(m, logs, filepath.Join(dir, "state.snap"), monitor.WithDurableFS(ffs))
	if err != nil {
		return nil, err
	}
	d.Attach()
	// The run's ops are counted by the time it returns: closing only
	// frees handles.
	defer d.CloseLogs()

	commits, syncs, ckpts := 0, 0, 0
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
	seg := (len(h.Steps) - 1) / 2
	for i, st := range h.Steps {
		if err := do("commit", i, func() error {
			commits++
			if _, err := m.Apply(st.Time, st.Tx); err != nil {
				return fmt.Errorf("commit at t=%d rejected: %w", st.Time, err)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if s.Batch && i%seg == 0 && i < 2*seg {
			if err := do("sync", syncs, func() error { syncs++; return d.Sync() }); err != nil {
				return nil, err
			}
		}
		if (i+1)%seg == 0 && i < 2*seg {
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
	if len(s.history().Steps) < 3 {
		return res, errors.New("chaos: a sweep's trace needs at least three commits")
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

	// try makes f's run, unless the filter drops it, and cuts it at
	// every op after the fault.
	try := func(f Fault) (*sweepRun, error) {
		if s.Faults != nil && !s.Faults(f) {
			return nil, nil
		}
		plan := []vfs.Injection{f.Injection}
		if f.After != nil {
			plan = append(plan, f.After.Injection)
		}
		r, err := s.run(filepath.Join(s.Dir, fmt.Sprintf("run-%d", res.Runs)), plan...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		res.Runs++
		if f.After != nil {
			res.Second++
		}
		cut(r, f, f.AtOp+1)
		return r, nil
	}

	base, err := s.run(filepath.Join(s.Dir, "run-0"))
	if err != nil {
		return res, fmt.Errorf("fault-free run: %w", err)
	}
	res.Runs++
	cut(base, Fault{}, base.steps[0].Last+1)
	if !s.Batch {
		if err := faultRuns(base, try); err != nil {
			return res, err
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

// faultRuns makes the fault runs through try: each first fault past the
// fault-free run's journal setup, then each second fault inside the
// re-arm rotation behind the last first fault that latched a journal
// before that rotation, one per rotation and journal.
func faultRuns(base *sweepRun, try func(Fault) (*sweepRun, error)) error {
	var latches []*latch // in order of first sight
	for i := base.steps[0].Last + 1; i <= base.ops; i++ {
		for _, f := range faultsAt(base, i, nil) {
			r, err := try(f)
			if err != nil {
				return err
			}
			if r == nil {
				continue
			}
			rot, journal, ok := r.rearm(i)
			if !ok {
				continue
			}
			l := &latch{fault: f, run: r, rot: rot, journal: journal}
			k := slices.IndexFunc(latches, l.same)
			if k < 0 {
				latches = append(latches, l)
				continue
			}
			if err := latches[k].check(l); err != nil {
				return err
			}
			latches[k] = l
		}
	}
	for _, l := range latches {
		for i := l.rot.First; i <= l.rot.Last; i++ {
			for _, f := range faultsAt(l.run, i, &l.fault) {
				if _, err := try(f); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// faultsAt lists the fault outcomes at op i of r: a failure, and a
// short write on a write. after is the first fault r injected.
func faultsAt(r *sweepRun, i uint64, after *Fault) []Fault {
	op, path := r.ffs.OpAt(i)
	kinds := []vfs.Kind{vfs.EIO}
	if op == vfs.OpWrite {
		kinds = append(kinds, vfs.ShortWrite)
	}
	fs := make([]Fault, len(kinds))
	for k, kind := range kinds {
		fs[k] = Fault{Injection: vfs.Injection{AtOp: i, Kind: kind}, Op: op, Path: path, In: stepOf(r.steps, i), After: after}
	}
	return fs
}

// rearm finds the first Checkpoint of r after op i and, if it is a
// re-arm rotation, the name of the journal it stages a fresh segment
// for: the journal a fault at op i latched.
func (r *sweepRun) rearm(i uint64) (Step, string, bool) {
	for _, st := range r.steps {
		if st.Kind != "checkpoint" || st.First <= i {
			continue
		}
		for j := st.First; j <= st.Last; j++ {
			if _, p := r.ffs.OpAt(j); strings.HasSuffix(p, rearmSuffix) {
				return st, strings.TrimSuffix(filepath.Base(p), rearmSuffix), true
			}
		}
		return Step{}, "", false
	}
	return Step{}, "", false
}

// rearmSuffix names the fresh segment a re-arm rotation stages beside a
// latched journal (monitor's rotation).
const rearmSuffix = ".rearm"

// latch is a first fault that latched a journal, and the re-arm
// rotation of its run that follows.
type latch struct {
	fault   Fault
	run     *sweepRun
	rot     Step
	journal string
}

func (l *latch) same(o *latch) bool { return l.rot.Index == o.rot.Index && l.journal == o.journal }

// check holds the premise that bounds the second faults: a rotation's
// ops depend on which journal latched and on the rotation, not on
// which commit latched it, so one first fault per rotation and journal
// stands for all of them.
func (l *latch) check(o *latch) error {
	ops := func(x *latch) []string {
		var s []string
		for j := x.rot.First; j <= x.rot.Last; j++ {
			op, p := x.run.ffs.OpAt(j)
			s = append(s, op.String()+" "+strings.TrimPrefix(p, x.run.dir))
		}
		return s
	}
	if a, b := ops(l), ops(o); !slices.Equal(a, b) {
		return fmt.Errorf("checkpoint %d re-arms %s differently behind %s (%q) and %s (%q)",
			l.rot.Index, l.journal, l.fault, a, o.fault, b)
	}
	return nil
}

// describe names the case behind a disk for a failure report.
func describe(c Cut) string {
	s := fmt.Sprintf("power cut at op %d (%s %d)", c.At, c.In.Kind, c.In.Index)
	if c.Fault.AtOp != 0 {
		s = c.Fault.String() + ", then " + s
	}
	return s
}

// checkImage recovers the disk in dir as a restarted process does and
// holds it to the invariant: at least the first durable commits are
// back, the state equals a reference fed the recovered trace prefix
// (nothing half-applied), and the monitor finishes the trace and a
// probe commit past it with journaling on, raising the same violations
// as the reference — after which a second recovery reaches all of it,
// so the journals were left aligned.
func (s *Sweep) checkImage(dir string, durable int, res *SweepResult) error {
	h := s.history()
	sch, cons, trace := h.Schema, h.Constraints, h.Steps
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
	probe := workload.Step{Time: trace[len(trace)-1].Time + 1, Tx: s.probe()}
	for _, st := range append(slices.Clip(trace[k:]), probe) {
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

// probe is the commit checkImage makes past the trace. Which violations
// it raises depends on the whole history, so matching them is a
// behavioral, not just structural, equivalence check: the default
// trace's probe rehires every employee, another trace's re-commits its
// last non-empty transaction.
func (s *Sweep) probe() *storage.Transaction {
	tx := storage.NewTransaction()
	if s.History == nil {
		for e := int64(0); e < 5; e++ {
			tx.Insert("hire", tuple.Ints(e))
		}
		return tx
	}
	for _, st := range s.History.Steps {
		if len(st.Tx.Ops()) > 0 {
			tx = st.Tx
		}
	}
	return tx
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
