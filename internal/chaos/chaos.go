// Package chaos drives durable monitors through seeded filesystem
// fault schedules and checks the durability contract after a simulated
// crash: no commit acknowledged while durability reported ok may be
// missing after recovery, and the recovered state must be identical to
// a clean run of the same trace prefix.
//
// One run is: build a monitor over a vfs.FaultFS whose injection plan
// is derived from a seed, drive a deterministic workload through it
// (committing straight through any degraded episodes), record the
// highest timestamp acknowledged while /healthz-equivalent status was
// "ok", abandon everything without shutdown, then recover on the real
// filesystem and compare against a reference monitor.
package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"rtic/internal/monitor"
	"rtic/internal/obs"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/vfs"
	"rtic/internal/wal"
	"rtic/internal/workload"
)

// Config parameterizes one chaos run. Zero values pick defaults sized
// for the built-in workload.
type Config struct {
	Dir     string // scratch directory for WAL and snapshot files (required)
	Seed    int64  // fault-schedule seed
	Commits int    // workload length (default 24)
	Shards  int    // >1 shards the monitor: one journal per shard, one checkpoint for all
	FirstOp uint64 // first faultable op index (default: just past journal setup, measured)
	Window  uint64 // op window the schedule draws from (default 4*Commits)
	Faults  int    // injections in the window (default Commits/3+2; <0: none)

	// NoCheckpoints drops the explicit checkpoint every five commits, so
	// only the re-arm loop can heal a degraded episode.
	NoCheckpoints bool

	// Plan, when non-nil, replaces the seeded schedule entirely —
	// for deterministic single-fault scenarios.
	Plan []vfs.Injection

	// History, when non-nil, replaces the built-in hire/fire workload:
	// the run drives History.Steps through a monitor built over
	// History.Schema and History.Constraints, and Commits is taken from
	// the step count. Any workload.History works — the CDC freshness
	// feeds from internal/cdcgen are the standing corpus.
	History *workload.History

	// Probe, when non-nil, overrides the post-recovery probe
	// transaction. With a History and no Probe, the last non-empty
	// transaction of the trace is re-committed past the recovered time.
	Probe *storage.Transaction
}

// Result reports what one run did, for failure messages and for
// asserting that the suite actually exercised faults.
type Result struct {
	Seed           int64
	Acked          int         // commits acknowledged before the crash
	MaxDurableT    uint64      // highest t acknowledged with status "ok"
	RecoveredT     uint64      // monitor time after crash recovery
	Replayed       int         // journal records replayed during recovery
	Rearms         uint64      // successful re-arms during the run
	CheckpointErrs int         // checkpoints that failed under injection
	Crashed        bool        // a Crash fault latched the filesystem
	Fired          []vfs.Fired // injections that actually fired
	Ops            uint64      // filesystem ops the run performed (crash-plan calibration)
	FirstOp        uint64      // the first op past journal setup (crash-plan calibration)
}

type step struct {
	t  uint64
	tx *storage.Transaction
}

// hrTrace is the deterministic hire/fire workload shared by every run:
// rehiring an employee fired within the window trips no_quick_rehire,
// so the trace exercises both clean and violating commits.
func hrTrace(n int) []step {
	steps := make([]step, 0, n)
	for i := 0; i < n; i++ {
		e := int64(i % 5)
		tx := storage.NewTransaction()
		if i%3 == 0 {
			tx.Insert("fire", tuple.Ints(e))
		} else {
			tx.Delete("fire", tuple.Ints(e)).Insert("hire", tuple.Ints(e))
		}
		steps = append(steps, step{t: uint64((i + 1) * 10), tx: tx})
	}
	return steps
}

func hrSchema() *schema.Schema {
	return schema.NewBuilder().Relation("hire", 1).Relation("fire", 1).MustBuild()
}

func hrConstraints() []workload.ConstraintSpec {
	return []workload.ConstraintSpec{
		{Name: "no_quick_rehire", Source: "hire(e) -> not once[0,365] fire(e)"},
	}
}

func newMonitor(sch *schema.Schema, cons []workload.ConstraintSpec, shards int) (*monitor.Monitor, error) {
	var opts []monitor.Option
	if shards > 1 {
		opts = append(opts, monitor.WithShards(shards))
	}
	m, err := monitor.New(sch, cons, opts...)
	if err != nil {
		return nil, err
	}
	m.SetObserver(&obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())})
	return m, nil
}

// workloadOf resolves the run's trace, schema, constraints and probe —
// the built-in hire/fire workload unless cfg.History overrides it.
func workloadOf(cfg Config) (*schema.Schema, []workload.ConstraintSpec, []step, *storage.Transaction) {
	if cfg.History == nil {
		n := cfg.Commits
		if n <= 0 {
			n = 24
		}
		probe := cfg.Probe
		if probe == nil {
			probe = probeTx()
		}
		return hrSchema(), hrConstraints(), hrTrace(n), probe
	}
	h := cfg.History
	trace := make([]step, len(h.Steps))
	for i, st := range h.Steps {
		trace[i] = step{t: st.Time, tx: st.Tx}
	}
	probe := cfg.Probe
	if probe == nil {
		// Re-committing a late trace transaction past the recovered time
		// exercises window state the same way the original commit did.
		for i := len(trace) - 1; i >= 0 && probe == nil; i-- {
			if len(trace[i].tx.Ops()) > 0 {
				probe = trace[i].tx
			}
		}
	}
	return h.Schema, h.Constraints, trace, probe
}

// probeTx rehires every employee at once; which constraint violations
// it raises depends on the full fire/hire history, so matching probe
// output is a behavioral (not just structural) equivalence check.
func probeTx() *storage.Transaction {
	tx := storage.NewTransaction()
	for e := int64(0); e < 5; e++ {
		tx.Insert("hire", tuple.Ints(e))
	}
	return tx
}

func violationKey(vs []string) []string {
	sort.Strings(vs)
	return vs
}

// Run executes one seeded chaos run and returns an error if any part
// of the durability contract is violated. The returned Result is valid
// (best effort) even when err != nil.
func Run(cfg Config) (*Result, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: Config.Dir is required")
	}
	sch, cons, trace, probe := workloadOf(cfg)
	cfg.Commits = len(trace)
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	ffs := vfs.NewFaultFS(vfs.OS, cfg.Plan...)
	res := &Result{Seed: cfg.Seed}
	snapPath := filepath.Join(cfg.Dir, "state.snap")
	m, err := newMonitor(sch, cons, cfg.Shards)
	if err != nil {
		return res, err
	}
	logs, err := openJournals(cfg.Dir, shards, wal.WithFS(ffs))
	if err != nil {
		return res, fmt.Errorf("seed %d: %w", cfg.Seed, err)
	}
	// Faults during journal setup are a different failure mode than
	// faults during operation, and startup validation owns it: the
	// window starts past the ops the journals' Open made.
	res.FirstOp = ffs.OpCount() + 1
	if cfg.FirstOp == 0 {
		cfg.FirstOp = res.FirstOp
	}
	if cfg.Window == 0 {
		cfg.Window = uint64(cfg.Commits) * 4
	}
	if cfg.Faults == 0 {
		cfg.Faults = cfg.Commits/3 + 2
	}
	if cfg.Plan == nil && cfg.Faults > 0 {
		ffs.Inject(vfs.Schedule(cfg.Seed, cfg.FirstOp, cfg.Window, cfg.Faults)...)
	}
	// Millisecond-scale backoff so re-arm episodes resolve within the
	// run instead of after it.
	d, err := monitor.NewDurableLogs(m, logs, snapPath, monitor.WithDurableFS(ffs),
		monitor.WithRearmBackoff(time.Millisecond, 8*time.Millisecond))
	if err != nil {
		return res, err
	}
	d.Attach()

	// Drive the trace straight through every fault: commits must keep
	// being acknowledged no matter what the disk does. A commit counts
	// toward MaxDurableT only when durability reports ok after it —
	// under SyncAlways that means the record (and every record before
	// it, journaled or checkpointed by a re-arm) reached stable storage.
	for i, st := range trace {
		if _, err := m.Apply(st.t, st.tx); err != nil {
			return res, fmt.Errorf("seed %d: commit at t=%d rejected during fault episode: %w", cfg.Seed, st.t, err)
		}
		res.Acked = i + 1
		if h := d.Health(); h.Status == "ok" {
			res.MaxDurableT = st.t
		}
		if !cfg.NoCheckpoints && (i+1)%5 == 0 {
			if err := d.Checkpoint(); err != nil {
				res.CheckpointErrs++
			}
		}
	}
	// Settle: a real process keeps running after its last commit, so
	// give an in-flight re-arm episode a bounded chance to finish. A
	// crash-latched disk never heals — stop waiting the moment it
	// latches (re-arm retries can themselves trip a Crash injection).
	for end := time.Now().Add(250 * time.Millisecond); time.Now().Before(end) && !ffs.Crashed(); {
		h := d.Health()
		if h.Status == "ok" || h.DegradedSeconds == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if h := d.Health(); h.Status == "ok" {
		// The re-arm's checkpoint covers everything degraded: the whole
		// trace is now durable.
		res.MaxDurableT = trace[len(trace)-1].t
	}
	h := d.Health()
	res.Rearms = h.Rearms
	res.Crashed = ffs.Crashed()
	res.Fired = ffs.Fired()
	res.Ops = ffs.OpCount()
	// Crash: stop background loops (a dead process runs no goroutines)
	// and abandon the journals without closing them.
	d.Stop()

	// Recover on the real filesystem, exactly as a restarted process
	// would: newest checkpoint (if any) plus journal tails.
	m2, d2, logs2, err := openDir(sch, cons, cfg.Dir, shards)
	if err != nil {
		return res, fmt.Errorf("seed %d: %w", cfg.Seed, err)
	}
	defer closeAll(logs2)
	replayed, err := d2.Recover()
	if err != nil {
		return res, fmt.Errorf("seed %d: recovery: %w", cfg.Seed, err)
	}
	res.Replayed = replayed
	res.RecoveredT = m2.Now()

	// The contract: everything acknowledged while durability reported
	// ok survives the crash.
	if res.RecoveredT < res.MaxDurableT {
		return res, fmt.Errorf("seed %d: DURABILITY LOSS: recovered to t=%d but t=%d was acknowledged durable (fired: %v)",
			cfg.Seed, res.RecoveredT, res.MaxDurableT, res.Fired)
	}

	// Differential check: the recovered monitor must be identical to a
	// reference monitor fed the same trace prefix on a healthy disk.
	prefix := 0
	for prefix < len(trace) && trace[prefix].t <= res.RecoveredT {
		prefix++
	}
	ref, err := reference(sch, cons, shards, trace[:prefix])
	if err != nil {
		return res, fmt.Errorf("seed %d: %w", cfg.Seed, err)
	}
	if err := sameState(m2, ref); err != nil {
		return res, fmt.Errorf("seed %d: %w", cfg.Seed, err)
	}
	if probe == nil {
		return res, nil
	}
	if err := sameStep(m2, ref, step{t: m2.Now() + 1, tx: probe}); err != nil {
		return res, fmt.Errorf("seed %d: %w", cfg.Seed, err)
	}
	return res, nil
}

// openJournals opens the shards journals under dir (monitor.JournalPaths
// of dir/state.wal) with opts.
func openJournals(dir string, shards int, opts ...wal.Option) ([]*wal.Log, error) {
	paths := monitor.JournalPaths(filepath.Join(dir, "state.wal"), shards)
	logs := make([]*wal.Log, len(paths))
	for i, p := range paths {
		var err error
		if logs[i], err = wal.Open(p, opts...); err != nil {
			closeAll(logs[:i])
			return nil, fmt.Errorf("opening journal %d: %w", i, err)
		}
	}
	return logs, nil
}

func closeAll(logs []*wal.Log) {
	for _, l := range logs {
		// Only the file handles are at stake: what the contract checks
		// was read before.
		l.Close()
	}
}

// openDir builds what a restarted process builds over dir on the real
// filesystem, ready to Recover: the monitor restored from dir's
// checkpoint (or fresh without one) and the durability manager over
// its journals, opened with opts. cons builds the fresh monitor; a
// checkpoint carries its own.
func openDir(sch *schema.Schema, cons []workload.ConstraintSpec, dir string, shards int, opts ...wal.Option) (*monitor.Monitor, *monitor.Durable, []*wal.Log, error) {
	snapPath := filepath.Join(dir, "state.snap")
	var m *monitor.Monitor
	if sf, err := os.Open(snapPath); err == nil {
		m, err = monitor.RestoreObserved(sch, nil, sf, &obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())},
			monitor.WithShards(shards))
		sf.Close()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("restoring checkpoint: %w", err)
		}
	} else if m, err = newMonitor(sch, cons, shards); err != nil {
		return nil, nil, nil, err
	}
	logs, err := openJournals(dir, shards, opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := monitor.NewDurableLogs(m, logs, snapPath)
	if err != nil {
		closeAll(logs)
		return nil, nil, nil, err
	}
	return m, d, logs, nil
}

// reference is a monitor fed steps on a healthy disk.
func reference(sch *schema.Schema, cons []workload.ConstraintSpec, shards int, steps []step) (*monitor.Monitor, error) {
	ref, err := newMonitor(sch, cons, shards)
	if err != nil {
		return nil, err
	}
	for _, st := range steps {
		if _, err := ref.Apply(st.t, st.tx); err != nil {
			return nil, fmt.Errorf("reference replay at t=%d: %w", st.t, err)
		}
	}
	return ref, nil
}

// sameState holds a recovered monitor to the reference fed the trace
// prefix it recovered: nothing half-applied, nothing extra.
func sameState(m, ref *monitor.Monitor) error {
	if m.Now() != ref.Now() {
		return fmt.Errorf("recovered t=%d is not a trace prefix boundary (reference t=%d)", m.Now(), ref.Now())
	}
	if m.Len() != ref.Len() {
		return fmt.Errorf("recovered %d states, reference has %d for the same prefix", m.Len(), ref.Len())
	}
	if got, want := m.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("recovered aux state diverges: %+v vs %+v", got, want)
	}
	return nil
}

// sameStep commits st to both monitors and compares the violations.
// Committing a probe past both clocks is a behavioral, not just
// structural, equivalence check: which violations it raises depends on
// the full history.
func sameStep(m, ref *monitor.Monitor, st step) error {
	pv, err := m.Apply(st.t, st.tx)
	if err != nil {
		return fmt.Errorf("commit at t=%d on the recovered monitor: %w", st.t, err)
	}
	rv, err := ref.Apply(st.t, st.tx)
	if err != nil {
		return fmt.Errorf("commit at t=%d on the reference monitor: %w", st.t, err)
	}
	pk := make([]string, 0, len(pv))
	for _, v := range pv {
		pk = append(pk, v.String())
	}
	rk := make([]string, 0, len(rv))
	for _, v := range rv {
		rk = append(rk, v.String())
	}
	if !reflect.DeepEqual(violationKey(pk), violationKey(rk)) {
		return fmt.Errorf("violations at t=%d diverge: %v vs %v", st.t, pk, rk)
	}
	return nil
}
