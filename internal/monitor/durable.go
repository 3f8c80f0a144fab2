package monitor

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"sync"
	"time"

	"rtic/internal/engine"
	"rtic/internal/obs"
	"rtic/internal/storage"
	"rtic/internal/vfs"
	"rtic/internal/wal"
)

// FailurePolicy selects what a durability manager does when journaling
// fails (a failed append, fsync, or background flush).
type FailurePolicy int

const (
	// Degrade keeps the monitor serving: commits are still checked and
	// acknowledged — as non-durable — while a bounded in-memory backlog
	// buffers them and a background re-arm loop (exponential backoff
	// with jitter) retries restoring durability. A transient failure is
	// healed by draining the backlog into the journal; a broken journal
	// is replaced by a fresh segment plus an atomic checkpoint covering
	// the degraded window (requires a checkpoint path).
	Degrade FailurePolicy = iota
	// Halt invokes the configured halt function (see WithHaltFunc) on
	// the first durability failure, so a daemon that must never
	// acknowledge a non-durable commit can shut down instead of serving
	// degraded.
	Halt
)

// String returns the flag spelling of the policy.
func (p FailurePolicy) String() string {
	switch p {
	case Degrade:
		return "degrade"
	case Halt:
		return "halt"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseFailurePolicy reads an -on-durability-failure flag value.
func ParseFailurePolicy(s string) (FailurePolicy, error) {
	switch s {
	case "degrade":
		return Degrade, nil
	case "halt":
		return Halt, nil
	default:
		return 0, fmt.Errorf("monitor: unknown durability failure policy %q (want degrade or halt)", s)
	}
}

// DurableOption configures a durability manager at construction time.
type DurableOption func(*durableOptions)

type durableOptions struct {
	fs         vfs.FS
	policy     FailurePolicy
	halt       func(error)
	openLog    func(path string) (*wal.Log, error)
	backoffMin time.Duration
	backoffMax time.Duration
	backlogCap int
}

func defaultDurableOptions() durableOptions {
	return durableOptions{
		fs:         vfs.OS,
		policy:     Degrade,
		backoffMin: 50 * time.Millisecond,
		backoffMax: 5 * time.Second,
		backlogCap: 4096,
	}
}

// WithDurableFS selects the filesystem checkpoints and re-arm segment
// rotation go through (default vfs.OS). Fault-injection tests
// substitute a vfs.FaultFS.
func WithDurableFS(fsys vfs.FS) DurableOption {
	return func(o *durableOptions) {
		if fsys != nil {
			o.fs = fsys
		}
	}
}

// WithFailurePolicy selects the reaction to a journaling failure
// (default Degrade).
func WithFailurePolicy(p FailurePolicy) DurableOption {
	return func(o *durableOptions) { o.policy = p }
}

// WithHaltFunc registers the function the Halt policy invokes (at most
// once) on a durability failure. It may be called from the commit path
// or a background goroutine and must not block.
func WithHaltFunc(h func(error)) DurableOption {
	return func(o *durableOptions) { o.halt = h }
}

// WithLogFactory sets how the re-arm loop opens a fresh WAL segment,
// so the replacement inherits the daemon's sync policy, metrics and
// filesystem. The default opens a plain SyncAlways log through the
// manager's filesystem.
func WithLogFactory(open func(path string) (*wal.Log, error)) DurableOption {
	return func(o *durableOptions) { o.openLog = open }
}

// WithRearmBackoff bounds the re-arm retry delay (defaults 50ms..5s,
// doubling per failed attempt, with jitter).
func WithRearmBackoff(min, max time.Duration) DurableOption {
	return func(o *durableOptions) {
		if min > 0 {
			o.backoffMin = min
		}
		if max >= o.backoffMin {
			o.backoffMax = max
		}
	}
}

// WithBacklogLimit caps the in-memory record backlog kept while
// degraded (default 4096). Past the cap the backlog is discarded and
// only a checkpoint-class re-arm can restore durability.
func WithBacklogLimit(n int) DurableOption {
	return func(o *durableOptions) {
		if n > 0 {
			o.backlogCap = n
		}
	}
}

// pendingRec is one commit buffered while degraded: its timestamp, the
// encoded record of every journal, and the journals still missing
// theirs — so a commit that reached only some journals is completed by
// the drain, never duplicated. With one journal need is {0}.
type pendingRec struct {
	t        uint64
	payloads [][]byte // indexed like Durable.logs
	need     []int    // journals missing the record, ascending
}

// Durable is the durability manager around a monitor: it journals every
// accepted transaction to write-ahead logs — one for an unsharded
// monitor, one per shard (each receiving that shard's slice of the
// transaction) for a sharded one — periodically rotates an atomic
// checkpoint that truncates the journals, and replays the journal tails
// over the newest checkpoint on startup. Checkpoints need the
// incremental engine (it is the only one with snapshot support);
// journal-only durability works over any engine.
//
// Crash-safety argument: a commit appends exactly one record to every
// journal (empty sub-transactions included) under the commit lock,
// before the next commit can start, so the journals always hold every
// accepted transaction since the last checkpoint, record j of every
// journal carries the same timestamp, and a crash can tear that
// alignment only at the tail — some journals got the last commit,
// others did not. A checkpoint writes the snapshot to a temp file,
// fsyncs, renames it over the live path, and only then resets the
// journals one by one — a crash before the rename leaves the old
// checkpoint plus journals that cover everything after it; a crash
// after the rename, before or between the resets, leaves records the
// recovery skips by timestamp (timestamps are strictly increasing, so
// "t at or before the checkpoint's clock" identifies them exactly).
// Recovery therefore drops the covered records of each journal first,
// then replays the common prefix of what remains, verifying the
// timestamps agree record by record, and truncates the longer journals
// back to that prefix — discarding at most the final, partially
// journaled commit.
//
// Journaling failures follow the configured FailurePolicy. Under
// Degrade (the default) the manager enters degraded mode: commits keep
// being checked and acknowledged — as non-durable — while a re-arm loop
// retries in the background. Re-arm has two classes. If no journal
// latched broken (a transient append failure, e.g. ENOSPC that
// cleared), the buffered backlog is drained into the journals missing
// it and fsynced. If a journal is broken or the backlog overflowed, a
// fresh segment is opened beside every live path, an atomic checkpoint
// capturing the whole state — degraded-window commits included — is
// written, and the fresh segments are renamed over the old paths;
// either way no acknowledged-durable commit is ever lost, and commits
// acknowledged during the degraded window become durable again at
// re-arm. Journal-only managers (no checkpoint path) can only drain; if
// a journal breaks they stay degraded until restart.
type Durable struct {
	m        *Monitor
	snapPath string // "": journal-only durability
	fs       vfs.FS
	policy   FailurePolicy
	halt     func(error)
	haltOnce sync.Once
	openLog  func(path string) (*wal.Log, error)

	backoffMin time.Duration
	backoffMax time.Duration
	backlogCap int

	// one is the journal hook's parts slice when there is one journal:
	// the transaction passes whole, with no Split and no allocation. The
	// hook runs under the commit lock, so it has a single user.
	one [1]*storage.Transaction

	mu sync.Mutex
	// logs holds no journal (checkpoint-only durability), one (unsharded)
	// or one per shard, index == shard id — record i of a commit goes to
	// logs[i], so the order is load-bearing across restarts. A
	// fresh-segment re-arm replaces the slice; it is never edited in place.
	logs            []*wal.Log
	last            time.Time // last successful checkpoint
	lastErr         error     // latest durability failure, nil when healthy
	replayed        int
	degraded        bool
	degradedSince   time.Time
	backlog         []pendingRec
	backlogOverflow bool
	rearmAttempts   uint64
	rearms          uint64
	rearmStop       chan struct{}
	rearmDone       chan struct{}

	stop chan struct{}
	done chan struct{}
}

// NewDurable builds the durability manager of a monitor with at most
// one journal. log may be nil (periodic checkpoints without a journal)
// and snapPath may be empty (journal only, replayed in full on
// recovery); at least one must be set.
func NewDurable(m *Monitor, log *wal.Log, snapPath string, opts ...DurableOption) (*Durable, error) {
	var logs []*wal.Log
	if log != nil {
		logs = []*wal.Log{log}
	}
	return NewDurableLogs(m, logs, snapPath, opts...)
}

// NewShardedDurable is NewDurableLogs without a checkpoint path. It
// exists for benchmark/ladder.go, which is frozen between benchmark
// PRs, and goes when one next edits the ladder.
func NewShardedDurable(m *Monitor, logs []*wal.Log, opts ...DurableOption) (*Durable, error) {
	return NewDurableLogs(m, logs, "", opts...)
}

// NewDurableLogs builds the durability manager. logs holds either no
// journal or exactly one per shard of m, in shard order (one journal
// for an unsharded monitor); snapPath may be empty (journal only,
// replayed in full on recovery). At least one of the two must be set.
func NewDurableLogs(m *Monitor, logs []*wal.Log, snapPath string, opts ...DurableOption) (*Durable, error) {
	if len(logs) == 0 && snapPath == "" {
		return nil, fmt.Errorf("monitor: durability needs a WAL, a checkpoint path, or both")
	}
	if snapPath != "" && m.mode != engine.Incremental {
		return nil, fmt.Errorf("monitor: checkpoints require the incremental engine (current: %v)", m.mode)
	}
	if len(logs) != 0 && len(logs) != m.Shards() {
		return nil, fmt.Errorf("monitor: durability wants %d journals (one per shard), got %d", m.Shards(), len(logs))
	}
	for i, l := range logs {
		if l == nil {
			return nil, fmt.Errorf("monitor: journal %d is nil", i)
		}
	}
	o := defaultDurableOptions()
	for _, opt := range opts {
		opt(&o)
	}
	d := &Durable{
		m: m, logs: logs, snapPath: snapPath,
		fs: o.fs, policy: o.policy, halt: o.halt, openLog: o.openLog,
		backoffMin: o.backoffMin, backoffMax: o.backoffMax, backlogCap: o.backlogCap,
	}
	if d.openLog == nil {
		fsys := o.fs
		d.openLog = func(p string) (*wal.Log, error) { return wal.Open(p, wal.WithFS(fsys)) }
	}
	return d, nil
}

// JournalPaths names the n journals kept under path: the path itself
// for one journal, <path>.0 .. <path>.n-1 for several. Every opener of
// journals (rticd, the chaos harness) goes through it, so journals
// written under one layout are found again under the same one.
func JournalPaths(path string, n int) []string {
	if n <= 1 {
		return []string{path}
	}
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s.%d", path, i)
	}
	return paths
}

// currentLogs returns the journals in use right now.
func (d *Durable) currentLogs() []*wal.Log {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.logs
}

// journalRec is one decoded journal record.
type journalRec struct {
	t  uint64
	tx *storage.Transaction
}

// Recover replays the journal tails into the monitor and returns how
// many commits were applied. Call it on the freshly built (or
// checkpoint-restored) monitor, before Attach and before serving
// traffic. Records at or before the monitor's clock are already in the
// checkpoint — possible when a crash hit between the checkpoint rename
// and the last journal reset — and are skipped per journal, before the
// journals are compared: a crash between two resets leaves journals of
// different lengths whose surplus is all covered. Of the rest, the
// common prefix is replayed and journals torn by a crash — a commit
// that reached only some of them — are truncated back to it, so the
// next run appends from an aligned state.
//
// Each commit is reassembled from its per-journal slices and goes
// through the monitor's own commit path, not to the individual shards,
// so the router's current partition plan decides placement afresh: a
// plan change between runs (new constraint set) re-routes old data
// correctly instead of resurrecting a stale layout.
func (d *Durable) Recover() (int, error) {
	logs := d.currentLogs()
	if len(logs) == 0 {
		return 0, nil
	}
	covered := func(t uint64) bool { return d.m.Len() > 0 && t <= d.m.Now() }
	skipped := make([]int, len(logs)) // covered records, per journal

	// Journals 1..N-1 are read whole and journal 0 is streamed against
	// them, so a single journal is replayed without buffering it.
	rest := make([][]journalRec, len(logs)-1)
	prefix := math.MaxInt
	for i, l := range logs[1:] {
		if _, err := l.Replay(func(payload []byte) error {
			t, tx, err := wal.DecodeTx(payload)
			if err != nil {
				return err
			}
			if covered(t) {
				skipped[i+1]++
			} else {
				rest[i] = append(rest[i], journalRec{t: t, tx: tx})
			}
			return nil
		}); err != nil {
			return 0, fmt.Errorf("monitor: replaying journal %d: %w", i+1, err)
		}
		if len(rest[i]) < prefix {
			prefix = len(rest[i])
		}
	}

	applied, first := 0, 0 // first: journal 0's records past the checkpoint
	_, err := logs[0].Replay(func(payload []byte) error {
		t, tx, err := wal.DecodeTx(payload)
		if err != nil {
			return err
		}
		if covered(t) {
			skipped[0]++
			return nil
		}
		j := first
		first++
		if j >= prefix {
			return nil // never reached every journal: truncated below
		}
		for i, recs := range rest {
			if recs[j].t != t {
				return fmt.Errorf(
					"monitor: journals disagree at record %d: journal 0 has t=%d, journal %d has t=%d (journals swapped or mixed across runs?)",
					skipped[0]+j, t, i+1, recs[j].t)
			}
			// Appending the slices in journal order is safe: ops on the same
			// tuple always hash to the same shard, so no cross-shard reorder
			// can change the merged transaction's meaning.
			for _, op := range recs[j].tx.Ops() {
				if op.Insert {
					tx.Insert(op.Rel, op.Tuple)
				} else {
					tx.Delete(op.Rel, op.Tuple)
				}
			}
		}
		if _, err := d.m.Apply(t, tx); err != nil {
			return fmt.Errorf("monitor: replaying record at t=%d: %w", t, err)
		}
		applied++
		return nil
	})
	d.mu.Lock()
	d.replayed = applied
	d.mu.Unlock()
	if mm := d.metrics(); mm != nil {
		mm.ReplayedRecords.Add(uint64(applied))
	}
	if err != nil {
		return applied, err
	}
	if first < prefix {
		prefix = first
	}
	// Drop the torn tails so every journal restarts aligned.
	for i, l := range logs {
		if keep := skipped[i] + prefix; l.Records() > keep {
			if err := l.Truncate(keep); err != nil {
				return applied, fmt.Errorf("monitor: truncating journal %d to %d records: %w", i, keep, err)
			}
		}
	}
	return applied, nil
}

// metrics returns the monitor's metric set (nil when uninstrumented);
// it takes no lock, so every hook may call it.
func (d *Durable) metrics() *obs.Metrics { return d.m.Observer().MetricSink() }

// Attach starts journaling: every subsequently accepted transaction is
// appended to the journals under the commit lock, one record per
// journal per commit. Failures — including a background-flusher fsync
// failure, surfaced through the log's failure handler at the point of
// failure — trigger the configured FailurePolicy.
func (d *Durable) Attach() {
	logs := d.currentLogs()
	if len(logs) == 0 {
		return
	}
	d.watch(logs)
	d.m.SetJournal(d.journalHook)
}

// watch routes the journals' failure notifications to onFailure.
func (d *Durable) watch(logs []*wal.Log) {
	for i, l := range logs {
		l.SetFailureHandler(func(err error) { d.onFailure(journalErr(len(logs), i, err)) })
	}
}

// journalErr names the failing journal when there are several.
func journalErr(n, i int, err error) error {
	if n == 1 {
		return err
	}
	return fmt.Errorf("shard %d journal: %w", i, err)
}

// journalHook runs under the commit lock for every accepted commit.
func (d *Durable) journalHook(t uint64, tx *storage.Transaction) {
	d.mu.Lock()
	logs, degraded := d.logs, d.degraded
	d.mu.Unlock()
	parts := d.one[:]
	if rtr := d.m.rtr; rtr == nil {
		parts[0] = tx
	} else {
		parts = rtr.Split(tx)
	}
	var failed []int // nil while degraded: every journal misses the record
	if !degraded {
		var firstErr error
		for i, part := range parts {
			if err := logs[i].AppendTx(t, part); err != nil {
				failed = append(failed, i)
				if firstErr == nil {
					firstErr = journalErr(len(logs), i, err)
				}
			}
		}
		if firstErr == nil {
			return
		}
		d.onFailure(firstErr)
	}
	d.mu.Lock()
	if d.degraded {
		// The commit joins the backlog so a drain re-arm still covers it.
		// After a failed append only the failed journals need its record:
		// the others hold it, and a duplicate would misalign the journals.
		d.pushBacklogLocked(t, parts, failed)
	}
	d.mu.Unlock()
}

// pushBacklogLocked buffers one degraded-window commit (caller holds
// d.mu). need lists the journals missing their record; nil means all.
// Past the cap the backlog is dropped wholesale: it can no longer be
// replayed into the journals, so only a checkpoint-class re-arm — which
// captures the state directly — can recover.
func (d *Durable) pushBacklogLocked(t uint64, parts []*storage.Transaction, need []int) {
	if d.backlogOverflow {
		return
	}
	if len(d.backlog) >= d.backlogCap {
		d.backlog = nil
		d.backlogOverflow = true
		if mm := d.metrics(); mm != nil {
			mm.JournalBacklog.Set(0)
		}
		return
	}
	payloads := make([][]byte, len(parts))
	for i, part := range parts {
		payloads[i] = wal.EncodeTx(t, part)
	}
	if need == nil {
		need = make([]int, len(parts))
		for i := range need {
			need[i] = i
		}
	}
	d.backlog = append(d.backlog, pendingRec{t: t, payloads: payloads, need: need})
	if mm := d.metrics(); mm != nil {
		mm.JournalBacklog.Set(int64(len(d.backlog)))
	}
}

// onFailure reacts to a journaling failure per the configured policy.
// It is called from the commit path and from WAL failure handlers
// (possibly a flusher goroutine); it only takes d.mu.
func (d *Durable) onFailure(err error) {
	if d.policy == Halt {
		d.mu.Lock()
		d.lastErr = err
		d.mu.Unlock()
		if d.halt != nil {
			d.haltOnce.Do(func() { d.halt(err) })
		}
		return
	}
	d.degrade(err)
}

// degrade flips the manager into degraded mode (idempotent) and starts
// the re-arm loop.
func (d *Durable) degrade(err error) {
	d.mu.Lock()
	d.lastErr = err
	if d.degraded {
		d.mu.Unlock()
		return
	}
	d.degraded = true
	d.degradedSince = time.Now()
	stop := make(chan struct{})
	done := make(chan struct{})
	d.rearmStop, d.rearmDone = stop, done
	d.mu.Unlock()
	if mm := d.metrics(); mm != nil {
		mm.DurabilityDegraded.Set(1)
	}
	go runRearmLoop(stop, done, d.backoffMin, d.backoffMax, d.tryRearm)
}

// runRearmLoop retries try with exponential backoff until it reports
// success or stop closes.
func runRearmLoop(stop, done chan struct{}, min, max time.Duration, try func() bool) {
	defer close(done)
	delay := min
	for {
		t := time.NewTimer(rearmJitter(delay))
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
		if try() {
			return
		}
		delay *= 2
		if delay > max {
			delay = max
		}
	}
}

// rearmJitter spreads retries over [d/2, d) so managers degraded by a
// shared cause do not retry in lockstep.
func rearmJitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2))) //nolint:gosec — jitter, not crypto
}

// tryRearm attempts to restore durability. It holds the commit lock
// throughout so no commit can slip between the drain (or checkpoint)
// and journaling being live again.
func (d *Durable) tryRearm() bool {
	d.mu.Lock()
	d.rearmAttempts++
	d.mu.Unlock()
	if mm := d.metrics(); mm != nil {
		mm.RearmAttempts.Inc()
	}

	d.m.mu.Lock()
	defer d.m.mu.Unlock()

	d.mu.Lock()
	if !d.degraded {
		d.mu.Unlock()
		return true
	}
	logs := d.logs
	backlog := d.backlog
	drainable := len(logs) > 0 && !d.backlogOverflow
	d.mu.Unlock()

	for _, l := range logs {
		if l.Err() != nil {
			drainable = false
		}
	}
	if drainable {
		return d.rearmDrain(logs, backlog)
	}
	return d.rearmFresh(logs)
}

// rearmDrain re-appends the degraded window's commits to the still
// healthy journals (the failure was transient) and fsyncs: each
// buffered record goes to exactly the journals missing it, restoring
// the one-record-per-journal-per-commit alignment. Caller holds the
// commit lock, which also freezes the backlog — so records are edited
// in place, and a partial drain leaves each knowing which journals it
// still needs.
func (d *Durable) rearmDrain(logs []*wal.Log, backlog []pendingRec) bool {
	drained := 0
drain:
	for ; drained < len(backlog); drained++ {
		rec := &backlog[drained]
		for len(rec.need) > 0 {
			i := rec.need[0]
			if err := logs[i].Append(rec.payloads[i]); err != nil {
				break drain
			}
			rec.need = rec.need[1:]
		}
	}
	ok := drained == len(backlog)
	for _, l := range logs {
		ok = ok && l.Sync() == nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.backlog = d.backlog[drained:]
	if !ok {
		if mm := d.metrics(); mm != nil {
			mm.JournalBacklog.Set(int64(len(d.backlog)))
		}
		return false
	}
	d.finishRearmLocked()
	return true
}

// rearmFresh replaces broken (or overflowed-past) journals: open a
// fresh segment beside every live path, write an atomic checkpoint
// covering every commit — the degraded window included — and rotate the
// fresh segments over the old paths. A crash at any point leaves a
// recoverable set: before the checkpoint rename, the old checkpoint and
// old journals; after it, a checkpoint that supersedes every old
// journal record, whichever of the journals were already rotated
// (replay skips covered records by timestamp, journal by journal).
// Caller holds the commit lock.
func (d *Durable) rearmFresh(old []*wal.Log) bool {
	if d.snapPath == "" || len(old) == 0 {
		return false // journal-only managers cannot rebuild a broken log
	}
	fresh := make([]*wal.Log, 0, len(old))
	abort := func() bool {
		for i, l := range fresh {
			l.Close()                                //rtic:errok aborting a failed re-arm; the segment is removed on the next line
			d.fs.Remove(old[i].Path() + rearmSuffix) //rtic:errok best-effort cleanup; a leftover segment is overwritten by the next attempt
		}
		return false
	}
	for _, o := range old {
		rearmPath := o.Path() + rearmSuffix
		// A leftover segment from an earlier failed attempt would make the
		// fresh open replay stale records; clear it first.
		if err := d.fs.Remove(rearmPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return abort()
		}
		l, err := d.openLog(rearmPath)
		if err != nil {
			return abort()
		}
		fresh = append(fresh, l)
	}
	if err := wal.WriteFileAtomicFS(d.fs, d.snapPath, d.m.snapshotLocked); err != nil {
		return abort()
	}
	for i, l := range fresh {
		if err := l.Rename(old[i].Path()); err != nil {
			return abort()
		}
	}
	d.watch(fresh)
	d.mu.Lock()
	d.logs = fresh
	d.last = time.Now()
	d.finishRearmLocked()
	d.mu.Unlock()
	if mm := d.metrics(); mm != nil {
		mm.Checkpoints.Inc()
		mm.CheckpointLastUnix.Set(time.Now().Unix())
	}
	for _, o := range old {
		o.Close() //rtic:errok the replaced journals are superseded by the checkpoint; a broken one's latched error has been reported
	}
	return true
}

// rearmSuffix names the staging segment a fresh-segment re-arm opens
// beside each live journal.
const rearmSuffix = ".rearm"

// finishRearmLocked clears the degraded state (caller holds d.mu and
// the commit lock). The re-arm loop exits once its attempt reports
// success, so rearmStop is dropped here.
func (d *Durable) finishRearmLocked() {
	d.degraded = false
	d.lastErr = nil
	d.degradedSince = time.Time{}
	d.backlog = nil
	d.backlogOverflow = false
	d.rearms++
	d.rearmStop = nil
	if mm := d.metrics(); mm != nil {
		mm.DurabilityDegraded.Set(0)
		mm.JournalBacklog.Set(0)
		mm.Rearms.Inc()
	}
}

// Start runs the background checkpointer at the given interval until
// Stop. It requires a checkpoint path.
func (d *Durable) Start(interval time.Duration) {
	if d.snapPath == "" || interval <= 0 {
		return
	}
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	go func() {
		defer close(d.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				d.Checkpoint() //rtic:errok failures are recorded in Health and CheckpointErrors; the ticker retries
			}
		}
	}()
}

// Stop halts the background checkpointer and, if one is running, the
// re-arm loop — a manager stopped while degraded stays degraded
// (without a final checkpoint; call Checkpoint explicitly for a clean
// shutdown).
func (d *Durable) Stop() {
	if d.stop != nil {
		close(d.stop)
		<-d.done
		d.stop = nil
	}
	d.mu.Lock()
	stop, done := d.rearmStop, d.rearmDone
	d.rearmStop = nil
	d.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// CloseLogs flushes and closes the manager's current journals — which a
// fresh-segment re-arm may have swapped since the caller opened them —
// and returns the first error. Call it after Stop.
func (d *Durable) CloseLogs() error {
	var first error
	for _, l := range d.currentLogs() {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// errCheckpointSkipped marks a checkpoint attempt that found the
// manager degraded — the re-arm loop owns recovery then.
var errCheckpointSkipped = errors.New("monitor: checkpoint skipped while degraded")

// Checkpoint atomically rotates a snapshot into the checkpoint path and
// resets the journals. Commits are held out for the duration — bounded
// history encoding keeps the state (and so the pause) small. While
// degraded, Checkpoint is a no-op: the re-arm loop writes the
// checkpoint that covers the degraded window, and a competing rotation
// here could reset journals the drain path still needs.
func (d *Durable) Checkpoint() error {
	if d.snapPath == "" {
		return fmt.Errorf("monitor: no checkpoint path configured")
	}
	mm := d.metrics()
	start := time.Now()
	err := d.checkpointLocked()
	if errors.Is(err, errCheckpointSkipped) {
		return nil
	}
	if mm != nil {
		mm.CheckpointSeconds.Observe(time.Since(start).Seconds())
		if err != nil {
			mm.CheckpointErrors.Inc()
		} else {
			mm.Checkpoints.Inc()
			mm.CheckpointLastUnix.Set(time.Now().Unix())
		}
	}
	d.mu.Lock()
	if err != nil {
		d.lastErr = err
	} else {
		d.last = time.Now()
		d.lastErr = nil
	}
	d.mu.Unlock()
	return err
}

func (d *Durable) checkpointLocked() error {
	d.m.mu.Lock()
	defer d.m.mu.Unlock()
	d.mu.Lock()
	logs, degraded := d.logs, d.degraded
	d.mu.Unlock()
	if degraded {
		return errCheckpointSkipped
	}
	if err := wal.WriteFileAtomicFS(d.fs, d.snapPath, d.m.snapshotLocked); err != nil {
		return err
	}
	// Every journal is reset even if one fails: whatever stays behind is
	// covered by the checkpoint and skipped by Recover.
	var first error
	for _, l := range logs {
		if err := l.Reset(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DurabilityHealth is the durability section of a health report.
type DurabilityHealth struct {
	// Status is "ok", or "degraded" when the latest journal append or
	// checkpoint failed and has not been recovered from.
	Status string `json:"status"`
	// Policy is the configured failure policy ("degrade" or "halt").
	Policy string `json:"policy"`
	// LastCheckpointAgeSeconds is the age of the newest successful
	// checkpoint, -1 when none has been written this run.
	LastCheckpointAgeSeconds float64 `json:"last_checkpoint_age_seconds"`
	// WALBytes is the journals' current on-disk size, summed.
	WALBytes int64 `json:"wal_bytes"`
	// ReplayedRecords counts journal records applied during recovery.
	ReplayedRecords int `json:"replayed_records"`
	// DegradedSeconds is how long the current degraded episode has
	// lasted (0 when not in degraded mode).
	DegradedSeconds float64 `json:"degraded_seconds,omitempty"`
	// RearmAttempts counts re-arm attempts this run; Rearms counts the
	// successful ones.
	RearmAttempts uint64 `json:"rearm_attempts,omitempty"`
	Rearms        uint64 `json:"rearms,omitempty"`
	// BacklogRecords is the number of commits buffered while degraded;
	// BacklogOverflow reports the backlog blew its cap (only a
	// checkpoint-class re-arm can recover).
	BacklogRecords  int  `json:"backlog_records,omitempty"`
	BacklogOverflow bool `json:"backlog_overflow,omitempty"`
	// LastError describes the failure behind a degraded status.
	LastError string `json:"last_error,omitempty"`
}

// Health reports the durability state for /healthz.
func (d *Durable) Health() DurabilityHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := DurabilityHealth{
		Status:                   "ok",
		Policy:                   d.policy.String(),
		LastCheckpointAgeSeconds: -1,
		ReplayedRecords:          d.replayed,
		RearmAttempts:            d.rearmAttempts,
		Rearms:                   d.rearms,
		BacklogRecords:           len(d.backlog),
		BacklogOverflow:          d.backlogOverflow,
	}
	if !d.last.IsZero() {
		h.LastCheckpointAgeSeconds = time.Since(d.last).Seconds()
	}
	for _, l := range d.logs {
		h.WALBytes += l.Size()
	}
	if d.degraded {
		h.DegradedSeconds = time.Since(d.degradedSince).Seconds()
	}
	if d.lastErr != nil {
		h.Status = "degraded"
		h.LastError = d.lastErr.Error()
	}
	return h
}
