package monitor

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"rtic/internal/check"
	"rtic/internal/obs"
	"rtic/internal/storage"
	"rtic/internal/vfs"
	"rtic/internal/wal"
)

// DurableOption configures a durability manager at construction time.
type DurableOption func(*durableOptions)

type durableOptions struct {
	fs   vfs.FS
	halt func(error)
}

// WithDurableFS selects the filesystem checkpoints go through (default
// vfs.OS); a fresh journal segment opens through its journal's own.
// Fault-injection tests substitute a vfs.FaultFS.
func WithDurableFS(fsys vfs.FS) DurableOption {
	return func(o *durableOptions) {
		if fsys != nil {
			o.fs = fsys
		}
	}
}

// WithHaltFunc makes a journaling failure halt instead of degrade: the
// manager calls h (at most once) on the first durability failure, so a
// daemon that must never acknowledge a non-durable commit can shut down
// instead of serving degraded. h may be called from the commit path or
// the durability worker and must not block. Without it a failure
// degrades (see Durable).
func WithHaltFunc(h func(error)) DurableOption {
	return func(o *durableOptions) { o.halt = h }
}

// The durability worker's schedule (see Start): while healthy, a Sync
// every syncInterval; while degraded, a rotation retried after a delay
// that starts at rearmMin and doubles per failed attempt up to
// rearmMax, with jitter.
const (
	syncInterval = 100 * time.Millisecond
	rearmMin     = 50 * time.Millisecond
	rearmMax     = 5 * time.Second
)

// Durable is the durability manager around a monitor: it journals every
// accepted transaction to write-ahead logs — one for an unsharded
// monitor, one per shard (each receiving that shard's slice of the
// transaction) for a sharded one — periodically rotates an atomic
// checkpoint that truncates the journals, and replays the journal tails
// over the newest checkpoint on startup.
//
// Crash-safety argument: a commit appends exactly one record to every
// journal (empty sub-transactions included) under the commit lock,
// before the next commit can start, so the journals always hold every
// accepted transaction since the last checkpoint and record j of every
// journal carries the same timestamp. A crash can tear that alignment
// only at the tails. Under wal.SyncAlways every append is fsynced before
// the next commit, so the journals differ by the last commit at most:
// some got it, others did not. Under wal.SyncBatch a power cut keeps any
// prefix of each journal's unsynced records, so the journals can end
// several commits apart, either one ahead. A rotation writes the
// snapshot to a temp file, fsyncs, renames it over the live path, and
// only then empties the journals one by one — a crash before the
// rename leaves the old checkpoint plus journals that cover everything
// after it; a crash after the rename, before or between the journals,
// leaves records the recovery skips by timestamp (timestamps are
// strictly increasing, so "t at or before the checkpoint's clock"
// identifies them exactly).
// Recovery therefore drops the covered records of each journal first,
// then replays the common prefix of what remains, verifying the
// timestamps agree record by record, and truncates the longer journals
// back to that prefix — discarding only commits that did not reach
// every journal's disk.
//
// One rotation is the only code that empties journals: it writes the
// snapshot atomically, then empties every journal — Reset in place
// while the log is usable, so a caller's *wal.Log handle keeps working,
// or a fresh <journal>.rearm segment renamed over it once the log
// latched broken. Checkpoint runs it, whether a caller or the
// durability worker calls it.
//
// The manager has at most one background goroutine, the durability
// worker, and only after Start: it makes wal.SyncBatch appends durable
// (Sync), checkpoints periodically and retries the rotation while
// degraded. Without Start nothing runs in the background, and the
// caller drives Sync and Checkpoint. The journals themselves are
// passive: every journal failure returns to the manager's own call —
// the journal hook, Sync or the rotation — which reacts to it.
//
// A journaling failure halts when a halt function is configured (see
// WithHaltFunc). Otherwise the manager enters degraded mode: commits keep
// being checked and acknowledged — as non-durable — and the journal
// hook stops appending, so the journals end at the failure and nothing
// is buffered. The first rotation that succeeds re-arms: its checkpoint
// captures the whole state, degraded-window commits included, so no
// acknowledged-durable commit is ever lost and the degraded window
// becomes durable again. A manager without a checkpoint path cannot
// rotate: it stays degraded until restart.
type Durable struct {
	m        *Monitor
	snapPath string // "": journal-only durability
	fs       vfs.FS
	halt     func(error) // nil: a failure degrades
	haltOnce sync.Once

	// one is the journal hook's parts slice when there is one journal:
	// the transaction passes whole. With several, the hook journals the
	// parts the router split the commit into (shard.Router.Parts). The
	// hook runs under the commit lock, so it has a single user.
	one [1]*storage.Transaction

	mu sync.Mutex
	// logs holds no journal (checkpoint-only durability), one (unsharded)
	// or one per shard, index == shard id — record i of a commit goes to
	// logs[i], so the order is load-bearing across restarts. A rotation
	// that swaps in a fresh segment replaces the slice; it is never edited
	// in place.
	logs          []*wal.Log
	last          time.Time // last successful checkpoint
	lastErr       error     // latest durability failure, nil when healthy
	replayed      int
	degraded      bool
	degradedSince time.Time
	rearmAttempts uint64
	rearms        uint64

	stop chan struct{} // closed to end the worker; nil when none runs
	done chan struct{} // closed when the worker has ended
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
	if len(logs) != 0 && len(logs) != m.Shards() {
		return nil, fmt.Errorf("monitor: durability wants %d journals (one per shard), got %d", m.Shards(), len(logs))
	}
	for i, l := range logs {
		if l == nil {
			return nil, fmt.Errorf("monitor: journal %d is nil", i)
		}
	}
	o := durableOptions{fs: vfs.OS}
	for _, opt := range opts {
		opt(&o)
	}
	return &Durable{m: m, logs: logs, snapPath: snapPath, fs: o.fs, halt: o.halt}, nil
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
	// reported holds each replayed commit's violations, its storage the
	// next one's.
	var reported []check.Violation
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
		vs, err := d.m.ApplyInto(t, tx, reported)
		if err != nil {
			return fmt.Errorf("monitor: replaying record at t=%d: %w", t, err)
		}
		reported = vs
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
// journal per commit. A failed append halts or degrades (see
// onFailure).
func (d *Durable) Attach() {
	if len(d.currentLogs()) != 0 {
		d.m.SetJournal(d.journalHook)
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
// While degraded it journals nothing: the rotation that re-arms writes
// a checkpoint covering the commit instead.
func (d *Durable) journalHook(t uint64, tx *storage.Transaction) {
	d.mu.Lock()
	logs, degraded := d.logs, d.degraded
	d.mu.Unlock()
	if degraded {
		return
	}
	parts := d.one[:]
	if rtr := d.m.rtr; rtr == nil {
		parts[0] = tx
	} else {
		parts = rtr.Parts()
	}
	for i, part := range parts {
		if err := logs[i].AppendTx(t, part); err != nil {
			d.onFailure(logs[i], journalErr(len(logs), i, err))
		}
	}
}

// Sync makes every journal's batched appends durable: under
// wal.SyncBatch a commit is durable once a Sync after it returns. A
// journal with nothing appended since its last fsync (any
// wal.SyncAlways journal) costs nothing. A failure halts or degrades as
// a failed append does, and the first is returned.
func (d *Durable) Sync() error {
	logs := d.currentLogs()
	var first error
	for i, l := range logs {
		if err := l.Sync(); err != nil {
			err = journalErr(len(logs), i, err)
			d.onFailure(l, err)
			if first == nil {
				first = err
			}
		}
	}
	return first
}

// onFailure reacts to a failure of journal l: it calls the halt
// function once when there is one, and degrades otherwise. A journal
// that a rotation has replaced since is no failure of the manager's:
// the checkpoint that replaced it covers its records. It is called from
// the commit path, Sync and the rotation; it only takes d.mu.
func (d *Durable) onFailure(l *wal.Log, err error) {
	d.mu.Lock()
	if !slices.Contains(d.logs, l) {
		d.mu.Unlock()
		return
	}
	d.lastErr = err
	if d.halt != nil {
		d.mu.Unlock()
		d.haltOnce.Do(func() { d.halt(err) })
		return
	}
	if !d.degraded {
		d.degraded = true
		d.degradedSince = time.Now()
		if mm := d.metrics(); mm != nil {
			mm.DurabilityDegraded.Set(1)
		}
	}
	d.mu.Unlock()
}

// rearmJitter spreads retries over [d/2, d) so managers degraded by a
// shared cause do not retry in lockstep.
func rearmJitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d/2))) //nolint:gosec — jitter, not crypto
}

// tryRearm is one re-arm attempt of the worker: a rotation, unless a
// Checkpoint re-armed the manager while the worker waited.
func (d *Durable) tryRearm() bool {
	d.mu.Lock()
	if !d.degraded {
		d.mu.Unlock()
		return true
	}
	d.rearmAttempts++
	d.mu.Unlock()
	if mm := d.metrics(); mm != nil {
		mm.RearmAttempts.Inc()
	}
	return d.Checkpoint() == nil
}

// rearmSuffix names the staging segment a rotation opens beside each
// latched journal.
const rearmSuffix = ".rearm"

// finishRearmLocked clears the degraded state (caller holds d.mu and
// the commit lock).
func (d *Durable) finishRearmLocked() {
	d.degraded = false
	d.degradedSince = time.Time{}
	d.rearms++
	if mm := d.metrics(); mm != nil {
		mm.DurabilityDegraded.Set(0)
		mm.Rearms.Inc()
	}
}

// Start runs the durability worker until Stop. While the manager is
// healthy the worker calls Sync every syncInterval and Checkpoint every
// interval (0: never; periodic checkpoints need a checkpoint path).
// While it is degraded the worker retries the rotation instead, after a
// jittered delay from rearmMin doubling up to rearmMax, until one
// re-arms; a manager without a checkpoint path cannot rotate and keeps
// to its Sync ticks.
func (d *Durable) Start(interval time.Duration) {
	d.stop, d.done = make(chan struct{}), make(chan struct{})
	go d.work(interval, d.stop, d.done)
}

// work is the durability worker.
func (d *Durable) work(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	periodic := interval > 0 && d.snapPath != ""
	start := time.Now()
	nextSync, nextCkpt := start.Add(syncInterval), start.Add(interval)
	backoff := rearmMin
	// One timer serves every wait. It is stopped here, and each wait
	// below ends in a stop (the worker returns) or in a receive from
	// t.C, so every Reset finds it stopped or fired and drained.
	t := time.NewTimer(time.Hour)
	t.Stop()
	for {
		d.mu.Lock()
		rearm := d.degraded && d.snapPath != ""
		d.mu.Unlock()
		wait := time.Until(nextSync)
		switch {
		case rearm:
			wait = rearmJitter(backoff)
		case periodic && nextCkpt.Before(nextSync):
			wait = time.Until(nextCkpt)
		}
		t.Reset(wait)
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
		now := time.Now()
		switch {
		case rearm:
			if d.tryRearm() {
				backoff, nextCkpt = rearmMin, now.Add(interval)
			} else {
				backoff = min(2*backoff, rearmMax)
			}
		case periodic && !now.Before(nextCkpt):
			d.Checkpoint() //rtic:errok failures are recorded in Health and CheckpointErrors; the worker retries
			nextCkpt = now.Add(interval)
		case !now.Before(nextSync):
			d.Sync() //rtic:errok a failure halts or degrades inside Sync and shows in Health
			nextSync = now.Add(syncInterval)
		}
	}
}

// Stop ends the worker, if one runs. A manager stopped while degraded
// stays degraded until a Checkpoint re-arms it — call Checkpoint for a
// clean shutdown.
func (d *Durable) Stop() {
	if d.stop != nil {
		close(d.stop)
		<-d.done
		d.stop = nil
	}
}

// CloseLogs flushes and closes the manager's current journals — which a
// rotation may have swapped since the caller opened them — and returns
// the first error. Call it after Stop.
func (d *Durable) CloseLogs() error {
	var first error
	for _, l := range d.currentLogs() {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Checkpoint rotates: it atomically writes a snapshot to the checkpoint
// path and empties the journals, holding commits out for the duration —
// bounded history encoding keeps the state (and so the pause) small.
// While degraded, a Checkpoint that returns nil has re-armed.
func (d *Durable) Checkpoint() error {
	if d.snapPath == "" {
		return fmt.Errorf("monitor: no checkpoint path configured")
	}
	mm := d.metrics()
	start := time.Now()
	d.m.mu.Lock()
	defer d.m.mu.Unlock()
	err := d.rotateLocked()
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
	defer d.mu.Unlock()
	if err != nil {
		d.lastErr = err
		return err
	}
	d.last = time.Now()
	d.lastErr = nil
	if d.degraded {
		d.finishRearmLocked()
	}
	return nil
}

// rotateLocked is the rotation (caller holds the commit lock). A fresh
// segment is staged beside every latched journal before the snapshot is
// written, so a failure up to the snapshot's rename leaves the old
// checkpoint and journals in place. After it, the checkpoint supersedes
// every journaled record, so a crash leaves a recoverable set however
// many journals were already emptied: Recover skips covered records by
// timestamp, journal by journal.
func (d *Durable) rotateLocked() error {
	logs := d.currentLogs()
	fresh := make([]*wal.Log, len(logs))
	drop := func(i int) {
		fresh[i].Close()                          //rtic:errok discarding an unused segment; the failure that caused it is reported
		d.fs.Remove(logs[i].Path() + rearmSuffix) //rtic:errok best-effort cleanup; the next rotation clears a leftover segment
		fresh[i] = nil
	}
	abort := func(err error) error {
		for i := range fresh {
			if fresh[i] != nil {
				drop(i)
			}
		}
		return err
	}
	for i, l := range logs {
		if l.Err() == nil {
			continue
		}
		p := l.Path() + rearmSuffix
		// A leftover segment from an earlier failed attempt would make the
		// fresh open replay stale records; clear it first.
		if err := d.fs.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return abort(err)
		}
		seg, err := l.Reopen(p)
		if err != nil {
			return abort(err)
		}
		fresh[i] = seg
	}
	if err := wal.WriteFileAtomicFS(d.fs, d.snapPath, d.m.snapshotLocked); err != nil {
		return abort(err)
	}
	// Every journal is emptied even if one fails: whatever stays behind is
	// covered by the checkpoint. A journal whose fresh segment did not
	// rename stays latched, so the next rotation replaces it again.
	var first error
	next := append([]*wal.Log(nil), logs...)
	for i, l := range logs {
		if fresh[i] == nil {
			if err := l.Reset(); err != nil {
				err = journalErr(len(logs), i, err)
				d.onFailure(l, err)
				if first == nil {
					first = err
				}
			}
			continue
		}
		if err := fresh[i].Rename(l.Path()); err != nil {
			if first == nil {
				first = err
			}
			drop(i)
			continue
		}
		next[i] = fresh[i]
	}
	d.mu.Lock()
	d.logs = next
	d.mu.Unlock()
	for i, l := range logs {
		if next[i] != l {
			l.Close() //rtic:errok the replaced journal is superseded by the checkpoint; its latched error has been reported
		}
	}
	return first
}

// DurabilityHealth is the durability section of a health report.
type DurabilityHealth struct {
	// Status is "ok", or "degraded" when the latest journal append or
	// checkpoint failed and has not been recovered from.
	Status string `json:"status"`
	// Policy is the reaction to a journaling failure: "halt" with a
	// halt function (WithHaltFunc), "degrade" without.
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
	// RearmAttempts counts the worker's re-arm attempts this run; Rearms counts
	// the rotations that ended a degraded episode.
	RearmAttempts uint64 `json:"rearm_attempts,omitempty"`
	Rearms        uint64 `json:"rearms,omitempty"`
	// LastError describes the failure behind a degraded status.
	LastError string `json:"last_error,omitempty"`
}

// Health reports the durability state for /healthz.
func (d *Durable) Health() DurabilityHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := DurabilityHealth{
		Status:                   "ok",
		Policy:                   "degrade",
		LastCheckpointAgeSeconds: -1,
		ReplayedRecords:          d.replayed,
		RearmAttempts:            d.rearmAttempts,
		Rearms:                   d.rearms,
	}
	if d.halt != nil {
		h.Policy = "halt"
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
