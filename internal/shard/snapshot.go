package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strings"
	"time"

	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/obs"
	"rtic/internal/schema"
)

// Router snapshots. Every shard steps at every commit timestamp, so
// "all shards after commit t" is a consistent cut of the whole router:
// a snapshot is the N per-shard core snapshots (see core.SaveSnapshot)
// behind one envelope — magic, payload length (8 bytes LE), CRC32C of
// the payload (4 bytes LE), then the payload: shard count, the plan
// fingerprint, and the shard snapshots, each length-prefixed (uvarint).
// The fingerprint pins what the per-shard states mean: a tuple lives on
// the shard its relation's partition column hashes to, so state saved
// under one plan or shard count is garbage under another.

var snapshotMagic = [8]byte{'R', 'T', 'I', 'C', 'S', 'H', 'D', '1'}

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// maxSnapshotBytes caps the payload length LoadSnapshot will allocate.
const maxSnapshotBytes = 1 << 30

// planFingerprint renders the plan canonically: every relation's
// partition column and every constraint's placement.
func (r *Router) planFingerprint() string {
	rels := make([]string, 0, len(r.plan.Rels))
	for name := range r.plan.Rels {
		rels = append(rels, name)
	}
	sort.Strings(rels)
	var b strings.Builder
	for _, name := range rels {
		if p := r.plan.Rels[name]; p.Partitioned {
			fmt.Fprintf(&b, "%s/%d ", name, p.Column)
		} else {
			fmt.Fprintf(&b, "%s/global ", name)
		}
	}
	for i, cp := range r.plan.Cons {
		if cp.Partitioned {
			fmt.Fprintf(&b, "%s:%s ", r.cons[i].Name, cp.KeyVar)
		} else {
			fmt.Fprintf(&b, "%s:global ", r.cons[i].Name)
		}
	}
	return strings.TrimSuffix(b.String(), " ")
}

// SaveSnapshot writes the router's complete state to w. It seals the
// router (like a first commit would), needs every shard engine to be
// the incremental checker, and refuses a router latched broken — its
// shards may have diverged. With a span sink attached the save is one
// snapshot.save root span, as on core.Checker: the shard engines are
// unobserved, so none of theirs appears. The caller serializes it with
// Step.
func (r *Router) SaveSnapshot(w io.Writer) error {
	sp := &obs.Span{Name: obs.SpanSnapshotSave, Time: r.now, Start: time.Now()}
	n, err := r.saveSnapshot(w)
	if sink := r.obs.SpanSink(); sink != nil {
		sp.End()
		sp.Detail, sp.Err = fmt.Sprintf("%d bytes", n), err
		sink.ObserveSpan(sp)
	}
	return err
}

// saveSnapshot is SaveSnapshot without the span; it returns the bytes
// written.
func (r *Router) saveSnapshot(w io.Writer) (int, error) {
	if r.broken != nil {
		return 0, fmt.Errorf("shard: cannot snapshot after earlier shard failure: %w", r.broken)
	}
	if err := r.seal(); err != nil {
		return 0, err
	}
	payload := binary.AppendUvarint(nil, uint64(r.n))
	fp := r.planFingerprint()
	payload = binary.AppendUvarint(payload, uint64(len(fp)))
	payload = append(payload, fp...)
	var one bytes.Buffer
	for i, e := range r.engines {
		c, ok := e.(*core.Checker)
		if !ok {
			return 0, fmt.Errorf("shard: snapshots need the incremental engine, shard %d runs %T", i, e)
		}
		one.Reset()
		if err := c.SaveSnapshot(&one); err != nil {
			return 0, fmt.Errorf("shard %d: %w", i, err)
		}
		payload = binary.AppendUvarint(payload, uint64(one.Len()))
		payload = append(payload, one.Bytes()...)
	}
	var hdr [20]byte
	copy(hdr[:8], snapshotMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.Checksum(payload, snapshotCRC))
	n, err := w.Write(hdr[:])
	if err != nil {
		return n, err
	}
	m, err := w.Write(payload)
	return n + m, err
}

// Restore is Build's counterpart for a snapshot: it reads what the
// checker Build would make for shards wrote — a core snapshot for
// shards <= 1, a router snapshot (LoadSnapshot) otherwise — and
// attaches o before the checker answers. With a span sink on o the
// restore is one snapshot.restore root span, either shape.
func Restore(s *schema.Schema, rd io.Reader, shards int, o *obs.Observer) (Checker, error) {
	if shards <= 1 {
		c, err := core.LoadSnapshotObserved(s, rd, o)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	start := time.Now()
	r, err := LoadSnapshot(s, rd, shards)
	if sink := o.SpanSink(); sink != nil {
		sp := &obs.Span{Name: obs.SpanSnapshotRestore, Start: start, Dur: time.Since(start), Err: err}
		if r != nil {
			sp.Time, sp.Detail = r.now, fmt.Sprintf("%d states", r.index)
		}
		sink.ObserveSpan(sp)
	}
	if err != nil {
		return nil, err
	}
	r.SetObserver(o)
	return r, nil
}

// LoadSnapshot rebuilds a sealed router over s from a snapshot written
// by SaveSnapshot. shards must equal the snapshot's shard count, and
// the partition plan re-derived from the snapshot's constraints over s
// must equal the one the snapshot was taken under.
func LoadSnapshot(s *schema.Schema, rd io.Reader, shards int) (*Router, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return nil, fmt.Errorf("shard: snapshot truncated in header (%d-byte envelope): %w", len(hdr), err)
	}
	if !bytes.Equal(hdr[:8], snapshotMagic[:]) {
		return nil, fmt.Errorf("shard: not a sharded rtic snapshot (magic %q, want %q)", hdr[:8], snapshotMagic[:])
	}
	size := binary.LittleEndian.Uint64(hdr[8:16])
	if size == 0 || size > maxSnapshotBytes {
		return nil, fmt.Errorf("shard: snapshot header corrupted: implausible payload length %d", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(rd, payload); err != nil {
		return nil, fmt.Errorf("shard: snapshot truncated: header promises %d payload bytes: %w", size, err)
	}
	want := binary.LittleEndian.Uint32(hdr[16:20])
	if got := crc32.Checksum(payload, snapshotCRC); got != want {
		return nil, fmt.Errorf("shard: snapshot corrupted: checksum mismatch (stored %08x, computed %08x)", want, got)
	}

	// The payload passed its checksum, so a malformed field means a
	// writer bug, not disk damage; it is still reported, not trusted.
	malformed := errors.New("shard: snapshot payload malformed")
	uvarint := func() (uint64, error) {
		v, w := binary.Uvarint(payload)
		if w <= 0 {
			return 0, malformed
		}
		payload = payload[w:]
		return v, nil
	}
	field := func() ([]byte, error) {
		n, err := uvarint()
		if err != nil || n > uint64(len(payload)) {
			return nil, malformed
		}
		f := payload[:n]
		payload = payload[n:]
		return f, nil
	}
	n, err := uvarint()
	if err != nil {
		return nil, err
	}
	if n != uint64(shards) {
		return nil, fmt.Errorf("shard: snapshot was written by %d shards, this router is configured with %d", n, shards)
	}
	fp, err := field()
	if err != nil {
		return nil, err
	}

	r, err := NewMode(s, shards, engine.Incremental)
	if err != nil {
		return nil, err
	}
	engines := make([]engine.Engine, shards)
	for i := range engines {
		blob, err := field()
		if err != nil {
			return nil, err
		}
		c, err := core.LoadSnapshot(s, bytes.NewReader(blob))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if i == GlobalShard {
			// The global shard runs every constraint, in installation order.
			r.cons = append(r.cons, c.Constraints()...)
			r.now, r.index, r.started = c.Now(), c.Len(), c.Len() > 0
		} else if c.Now() != r.now || c.Len() != r.index {
			return nil, fmt.Errorf("shard: snapshot is not a consistent cut: shard 0 is at t=%d after %d commits, shard %d at t=%d after %d",
				r.now, r.index, i, c.Now(), c.Len())
		}
		engines[i] = c
	}
	if r.plan, err = Analyze(s, r.cons); err != nil {
		return nil, err
	}
	if got := r.planFingerprint(); got != string(fp) {
		return nil, fmt.Errorf("shard: snapshot was taken under partition plan %q, this schema and constraint set plan %q", fp, got)
	}
	r.adopt(engines)
	return r, nil
}
