package shard

import (
	"bufio"
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

// coreMagic opens an unsharded checker's snapshot (core.SaveSnapshot),
// of any version.
var coreMagic = []byte("RTICSNP")

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
	payload := appendField(binary.AppendUvarint(nil, uint64(r.n)), []byte(r.planFingerprint()))
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
		payload = appendField(payload, one.Bytes())
	}
	return writeEnvelope(w, payload)
}

// appendField appends f to a router snapshot's payload, length first.
func appendField(payload, f []byte) []byte {
	return append(binary.AppendUvarint(payload, uint64(len(f))), f...)
}

// writeEnvelope writes payload to w behind the envelope's header.
func writeEnvelope(w io.Writer, payload []byte) (int, error) {
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
		var magic [8]byte
		n, err := io.ReadFull(rd, magic[:])
		if err == nil && magic == snapshotMagic {
			return nil, unshardedRestoreErr(rd)
		}
		c, err := core.LoadSnapshotObserved(s, io.MultiReader(bytes.NewReader(magic[:n]), rd), o)
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

// CountError reports a snapshot written by another number of shards
// than the checker restoring it runs. Written is 1 for an unsharded
// checker's snapshot and 0 for a router's whose count could not be
// read; Configured is 1 for an unsharded checker. It states the fact
// only: how to restart with the right count is the caller's to say.
type CountError struct{ Written, Configured int }

func (e *CountError) Error() string {
	by := "a router"
	switch {
	case e.Written == 1:
		by = "an unsharded checker"
	case e.Written > 1:
		by = fmt.Sprintf("%d shards", e.Written)
	}
	into := "this checker is unsharded"
	if e.Configured > 1 {
		into = fmt.Sprintf("this router is configured with %d", e.Configured)
	}
	return fmt.Sprintf("shard: snapshot was written by %s, %s", by, into)
}

// unshardedRestoreErr reads the shard count of the router snapshot rd
// continues, past its magic, which an unsharded checker was asked to
// restore.
func unshardedRestoreErr(rd io.Reader) error {
	var rest [12]byte // payload length and checksum; the shard count leads the payload
	if _, err := io.ReadFull(rd, rest[:]); err == nil {
		if n, err := binary.ReadUvarint(bufio.NewReader(rd)); err == nil && n > 1 && n < 1<<31 {
			return &CountError{Written: int(n), Configured: 1}
		}
	}
	return &CountError{Configured: 1}
}

// errCoreSnapshot reports an unsharded checker's snapshot where a
// router's was expected.
var errCoreSnapshot = errors.New("shard: snapshot is an unsharded checker's, not a router's")

// readEnvelope reads a router snapshot from rd and returns its payload's
// fields: the shard count, the plan fingerprint and the shard snapshots,
// which alias the payload.
func readEnvelope(rd io.Reader) (n uint64, fp []byte, shards [][]byte, err error) {
	var hdr [20]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return 0, nil, nil, fmt.Errorf("shard: snapshot truncated in header (%d-byte envelope): %w", len(hdr), err)
	}
	if !bytes.Equal(hdr[:8], snapshotMagic[:]) {
		if bytes.HasPrefix(hdr[:8], coreMagic) {
			return 0, nil, nil, errCoreSnapshot
		}
		return 0, nil, nil, fmt.Errorf("shard: not a sharded rtic snapshot (magic %q, want %q)", hdr[:8], snapshotMagic[:])
	}
	size := binary.LittleEndian.Uint64(hdr[8:16])
	if size == 0 || size > maxSnapshotBytes {
		return 0, nil, nil, fmt.Errorf("shard: snapshot header corrupted: implausible payload length %d", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(rd, payload); err != nil {
		return 0, nil, nil, fmt.Errorf("shard: snapshot truncated: header promises %d payload bytes: %w", size, err)
	}
	want := binary.LittleEndian.Uint32(hdr[16:20])
	if got := crc32.Checksum(payload, snapshotCRC); got != want {
		return 0, nil, nil, fmt.Errorf("shard: snapshot corrupted: checksum mismatch (stored %08x, computed %08x)", want, got)
	}

	// The payload passed its checksum, so a malformed field means a
	// writer bug, not disk damage; it is still reported, not trusted.
	malformed := errors.New("shard: snapshot payload malformed")
	n, w := binary.Uvarint(payload)
	if w <= 0 {
		return 0, nil, nil, malformed
	}
	payload = payload[w:]
	field := func() ([]byte, error) {
		l, w := binary.Uvarint(payload)
		if w <= 0 || l > uint64(len(payload)-w) {
			return nil, malformed
		}
		f := payload[w : w+int(l)]
		payload = payload[w+int(l):]
		return f, nil
	}
	if fp, err = field(); err != nil {
		return 0, nil, nil, err
	}
	for i := uint64(0); i < n; i++ {
		f, err := field()
		if err != nil {
			return 0, nil, nil, err
		}
		shards = append(shards, f)
	}
	if len(payload) > 0 {
		return 0, nil, nil, malformed
	}
	return n, fp, shards, nil
}

// RewriteSnapshot copies the router snapshot rd holds to w with each
// shard's core snapshot passed through fn, the shard count and plan
// fingerprint unchanged: how a converter carries a router's checkpoint to
// a new core snapshot format.
func RewriteSnapshot(rd io.Reader, w io.Writer, fn func(shard int, snap []byte) ([]byte, error)) error {
	n, fp, shards, err := readEnvelope(rd)
	if err != nil {
		return err
	}
	payload := appendField(binary.AppendUvarint(nil, n), fp)
	for i, snap := range shards {
		out, err := fn(i, snap)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		payload = appendField(payload, out)
	}
	_, err = writeEnvelope(w, payload)
	return err
}

// LoadSnapshot rebuilds a sealed router over s from a snapshot written
// by SaveSnapshot. shards must equal the snapshot's shard count, and
// the partition plan re-derived from the snapshot's constraints over s
// must equal the one the snapshot was taken under.
func LoadSnapshot(s *schema.Schema, rd io.Reader, shards int) (*Router, error) {
	n, fp, blobs, err := readEnvelope(rd)
	switch {
	case err == errCoreSnapshot:
		return nil, &CountError{Written: 1, Configured: shards}
	case err != nil:
		return nil, err
	case n != uint64(shards):
		return nil, &CountError{Written: int(n), Configured: shards}
	}
	r, err := New(s, shards, coreFactory(s))
	if err != nil {
		return nil, err
	}
	engines := make([]engine.Engine, shards)
	for i, blob := range blobs {
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
