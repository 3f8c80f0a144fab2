package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"time"

	"rtic/internal/check"
	"rtic/internal/fol"
	"rtic/internal/obs"
	"rtic/internal/schema"
	"rtic/internal/tuple"
)

// Snapshot persistence: the whole point of bounded history encoding is
// that the checker's state is small, so a monitor can checkpoint it and
// restart without replaying the history. SaveSnapshot serializes the
// current database state, the clock, and every auxiliary node;
// LoadSnapshot rebuilds an equivalent checker. Constraints travel as
// their canonical surface syntax (the printer/parser round-trip is
// exact), so a snapshot is self-describing up to the schema.

const snapshotVersion = 1

// Snapshot files carry a framing envelope so LoadSnapshot can reject a
// torn or corrupted file with a clear error instead of decoding
// garbage: an 8-byte magic, the payload length (8 bytes LE), a CRC32C
// of the payload (4 bytes LE), then the gob payload.
var snapshotMagic = [8]byte{'R', 'T', 'I', 'C', 'S', 'N', 'P', '1'}

// snapshotCRC is the CRC32C (Castagnoli) polynomial table.
var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// maxSnapshotBytes caps the payload length LoadSnapshot will allocate;
// the whole point of bounded history encoding is that real snapshots
// are far smaller.
const maxSnapshotBytes = 1 << 30

type snapConstraint struct {
	Name   string
	Source string
}

type snapRelation struct {
	Name string
	Rows []tuple.Tuple
}

type snapEntry struct {
	Row   tuple.Tuple
	Times []uint64
}

type snapNode struct {
	Kind       string // "prev" or "since"
	Formula    string // diagnostic only
	Has        bool
	StoredTime uint64
	Rows       []tuple.Tuple // prev: stored enumeration
	Entries    []snapEntry   // since: bounded history encoding
}

type snapshot struct {
	Version     int
	Constraints []snapConstraint
	Index       int
	Now         uint64
	Started     bool
	Relations   []snapRelation
	Nodes       []snapNode
}

// SaveSnapshot writes the checker's complete state to w, handing a
// snapshot.save root span to the span sink when one is attached.
func (c *Checker) SaveSnapshot(w io.Writer) error {
	sink := c.obs.SpanSink()
	if sink == nil {
		return c.saveSnapshot(w)
	}
	cw := &countingWriter{w: w}
	sp := &obs.Span{Name: obs.SpanSnapshotSave, Time: c.now, Start: time.Now()}
	sp.Err = c.saveSnapshot(cw)
	sp.End()
	sp.Detail = fmt.Sprintf("%d bytes", cw.n)
	sink.ObserveSpan(sp)
	return sp.Err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *Checker) saveSnapshot(w io.Writer) error {
	snap := snapshot{
		Version: snapshotVersion,
		Index:   c.index,
		Now:     c.now,
		Started: c.started,
	}
	for _, con := range c.constraints {
		snap.Constraints = append(snap.Constraints, snapConstraint{
			Name:   con.Name,
			Source: con.Formula.String(),
		})
	}
	names := c.schema.Names()
	sort.Strings(names)
	for _, name := range names {
		rel, err := c.cur.Relation(name)
		if err != nil {
			return err
		}
		snap.Relations = append(snap.Relations, snapRelation{Name: name, Rows: rel.Tuples()})
	}
	for _, node := range c.nodes {
		sn, err := encodeNode(node, c.now)
		if err != nil {
			return err
		}
		snap.Nodes = append(snap.Nodes, sn)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return err
	}
	var hdr [20]byte
	copy(hdr[:8], snapshotMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.Checksum(payload.Bytes(), snapshotCRC))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// encodeNode writes each node as if it kept a relation of its own — the
// format predates shared tables: a once/since node writes the family's
// entries its window still holds at now.
func encodeNode(node auxNode, now uint64) (snapNode, error) {
	switch n := node.(type) {
	case *prevNode:
		sn := snapNode{Kind: "prev", Formula: n.n.String(), Has: n.has, StoredTime: n.storedTime}
		if n.has {
			sn.Rows = n.stored.Rows()
		}
		return sn, nil
	case *sinceNode:
		sn := snapNode{Kind: "since", Formula: n.node.String()}
		f := n.fam
		type keyed struct {
			key string
			e   *sinceEntry
		}
		var held []keyed
		f.eachEntry(func(e *sinceEntry) {
			if !f.newest || n.satisfied(e, now) {
				held = append(held, keyed{f.row(e).Key(), e})
			}
		})
		sort.Slice(held, func(i, j int) bool { return held[i].key < held[j].key })
		for _, k := range held {
			e := k.e
			sn.Entries = append(sn.Entries, snapEntry{
				Row:   f.row(e).Clone(),
				Times: append([]uint64(nil), f.anchorsOf(e)...),
			})
		}
		return sn, nil
	default:
		return snapNode{}, fmt.Errorf("core: cannot snapshot node %T", node)
	}
}

// LoadSnapshot rebuilds a checker over s from a snapshot written by
// SaveSnapshot. The schema must define every relation the snapshot
// references.
func LoadSnapshot(s *schema.Schema, r io.Reader) (*Checker, error) {
	return LoadSnapshotObserved(s, r, nil)
}

// LoadSnapshotObserved is LoadSnapshot with the observer attached to
// the restored checker before it starts answering; the restore itself
// goes to the span sink as a snapshot.restore root span.
func LoadSnapshotObserved(s *schema.Schema, r io.Reader, o *obs.Observer) (*Checker, error) {
	start := time.Now()
	c, err := loadSnapshot(s, r)
	if sink := o.SpanSink(); sink != nil {
		sp := &obs.Span{Name: obs.SpanSnapshotRestore, Start: start, Dur: time.Since(start), Err: err}
		if c != nil {
			sp.Time = c.now
			sp.Detail = fmt.Sprintf("%d states", c.index)
		}
		sink.ObserveSpan(sp)
	}
	if err != nil {
		return nil, err
	}
	c.SetObserver(o)
	return c, nil
}

func loadSnapshot(s *schema.Schema, r io.Reader) (*Checker, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: snapshot truncated in header (%d-byte envelope): %w", len(hdr), err)
	}
	if !bytes.Equal(hdr[:8], snapshotMagic[:]) {
		return nil, fmt.Errorf("core: not an rtic snapshot (magic %q, want %q)", hdr[:8], snapshotMagic[:])
	}
	size := binary.LittleEndian.Uint64(hdr[8:16])
	if size == 0 || size > maxSnapshotBytes {
		return nil, fmt.Errorf("core: snapshot header corrupted: implausible payload length %d", size)
	}
	want := binary.LittleEndian.Uint32(hdr[16:20])
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("core: snapshot truncated: header promises %d payload bytes: %w", size, err)
	}
	if got := crc32.Checksum(payload, snapshotCRC); got != want {
		return nil, fmt.Errorf("core: snapshot corrupted: checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, this build reads %d", snap.Version, snapshotVersion)
	}
	c := New(s)
	for _, sc := range snap.Constraints {
		con, err := check.Parse(sc.Name, sc.Source, s)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot constraint %s: %w", sc.Name, err)
		}
		if err := c.AddConstraint(con); err != nil {
			return nil, err
		}
	}
	if len(c.nodes) != len(snap.Nodes) {
		return nil, fmt.Errorf("core: snapshot has %d auxiliary nodes, compiled constraints need %d",
			len(snap.Nodes), len(c.nodes))
	}
	for _, sr := range snap.Relations {
		rel, err := c.cur.Relation(sr.Name)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot relation %q not in schema: %w", sr.Name, err)
		}
		for _, row := range sr.Rows {
			if _, err := rel.Insert(row); err != nil {
				return nil, err
			}
		}
	}
	for i, sn := range snap.Nodes {
		if err := decodeNode(c.nodes[i], sn); err != nil {
			return nil, err
		}
	}
	c.index = snap.Index
	c.now = snap.Now
	c.started = snap.Started
	return c, nil
}

func decodeNode(node auxNode, sn snapNode) error {
	switch n := node.(type) {
	case *prevNode:
		if sn.Kind != "prev" {
			return fmt.Errorf("core: snapshot node kind %q, compiled node is prev (%s)", sn.Kind, n.n.String())
		}
		n.has = sn.Has
		n.storedTime = sn.StoredTime
		if sn.Has {
			b := newBindingsForRows(n.fvars, sn.Rows)
			if b == nil {
				return fmt.Errorf("core: snapshot prev rows have wrong arity for %s", n.n.String())
			}
			n.stored = b
		}
		return nil
	case *sinceNode:
		if sn.Kind != "since" {
			return fmt.Errorf("core: snapshot node kind %q, compiled node is since (%s)", sn.Kind, n.node.String())
		}
		// The members of a family each wrote the part of one table their
		// window held; the table is their union, an entry's anchor the
		// newest any of them wrote. An epoch per node tells an entry another
		// member brought from one this node repeats.
		f := n.fam
		f.epoch++
		for _, e := range sn.Entries {
			if len(e.Row) != len(f.vars) {
				return fmt.Errorf("core: snapshot entry arity %d for node %s (want %d)",
					len(e.Row), n.node.String(), len(f.vars))
			}
			// A snapshot written before the newest-anchor rule holds every
			// in-window timestamp; keep what this family's rule keeps.
			times := e.Times
			if len(times) > 1 && f.newest {
				times = times[len(times)-1:]
			} else if len(times) > 1 && n.iv.Unbounded {
				times = times[:1]
			}
			have := f.find(e.Row)
			switch {
			case have == nil:
				var err error
				if have, err = f.take(e.Row); err != nil {
					return err
				}
				have.times, have.liveIx, have.keep = append(have.times, times...), -1, true
				f.insert(have)
			case have.seen == f.epoch || !f.newest:
				return fmt.Errorf("core: snapshot repeats entry %s of node %s", e.Row.Key(), n.node.String())
			case len(times) == 1 && len(have.times) == 1 && times[0] > have.times[0]:
				have.times[0] = times[0]
			}
			have.seen = f.epoch
		}
		return nil
	default:
		return fmt.Errorf("core: cannot restore node %T", node)
	}
}

func newBindingsForRows(vars []string, rows []tuple.Tuple) *fol.Bindings {
	b := fol.NewBindings(vars)
	for _, row := range rows {
		if len(row) != len(vars) {
			return nil
		}
		if err := b.AddRow(row); err != nil {
			return nil
		}
	}
	return b
}
