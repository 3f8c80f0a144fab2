package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"rtic/internal/check"
	"rtic/internal/fol"
	"rtic/internal/obs"
	"rtic/internal/relation"
	"rtic/internal/schema"
	"rtic/internal/tuple"
	"rtic/internal/wal"
)

// Snapshot persistence: the whole point of bounded history encoding is
// that the checker's state is small, so a monitor can checkpoint it and
// restart without replaying the history. A snapshot is that state as it
// stands — the database, the clock, every once/since family's table with
// its live entries and anchor log, every prev node's stored enumeration
// and every constraint's answer — so a loaded checker takes its next
// commit as the one that saved it would, with nothing to re-derive.
// Constraints travel as their canonical surface syntax (the
// printer/parser round-trip is exact), so a snapshot is self-describing
// up to the schema.
//
// Version 2 is an 8-byte magic, then records in the journal's framing
// and codec (internal/wal), times written as their ages at the
// snapshot's clock and entries as their places in their table's record:
//
//	header      version, commits, clock; how many constraint and relation records follow
//	constraint  name, source, whether its denial has been checked, the denial's answer
//	relation    name, rows (relations in name order)
//	table       per once/since family, in the order the constraints compile
//	            them: its clock age and primed flag; its entries, each a row, its
//	            chain flag and timestamps; the live entries; the anchor log from
//	            its slowest reader on; every reader's cursor
//	prev        per prev node: whether it stores an enumeration, that enumeration's
//	            age and rows, and the answer served last (the stored one, or rows)
//
// Version 1 (magic RTICSNP1, a gob payload) is refused here; package
// snapv1 rewrites it as version 2.
var snapshotMagic = [8]byte{'R', 'T', 'I', 'C', 'S', 'N', 'P', '2'}

const (
	snapshotVersion = 2
	// maxRecordBytes caps one record: a relation's or a table's rows.
	maxRecordBytes = 1 << 30
	// maxKeptSnapshot bounds the buffer a checker keeps between saves, so
	// one outsized state does not stay pinned.
	maxKeptSnapshot = 1 << 20
)

// SaveSnapshot writes the checker's complete state to w with one Write,
// handing a snapshot.save root span to the span sink when one is
// attached. It encodes into a buffer the checker keeps, so a save of a
// state no larger than the last allocates nothing.
func (c *Checker) SaveSnapshot(w io.Writer) error {
	sink := c.obs.SpanSink()
	var sp *obs.Span
	if sink != nil {
		sp = &obs.Span{Name: obs.SpanSnapshotSave, Time: c.now, Start: time.Now()}
	}
	b, err := c.encodeSnapshot()
	if err == nil {
		_, err = w.Write(b)
	}
	if sp != nil {
		sp.End()
		sp.Detail, sp.Err = fmt.Sprintf("%d bytes", len(b)), err
		sink.ObserveSpan(sp)
	}
	return err
}

// records builds a snapshot's records: open one, append its payload,
// seal it.
type records struct {
	b     []byte
	start int
	err   error
}

func (r *records) open() { r.start, r.b = len(r.b), wal.OpenFrame(r.b) }

func (r *records) seal() {
	if err := wal.SealFrame(r.b, r.start, maxRecordBytes); err != nil && r.err == nil {
		r.err = err
	}
}

func (r *records) uvarint(v uint64) { r.b = binary.AppendUvarint(r.b, v) }

func (r *records) flag(f bool) { r.b = wal.AppendFlag(r.b, f) }

func (r *records) rows(rel *relation.Relation) {
	r.uvarint(uint64(rel.Len()))
	rel.Each(func(row tuple.Tuple) bool {
		r.b = wal.AppendRow(r.b, row)
		return true
	})
}

// bindings writes bs's rows; nil is the empty set.
func (r *records) bindings(bs *fol.Bindings) {
	if bs == nil {
		r.uvarint(0)
		return
	}
	r.uvarint(uint64(bs.Len()))
	bs.EachRow(func(row tuple.Tuple) bool {
		r.b = wal.AppendRow(r.b, row)
		return true
	})
}

func (c *Checker) encodeSnapshot() ([]byte, error) {
	r := records{b: append(c.snap[:0], snapshotMagic[:]...)}
	r.open()
	for _, v := range [...]uint64{snapshotVersion, uint64(c.index), c.now, uint64(len(c.constraints)), uint64(len(c.relNames))} {
		r.uvarint(v)
	}
	r.seal()
	for i, con := range c.constraints {
		cs := c.conStates[i]
		r.open()
		r.b = wal.AppendString(wal.AppendString(r.b, con.Name), cs.source)
		r.flag(cs.checked)
		r.bindings(cs.ans)
		r.seal()
	}
	for _, name := range c.relNames {
		rel, err := c.cur.Relation(name)
		if err != nil {
			return nil, err
		}
		r.open()
		r.b = wal.AppendString(r.b, name)
		r.rows(rel)
		r.seal()
	}
	for _, node := range c.nodes {
		switch n := node.(type) {
		case *sinceNode:
			if n.idx == 0 {
				r.open()
				c.snapIdx = n.fam.encode(&r, c.now, c.snapIdx)
				r.seal()
			}
		case *prevNode:
			r.open()
			n.encode(&r, c.now)
			r.seal()
		}
	}
	if c.snap = r.b; cap(r.b) > maxKeptSnapshot {
		c.snap = nil
	}
	return r.b, r.err
}

// encode writes the family's table record; idx is scratch, returned
// for the next table, that maps a slot to its entry's place in the
// record.
func (f *sinceFamily) encode(r *records, now uint64, idx []int32) []int32 {
	idx = append(idx[:0], make([]int32, len(f.entries))...)
	r.uvarint(now - f.lastT)
	r.flag(f.primed)
	r.uvarint(uint64(f.rows.Len()))
	n := int32(0)
	f.rows.EachSlot(func(s int32) bool {
		e := f.entries[s]
		idx[s], n = n, n+1
		r.b = wal.AppendRow(r.b, f.rows.Row(s))
		r.flag(e.keep)
		r.uvarint(uint64(len(e.times)))
		for _, tm := range e.times {
			r.uvarint(now - tm)
		}
		return true
	})
	r.uvarint(uint64(len(f.live)))
	for _, e := range f.live {
		r.uvarint(uint64(idx[e.slot]))
	}
	// The log from its slowest reader on, without the anchors of dropped
	// entries; each cursor counts the anchors kept before it.
	from := f.anchors.end()
	if f.lo > 0 {
		from = min(from, f.enterCur)
	}
	for _, m := range f.members {
		if !m.iv.Unbounded {
			from = min(from, m.cursor)
		}
	}
	kept := func(to int) (k int) {
		for pos := from; pos < to; pos++ {
			if !f.anchors.at(pos).stale() {
				k++
			}
		}
		return k
	}
	r.uvarint(uint64(kept(f.anchors.end())))
	for pos := from; pos < f.anchors.end(); pos++ {
		if a := f.anchors.at(pos); !a.stale() {
			r.uvarint(now - a.tm)
			r.uvarint(uint64(idx[a.e.slot]))
		}
	}
	r.uvarint(uint64(kept(f.enterCur)))
	for _, m := range f.members {
		r.uvarint(uint64(kept(m.cursor)))
	}
	return idx
}

func (p *prevNode) encode(r *records, now uint64) {
	r.flag(p.has)
	if p.has {
		r.uvarint(now - p.storedTime)
		r.bindings(p.stored)
	}
	served := p.has && p.lastServed == p.stored
	r.flag(served)
	if !served {
		r.bindings(p.lastServed)
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

// snapReader hands out a snapshot's records in turn.
type snapReader struct {
	rest []byte
	read int
	cur  wal.Cursor // over the record being read
}

// next returns a cursor over the next record, or one holding the error
// that stopped it.
func (d *snapReader) next() *wal.Cursor {
	p, rest, err := wal.SplitFrame(d.rest, maxRecordBytes)
	switch d.cur = (wal.Cursor{}); {
	case len(d.rest) == 0:
		d.cur.Fail(fmt.Errorf("snapshot truncated after %d records", d.read))
	case err != nil:
		d.cur.Fail(fmt.Errorf("record %d: %w", d.read, err))
	default:
		d.cur, d.rest, d.read = wal.NewCursor(p), rest, d.read+1
	}
	return &d.cur
}

func loadSnapshot(s *schema.Schema, r io.Reader) (*Checker, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxRecordBytes+1))
	switch magic := string(data[:min(len(data), len(snapshotMagic))]); {
	case err != nil:
		return nil, fmt.Errorf("core: reading snapshot: %w", err)
	case len(data) < len(snapshotMagic):
		return nil, fmt.Errorf("core: snapshot truncated in header (%d of the %d-byte magic)", len(data), len(snapshotMagic))
	case magic == "RTICSNP1":
		return nil, fmt.Errorf("core: snapshot is format version 1 (magic %q) and this build reads version %d; "+
			"convert it with rtic.UpgradeSnapshot", magic, snapshotVersion)
	case magic != string(snapshotMagic[:]):
		return nil, fmt.Errorf("core: not an rtic snapshot (magic %q, want %q)", magic, snapshotMagic[:])
	}
	d := snapReader{rest: data[len(snapshotMagic):]}
	cur := d.next()
	var hdr [5]uint64 // version, commits, clock, constraints, relations
	for i := range hdr {
		hdr[i] = cur.Uvarint("header field")
	}
	if err := cur.Done("header"); err != nil {
		return nil, fmt.Errorf("core: snapshot header: %w", err)
	}
	if hdr[0] != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, this build reads %d", hdr[0], snapshotVersion)
	}
	now := hdr[2]
	c := New(s)
	for i := uint64(0); i < hdr[3]; i++ {
		if err := c.loadConstraint(d.next()); err != nil {
			return nil, fmt.Errorf("core: snapshot constraint %d: %w", i, err)
		}
	}
	last := ""
	for i := uint64(0); i < hdr[4]; i++ {
		if err := c.loadRelation(d.next(), &last); err != nil {
			return nil, fmt.Errorf("core: snapshot relation %d: %w", i, err)
		}
	}
	for _, node := range c.nodes {
		var err error
		switch n := node.(type) {
		case *sinceNode:
			if n.idx == 0 {
				err = n.fam.load(d.next(), now)
			}
		case *prevNode:
			err = n.load(d.next(), now)
		}
		if err != nil {
			return nil, fmt.Errorf("core: snapshot node %s: %w", node.formula().String(), err)
		}
	}
	if len(d.rest) > 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after the snapshot's %d records", len(d.rest), d.read)
	}
	c.index, c.now, c.started = int(hdr[1]), now, hdr[1] > 0
	return c, nil
}

func (c *Checker) loadConstraint(cur *wal.Cursor) error {
	name, src := cur.Bytes("name"), cur.Bytes("source")
	if err := cur.Err(); err != nil {
		return err
	}
	con, err := check.Parse(string(name), string(src), c.schema)
	if err == nil {
		err = c.AddConstraint(con)
	}
	if err != nil {
		return err
	}
	cs := c.conStates[len(c.conStates)-1]
	cs.checked = cur.Flag("checked flag")
	readRows(cur, len(cs.ans.Vars()), addTo(cs.ans))
	return cur.Done("constraint")
}

// loadRelation restores one relation, whose name must follow *last's.
func (c *Checker) loadRelation(cur *wal.Cursor, last *string) error {
	name := string(cur.Bytes("name"))
	rel, err := c.cur.Relation(name)
	switch {
	case cur.Err() != nil:
		return cur.Err()
	case err != nil:
		return err
	case name <= *last:
		return fmt.Errorf("relation %q out of order after %q", name, *last)
	}
	*last = name
	readRows(cur, rel.Arity(), rel.Insert)
	return cur.Done("relation")
}

// readRows reads a row count and that many rows of arity values, handing
// each to add, which reports whether it was new.
func readRows(cur *wal.Cursor, arity int, add func(tuple.Tuple) (bool, error)) {
	row := make(tuple.Tuple, arity)
	for n := cur.Count("row", 2*arity); n > 0 && cur.Err() == nil; n-- {
		if cur.Row(row); cur.Err() == nil {
			if added, err := add(row); err != nil || !added {
				cur.Fail(cmp.Or(err, fmt.Errorf("row %v repeated", row)))
			}
		}
	}
}

func addTo(b *fol.Bindings) func(tuple.Tuple) (bool, error) {
	return func(row tuple.Tuple) (bool, error) {
		n := b.Len()
		err := b.AddRow(row)
		return b.Len() > n, err
	}
}

func readBindings(cur *wal.Cursor, vars []string) *fol.Bindings {
	b := fol.NewBindings(vars)
	readRows(cur, len(b.Vars()), addTo(b))
	return b
}

// readTime reads a time written as its age at now.
func readTime(cur *wal.Cursor, what string, now uint64) uint64 {
	a := cur.Uvarint(what)
	if a > now {
		cur.Fail(fmt.Errorf("%s %d precedes time 0 (clock %d)", what, a, now))
		return 0
	}
	return now - a
}

// load restores the family's table from its record into the empty
// table of a checker just built, entry i in slot i, and holds the
// readers' cursors to the order popDue keeps them in: the enter cursor
// ahead of every finite window's, a narrower window's ahead of a wider
// one's. The members' places in a primed table are re-read through their
// windows; an unprimed one (a version-1 snapshot's) is primed by the
// first commit.
func (f *sinceFamily) load(cur *wal.Cursor, now uint64) error {
	f.lastT = readTime(cur, "clock age", now)
	f.primed = cur.Flag("primed flag")
	row := make(tuple.Tuple, len(f.vars))
	n := cur.Count("entry", 3+2*len(row))
	for i := 0; i < n && cur.Err() == nil; i++ {
		if cur.Row(row); cur.Err() == nil && f.find(row) != nil {
			cur.Fail(fmt.Errorf("entry %v repeated", row))
		}
		if cur.Err() != nil {
			break
		}
		e, err := f.take(row)
		if err != nil {
			return err
		}
		e.liveIx, e.seen, e.mark, e.keep = -1, 0, 0, cur.Flag("chain flag")
		for k := cur.Count("timestamp", 1); k > 0 && cur.Err() == nil; k-- {
			tm := readTime(cur, "timestamp age", now)
			if len(e.times) > 0 && tm <= e.times[len(e.times)-1] {
				cur.Fail(fmt.Errorf("entry %v: timestamps out of order", row))
			}
			e.times = append(e.times, tm)
		}
		if len(e.times) == 0 {
			cur.Fail(fmt.Errorf("entry %v holds no timestamp", row))
		}
		f.insert(e)
	}
	at := func(what string) *sinceEntry {
		if i := cur.Uvarint(what); i < uint64(n) && cur.Err() == nil {
			return f.entries[i]
		}
		cur.Fail(fmt.Errorf("%s out of range", what))
		return nil
	}
	for k := cur.Count("live entry", 1); k > 0 && cur.Err() == nil; k-- {
		if e := at("live entry"); e != nil && e.liveIx < 0 {
			e.liveIx, f.live = len(f.live), append(f.live, e)
		} else {
			cur.Fail(fmt.Errorf("live entry repeated"))
		}
	}
	for k := cur.Count("anchor", 2); k > 0 && cur.Err() == nil; k-- {
		tm, e := readTime(cur, "anchor age", now), at("anchor entry")
		if end := f.anchors.end(); end > 0 && tm < f.anchors.at(end-1).tm {
			cur.Fail(fmt.Errorf("anchor log out of order"))
		}
		if cur.Err() == nil {
			f.anchors.push(tm, e)
		}
	}
	end := uint64(f.anchors.end())
	enter := cur.Uvarint("enter cursor")
	ahead := end // no finite window's cursor passes it
	switch {
	case enter > end || f.lo == 0 && enter != 0:
		cur.Fail(fmt.Errorf("enter cursor %d out of place", enter))
	case f.lo > 0:
		ahead = enter
	case end > 0 && f.members[0].iv.Unbounded:
		cur.Fail(fmt.Errorf("%d anchors logged for no reader", end))
	}
	f.enterCur = int(enter)
	for _, m := range f.members {
		pos := cur.Uvarint("cursor")
		if m.iv.Unbounded && pos != 0 || pos > ahead {
			cur.Fail(fmt.Errorf("cursor %d of %s out of place", pos, m.node.String()))
		} else if !m.iv.Unbounded {
			ahead = pos
		}
		m.cursor = int(pos)
	}
	if !f.primed && (len(f.live) > 0 || end > 0) {
		cur.Fail(fmt.Errorf("an unprimed table holds live entries or anchors"))
	}
	if err := cur.Done("table"); err != nil || !f.primed {
		return err
	}
	f.eachEntry(func(e *sinceEntry) {
		e.sat = len(f.members)
		for i, m := range f.members {
			if m.satisfied(e, f.lastT) {
				e.sat = i
				break
			}
		}
	})
	return nil
}

func (p *prevNode) load(cur *wal.Cursor, now uint64) error {
	if p.has = cur.Flag("stored flag"); p.has {
		p.storedTime = readTime(cur, "stored age", now)
		p.stored = readBindings(cur, p.fvars)
	}
	switch served := cur.Flag("served flag"); {
	case served && !p.has:
		cur.Fail(fmt.Errorf("serves an enumeration it does not store"))
	case served:
		p.lastServed = p.stored
	default:
		if b := readBindings(cur, p.fvars); !b.Empty() {
			p.lastServed = b
		}
	}
	return cur.Done("prev")
}
