package relation

import (
	"bytes"
	"fmt"

	"rtic/internal/tuple"
)

// Index is a hash index over a subset of a relation's columns, built on
// demand by the join machinery. It is a snapshot: mutations to the
// underlying relation after construction are not reflected.
type Index struct {
	columns []int
	buckets map[string][]tuple.Tuple
}

// BuildIndex indexes r on the given column positions.
func BuildIndex(r *Relation, columns []int) (*Index, error) {
	for _, c := range columns {
		if c < 0 || c >= r.arity {
			return nil, fmt.Errorf("relation: index column %d out of range for arity %d", c, r.arity)
		}
	}
	ix := &Index{columns: append([]int(nil), columns...), buckets: make(map[string][]tuple.Tuple)}
	r.Each(func(t tuple.Tuple) bool {
		k := t.Project(ix.columns).Key()
		ix.buckets[k] = append(ix.buckets[k], t)
		return true
	})
	return ix, nil
}

// Lookup returns the tuples whose indexed columns equal key (a tuple of
// len(columns) values). The returned slice must not be mutated.
func (ix *Index) Lookup(key tuple.Tuple) []tuple.Tuple {
	return ix.buckets[key.Key()]
}

// Buckets reports the number of distinct keys.
func (ix *Index) Buckets() int { return len(ix.buckets) }

// MaintainedIndex is a hash index over a subset of a relation's columns
// that the relation keeps current across Insert/Delete. Query plans
// register the column sets they join on at compile time (EnsureIndex)
// and probe buckets by key bytes at execution time, so index lookups on
// the commit hot path neither rebuild the index nor allocate. A bucket
// is a list of the relation's slots threaded through per-slot links; a
// slotTable finds it by the hash of its projected key, and an emptied
// bucket's number is the next new key's.
type MaintainedIndex struct {
	columns []int
	rel     *Relation
	buckets slotTable
	head    []int32  // bucket b's first slot
	hash    []uint64 // bucket b's hash
	freeB   []int32  // emptied buckets, reused first
	// Per relation slot: the slot's bucket and its neighbours there (-1
	// ends the list).
	bucket, next, prev []int32
}

// Columns returns the indexed column positions; must not be mutated.
func (ix *MaintainedIndex) Columns() []int { return ix.columns }

// Rows walks the tuples of one bucket. The relation must not change
// during the walk.
type Rows struct {
	ix *MaintainedIndex
	s  int32
}

// Next returns the walk's next tuple, or false at its end.
//
//rtic:noalloc
func (it *Rows) Next() (tuple.Tuple, bool) {
	if it.s < 0 {
		return nil, false
	}
	t := it.ix.rel.row(it.s)
	it.s = it.ix.next[it.s]
	return t, true
}

// LookupKeyBytes returns a walk over the tuples whose indexed columns
// encode (per tuple.AppendKeyTo of the projected columns) to key.
//
//rtic:noalloc
func (ix *MaintainedIndex) LookupKeyBytes(key []byte) Rows {
	for p := ix.buckets.probe(hashKey(key)); ; {
		b, ok := p.Next()
		if !ok {
			return Rows{s: -1}
		}
		if ix.keyIs(ix.head[b], key) {
			return Rows{ix: ix, s: ix.head[b]}
		}
	}
}

// keyIs reports whether slot s's projected key encodes to key.
//
//rtic:noalloc
func (ix *MaintainedIndex) keyIs(s int32, key []byte) bool {
	var buf [keyBufSize]byte
	return bytes.Equal(ix.appendKey(buf[:0], s), key)
}

//rtic:noalloc
func (ix *MaintainedIndex) appendKey(dst []byte, s int32) []byte {
	t := ix.rel.row(s)
	for _, c := range ix.columns {
		dst = tuple.AppendValueKey(dst, t[c])
	}
	return dst
}

// sameKey reports whether slots s and u agree on the indexed columns.
//
//rtic:noalloc
func (ix *MaintainedIndex) sameKey(s, u int32) bool {
	t, w := ix.rel.row(s), ix.rel.row(u)
	for _, c := range ix.columns {
		if !t[c].Equal(w[c]) {
			return false
		}
	}
	return true
}

// insert files slot s in its bucket, opening the bucket if need be.
func (ix *MaintainedIndex) insert(s int32) {
	for int(s) >= len(ix.bucket) {
		ix.bucket = append(ix.bucket, -1)
		ix.next = append(ix.next, -1)
		ix.prev = append(ix.prev, -1)
	}
	var buf [keyBufSize]byte
	h := hashKey(ix.appendKey(buf[:0], s))
	b := int32(-1)
	for p := ix.buckets.probe(h); ; {
		c, ok := p.Next()
		if !ok {
			break
		}
		if ix.sameKey(ix.head[c], s) {
			b = c
			break
		}
	}
	if b < 0 {
		if k := len(ix.freeB); k > 0 {
			b = ix.freeB[k-1]
			ix.freeB = ix.freeB[:k-1]
			ix.hash[b] = h
		} else {
			b = int32(len(ix.head))
			ix.head = append(ix.head, -1)
			ix.hash = append(ix.hash, h)
		}
		ix.head[b] = -1
		ix.buckets.Insert(h, b)
	}
	ix.bucket[s], ix.prev[s], ix.next[s] = b, -1, ix.head[b]
	if n := ix.head[b]; n >= 0 {
		ix.prev[n] = s
	}
	ix.head[b] = s
}

// remove unlinks slot s from its bucket and frees an emptied bucket.
func (ix *MaintainedIndex) remove(s int32) {
	b, p, n := ix.bucket[s], ix.prev[s], ix.next[s]
	if p >= 0 {
		ix.next[p] = n
	} else {
		ix.head[b] = n
	}
	if n >= 0 {
		ix.prev[n] = p
	}
	if ix.head[b] < 0 {
		ix.buckets.Delete(ix.hash[b], b)
		ix.freeB = append(ix.freeB, b)
	}
}

func (ix *MaintainedIndex) clear() {
	ix.buckets.Clear()
	ix.head, ix.hash, ix.freeB = ix.head[:0], ix.hash[:0], ix.freeB[:0]
	ix.bucket, ix.next, ix.prev = ix.bucket[:0], ix.next[:0], ix.prev[:0]
}

// EnsureIndex registers (or returns the existing) maintained index on
// the given column positions, building it from the current rows. Columns
// are used in the order given; plans canonicalize to ascending order.
func (r *Relation) EnsureIndex(columns []int) (*MaintainedIndex, error) {
	for _, c := range columns {
		if c < 0 || c >= r.arity {
			return nil, fmt.Errorf("relation: index column %d out of range for arity %d", c, r.arity)
		}
	}
	if ix := r.FindIndex(columns); ix != nil {
		return ix, nil
	}
	ix := &MaintainedIndex{columns: append([]int(nil), columns...), rel: r}
	for s, used := range r.used {
		if used {
			ix.insert(int32(s))
		}
	}
	r.indexes = append(r.indexes, ix)
	return ix, nil
}

// FindIndex returns the maintained index on exactly the given column
// positions, or nil when none is registered.
func (r *Relation) FindIndex(columns []int) *MaintainedIndex {
	for _, ix := range r.indexes {
		if equalInts(ix.columns, columns) {
			return ix
		}
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
