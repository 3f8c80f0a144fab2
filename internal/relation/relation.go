// Package relation implements in-memory relations: sets of fixed-arity
// tuples with deterministic iteration, set operations and hash indexes.
// Relations are the storage unit for database states and for the
// checker's auxiliary encodings.
package relation

import (
	"fmt"
	"sort"

	"rtic/internal/tuple"
	"rtic/internal/value"
)

// keyBufSize is the stack buffer a probe builds its key in; a longer key
// spills to the heap and still probes correctly.
const keyBufSize = 64

// Relation is a mutable set of tuples of a fixed arity. Its rows live in
// a slab: slot s holds vals[s*arity:(s+1)*arity], a slotTable finds a
// row's slot by the hash of its tuple.Key encoding, and a deleted row's
// slot is the next inserted row's. Once the slab has grown to a
// relation's high-water mark, inserting and deleting allocate nothing.
// A tuple read out of a relation aliases its slot: it stays valid until
// the slot is reused, by an Insert after the row's Delete (or a Clear).
// Query plans may register maintained hash indexes over column subsets
// (EnsureIndex); registered indexes are kept current by Insert/Delete
// and shared by every plan probing the same columns.
type Relation struct {
	arity   int
	vals    []value.Value
	used    []bool  // slot s holds a row
	free    []int32 // slots whose rows were deleted, reused first
	n       int
	slots   slotTable
	indexes []*MaintainedIndex
}

// New creates an empty relation of the given arity. Arity zero is legal:
// such a relation is either empty (false) or holds the empty tuple (true).
func New(arity int) *Relation {
	if arity < 0 {
		panic(fmt.Sprintf("relation: negative arity %d", arity))
	}
	return &Relation{arity: arity}
}

// Arity reports the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len reports the number of tuples.
func (r *Relation) Len() int { return r.n }

// row returns slot s's tuple.
//
//rtic:noalloc
func (r *Relation) row(s int32) tuple.Tuple {
	lo := int(s) * r.arity
	return r.vals[lo : lo+r.arity : lo+r.arity]
}

// find returns the slot holding t, or -1.
//
//rtic:noalloc
func (r *Relation) find(h uint64, t tuple.Tuple) int32 {
	for p := r.slots.probe(h); ; {
		s, ok := p.Next()
		if !ok {
			return -1
		}
		if r.row(s).Equal(t) {
			return s
		}
	}
}

// findKey returns the slot holding the tuple whose tuple.Key encoding is
// key, or -1.
//
//rtic:noalloc
func (r *Relation) findKey(key []byte) int32 {
	for p := r.slots.probe(hashKey(key)); ; {
		s, ok := p.Next()
		if !ok {
			return -1
		}
		if keyIs(r.row(s), key) {
			return s
		}
	}
}

// Insert adds t to the relation, copying its values into a free slot. It
// reports whether the tuple was newly added and returns an error on
// arity mismatch.
//
//rtic:noalloc
func (r *Relation) Insert(t tuple.Tuple) (bool, error) {
	_, added, err := r.InsertSlot(t)
	return added, err
}

// InsertSlot is Insert that also returns the slot holding t, whether it
// was newly added or already there (-1 on arity mismatch).
//
//rtic:noalloc
func (r *Relation) InsertSlot(t tuple.Tuple) (int32, bool, error) {
	if len(t) != r.arity {
		return -1, false, fmt.Errorf("relation: insert arity %d into relation of arity %d", len(t), r.arity) //rtic:allocok cold path: an arity mismatch is a caller bug
	}
	h := hashTuple(t)
	if s := r.find(h, t); s >= 0 {
		return s, false, nil
	}
	var s int32
	if k := len(r.free); k > 0 {
		s = r.free[k-1]
		r.free = r.free[:k-1]
		copy(r.row(s), t)
		r.used[s] = true
	} else {
		s = int32(len(r.used))
		r.vals = append(r.vals, t...)
		r.used = append(r.used, true)
	}
	r.n++
	r.slots.Insert(h, s)
	for _, ix := range r.indexes {
		ix.insert(s)
	}
	return s, true, nil
}

// MustInsert inserts and panics on arity mismatch; for tests and
// generators whose arities are correct by construction.
func (r *Relation) MustInsert(t tuple.Tuple) bool {
	ok, err := r.Insert(t)
	if err != nil {
		panic(err)
	}
	return ok
}

// Delete removes t; it reports whether the tuple was present. The
// row's slot is the next inserted row's; until then it keeps its values.
//
//rtic:noalloc
func (r *Relation) Delete(t tuple.Tuple) bool {
	h := hashTuple(t)
	s := r.find(h, t)
	if s < 0 {
		return false
	}
	for _, ix := range r.indexes {
		ix.remove(s)
	}
	r.slots.Delete(h, s)
	r.used[s] = false
	r.free = append(r.free, s)
	r.n--
	return true
}

// Slot returns the slot holding t, or -1.
//
//rtic:noalloc
func (r *Relation) Slot(t tuple.Tuple) int32 {
	if len(t) != r.arity {
		return -1
	}
	return r.find(hashTuple(t), t)
}

// SlotKey returns the slot holding the tuple whose tuple.Key encoding is
// key, or -1.
//
//rtic:noalloc
func (r *Relation) SlotKey(key []byte) int32 { return r.findKey(key) }

// Row returns the tuple in slot s, which aliases the slot.
//
//rtic:noalloc
func (r *Relation) Row(s int32) tuple.Tuple { return r.row(s) }

// Contains reports membership of t.
//
//rtic:noalloc
func (r *Relation) Contains(t tuple.Tuple) bool {
	return len(t) == r.arity && r.find(hashTuple(t), t) >= 0
}

// ContainsKeyBytes reports membership of the tuple whose Key() encoding
// is key — the allocation-free probe used by plan execution.
//
//rtic:noalloc
func (r *Relation) ContainsKeyBytes(key []byte) bool {
	return r.findKey(key) >= 0
}

// Each calls f for every tuple in slot order; f must not mutate the
// relation. If f returns false, iteration stops early.
//
//rtic:noalloc
func (r *Relation) Each(f func(tuple.Tuple) bool) {
	for s, used := range r.used {
		if used && !f(r.row(int32(s))) {
			return
		}
	}
}

// EachSlot calls f with the slot of every tuple, in slot order; f must
// not mutate the relation. If f returns false, iteration stops early.
//
//rtic:noalloc
func (r *Relation) EachSlot(f func(int32) bool) {
	for s, used := range r.used {
		if used && !f(int32(s)) {
			return
		}
	}
}

// Tuples returns copies of all tuples sorted lexicographically — the
// deterministic view used by reporting, snapshots and tests.
func (r *Relation) Tuples() []tuple.Tuple {
	out := make([]tuple.Tuple, 0, r.n)
	r.Each(func(t tuple.Tuple) bool {
		out = append(out, t.Clone())
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Clone returns an independent deep copy, re-deriving any maintained
// indexes over the copied rows.
func (r *Relation) Clone() *Relation {
	c := &Relation{
		arity: r.arity,
		vals:  append([]value.Value(nil), r.vals...),
		used:  append([]bool(nil), r.used...),
		free:  append([]int32(nil), r.free...),
		n:     r.n,
		slots: r.slots.clone(),
	}
	for _, ix := range r.indexes {
		c.EnsureIndex(ix.columns)
	}
	return c
}

// Clear removes all tuples, keeping the slab for the rows that follow;
// maintained indexes stay registered, empty.
//
//rtic:noalloc
func (r *Relation) Clear() {
	r.vals, r.used, r.free, r.n = r.vals[:0], r.used[:0], r.free[:0], 0
	r.slots.Clear()
	for _, ix := range r.indexes {
		ix.clear()
	}
}

// Equal reports whether two relations hold exactly the same tuples.
func (r *Relation) Equal(s *Relation) bool {
	if r.arity != s.arity || r.n != s.n {
		return false
	}
	same := true
	r.Each(func(t tuple.Tuple) bool {
		same = s.Contains(t)
		return same
	})
	return same
}

// UnionInPlace adds every tuple of s to r; arities must match.
func (r *Relation) UnionInPlace(s *Relation) error {
	if r.arity != s.arity {
		return fmt.Errorf("relation: union of arity %d with %d", r.arity, s.arity)
	}
	s.Each(func(t tuple.Tuple) bool {
		r.Insert(t) //nolint:errcheck — arities match
		return true
	})
	return nil
}

// DiffInPlace removes every tuple of s from r; arities must match.
func (r *Relation) DiffInPlace(s *Relation) error {
	if r.arity != s.arity {
		return fmt.Errorf("relation: diff of arity %d with %d", r.arity, s.arity)
	}
	s.Each(func(t tuple.Tuple) bool {
		r.Delete(t)
		return true
	})
	return nil
}

// Size estimates the in-memory footprint in bytes (keys plus tuples),
// used by the space-accounting experiments. It is the estimate of a
// relation keyed by tuple.Key strings, which this one was: the figures
// the experiments publish do not move with the layout.
func (r *Relation) Size() int {
	n := 48 // struct + map header
	var buf [keyBufSize]byte
	r.Each(func(t tuple.Tuple) bool {
		n += len(t.AppendKeyTo(buf[:0])) + 16 + t.Size()
		return true
	})
	return n
}

// String renders the relation as a sorted set literal, for diagnostics.
func (r *Relation) String() string {
	ts := r.Tuples()
	s := "{"
	for i, t := range ts {
		if i > 0 {
			s += ", "
		}
		s += t.String()
	}
	return s + "}"
}
