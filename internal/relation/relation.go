// Package relation implements in-memory relations: sets of fixed-arity
// tuples with deterministic iteration, set operations and hash indexes.
// Relations are the storage unit for database states and for the
// checker's auxiliary encodings.
package relation

import (
	"fmt"
	"sort"

	"rtic/internal/tuple"
)

// keyBufSize is the stack buffer a probe builds its key in; a longer key
// spills to the heap and still probes correctly.
const keyBufSize = 64

// Relation is a mutable set of tuples of a fixed arity. Query plans may
// register maintained hash indexes over column subsets (EnsureIndex);
// registered indexes are kept current by Insert/Delete and shared by
// every plan probing the same columns.
type Relation struct {
	arity   int
	rows    map[string]tuple.Tuple
	indexes []*MaintainedIndex
}

// New creates an empty relation of the given arity. Arity zero is legal:
// such a relation is either empty (false) or holds the empty tuple (true).
func New(arity int) *Relation {
	if arity < 0 {
		panic(fmt.Sprintf("relation: negative arity %d", arity))
	}
	return &Relation{arity: arity, rows: make(map[string]tuple.Tuple)}
}

// Arity reports the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len reports the number of tuples.
func (r *Relation) Len() int { return len(r.rows) }

// Insert adds t to the relation, copying it. It reports whether the
// tuple was newly added and returns an error on arity mismatch.
func (r *Relation) Insert(t tuple.Tuple) (bool, error) {
	if len(t) != r.arity {
		return false, fmt.Errorf("relation: insert arity %d into relation of arity %d", len(t), r.arity)
	}
	var buf [keyBufSize]byte
	k := t.AppendKeyTo(buf[:0])
	if _, ok := r.rows[string(k)]; ok {
		return false, nil
	}
	c := t.Clone()
	r.rows[string(k)] = c
	for _, ix := range r.indexes {
		ix.insert(c)
	}
	return true, nil
}

// InsertKeyed adds t under key, which must be t.Key(), without copying
// either: for callers that already hold both and never mutate t (the
// checker's auxiliary entries). It reports whether the tuple was newly
// added and returns an error on arity mismatch.
func (r *Relation) InsertKeyed(key string, t tuple.Tuple) (bool, error) {
	if len(t) != r.arity {
		return false, fmt.Errorf("relation: insert arity %d into relation of arity %d", len(t), r.arity)
	}
	if _, ok := r.rows[key]; ok {
		return false, nil
	}
	r.rows[key] = t
	for _, ix := range r.indexes {
		ix.insert(t)
	}
	return true, nil
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

// Delete removes t; it reports whether the tuple was present.
func (r *Relation) Delete(t tuple.Tuple) bool {
	var buf [keyBufSize]byte
	k := t.AppendKeyTo(buf[:0])
	stored, ok := r.rows[string(k)]
	if !ok {
		return false
	}
	delete(r.rows, string(k))
	for _, ix := range r.indexes {
		ix.remove(stored)
	}
	return true
}

// Contains reports membership of t.
func (r *Relation) Contains(t tuple.Tuple) bool {
	var buf [keyBufSize]byte
	_, ok := r.rows[string(t.AppendKeyTo(buf[:0]))]
	return ok
}

// ContainsKeyBytes reports membership of the tuple whose Key() encoding
// is key — the allocation-free probe used by plan execution (the
// []byte→string conversion in a map lookup does not allocate).
func (r *Relation) ContainsKeyBytes(key []byte) bool {
	_, ok := r.rows[string(key)]
	return ok
}

// GetKey returns the stored tuple with the given Key() encoding, if any.
func (r *Relation) GetKey(key string) (tuple.Tuple, bool) {
	t, ok := r.rows[key]
	return t, ok
}

// DeleteKey removes the tuple whose Key() encoding is key, reporting
// whether it was present.
func (r *Relation) DeleteKey(key string) bool {
	stored, ok := r.rows[key]
	if !ok {
		return false
	}
	delete(r.rows, key)
	for _, ix := range r.indexes {
		ix.remove(stored)
	}
	return true
}

// Each calls f for every tuple in unspecified order; f must not mutate
// the relation. If f returns false, iteration stops early.
func (r *Relation) Each(f func(tuple.Tuple) bool) {
	for _, t := range r.rows {
		if !f(t) {
			return
		}
	}
}

// Tuples returns all tuples sorted lexicographically — the deterministic
// view used by reporting and tests.
func (r *Relation) Tuples() []tuple.Tuple {
	out := make([]tuple.Tuple, 0, len(r.rows))
	for _, t := range r.rows {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Clone returns an independent deep copy, re-deriving any maintained
// indexes over the copied rows.
func (r *Relation) Clone() *Relation {
	c := New(r.arity)
	for k, t := range r.rows {
		c.rows[k] = t.Clone()
	}
	for _, ix := range r.indexes {
		c.EnsureIndex(ix.columns)
	}
	return c
}

// Clear removes all tuples; maintained indexes stay registered, empty.
func (r *Relation) Clear() {
	r.rows = make(map[string]tuple.Tuple)
	for _, ix := range r.indexes {
		ix.buckets = make(map[string][]tuple.Tuple)
	}
}

// Equal reports whether two relations hold exactly the same tuples.
func (r *Relation) Equal(s *Relation) bool {
	if r.arity != s.arity || len(r.rows) != len(s.rows) {
		return false
	}
	for k := range r.rows {
		if _, ok := s.rows[k]; !ok {
			return false
		}
	}
	return true
}

// UnionInPlace adds every tuple of s to r; arities must match.
func (r *Relation) UnionInPlace(s *Relation) error {
	if r.arity != s.arity {
		return fmt.Errorf("relation: union of arity %d with %d", r.arity, s.arity)
	}
	for k, t := range s.rows {
		if _, ok := r.rows[k]; !ok {
			c := t.Clone()
			r.rows[k] = c
			for _, ix := range r.indexes {
				ix.insert(c)
			}
		}
	}
	return nil
}

// DiffInPlace removes every tuple of s from r; arities must match.
func (r *Relation) DiffInPlace(s *Relation) error {
	if r.arity != s.arity {
		return fmt.Errorf("relation: diff of arity %d with %d", r.arity, s.arity)
	}
	for k := range s.rows {
		if stored, ok := r.rows[k]; ok {
			delete(r.rows, k)
			for _, ix := range r.indexes {
				ix.remove(stored)
			}
		}
	}
	return nil
}

// Size estimates the in-memory footprint in bytes (keys plus tuples),
// used by the space-accounting experiments.
func (r *Relation) Size() int {
	n := 48 // struct + map header
	for k, t := range r.rows {
		n += len(k) + 16 + t.Size()
	}
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
