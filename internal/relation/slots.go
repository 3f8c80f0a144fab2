package relation

import (
	"bytes"
	"hash/maphash"

	"rtic/internal/tuple"
)

// seed keys every tuple hash of the process. Nothing iterates in hash
// order, so a per-process seed changes no output.
var seed = maphash.MakeSeed()

// hashKey hashes a tuple.Key encoding — the form a plan builds its probe
// keys in.
//
//rtic:noalloc
func hashKey(key []byte) uint64 { return maphash.Bytes(seed, key) }

// hashTuple hashes t's tuple.Key encoding without building it on the
// heap: hashTuple(t) == hashKey([]byte(t.Key())).
//
//rtic:noalloc
func hashTuple(t tuple.Tuple) uint64 {
	var buf [keyBufSize]byte
	return hashKey(t.AppendKeyTo(buf[:0]))
}

// keyIs reports whether key is t's tuple.Key encoding.
//
//rtic:noalloc
func keyIs(t tuple.Tuple, key []byte) bool {
	var buf [keyBufSize]byte
	return bytes.Equal(t.AppendKeyTo(buf[:0]), key)
}

// slotTable is an open-addressed hash table of small non-negative ids —
// slab slots — filed under a 64-bit hash of what they hold. It stores no
// keys: a probe yields the ids filed under the probe's hash and the
// caller resolves collisions against what its slab holds. Probing is
// linear and deletion shifts the run back, so no tombstone lingers and a
// table that only churns never grows.
type slotTable struct {
	cells []slotCell // power-of-two length, at most three quarters full
	n     int
}

type slotCell struct {
	h  uint64
	id int32 // the slot plus one; zero marks an empty cell
}

// Len reports the number of ids filed.
func (s *slotTable) Len() int { return s.n }

// probe starts a walk over the ids filed under hash h.
//
//rtic:noalloc
func (s *slotTable) probe(h uint64) probe { return probe{s: s, h: h, pos: h} }

// probe is a walk over the ids a slotTable holds under one hash, in probe
// order. The table must not change during the walk.
type probe struct {
	s   *slotTable
	h   uint64
	pos uint64
}

// Next returns the next id filed under the probe's hash, or false once
// the walk reaches an empty cell.
//
//rtic:noalloc
func (p *probe) Next() (int32, bool) {
	cells := p.s.cells
	if len(cells) == 0 {
		return 0, false
	}
	m := uint64(len(cells) - 1)
	for {
		c := cells[p.pos&m]
		p.pos++
		if c.id == 0 {
			return 0, false
		}
		if c.h == p.h {
			return c.id - 1, true
		}
	}
}

// Insert files id under hash h; the caller has made sure it is absent.
// The table doubles when it would pass three quarters full.
func (s *slotTable) Insert(h uint64, id int32) {
	if (s.n+1)*4 > len(s.cells)*3 {
		s.grow()
	}
	s.place(h, id)
	s.n++
}

func (s *slotTable) place(h uint64, id int32) {
	m := uint64(len(s.cells) - 1)
	for i := h; ; i++ {
		if c := &s.cells[i&m]; c.id == 0 {
			c.h, c.id = h, id+1
			return
		}
	}
}

func (s *slotTable) grow() {
	old := s.cells
	s.cells = make([]slotCell, max(8, 2*len(old))) //rtic:allocok once per new high-water mark of the table
	for _, c := range old {
		if c.id != 0 {
			s.place(c.h, c.id-1)
		}
	}
}

// Delete removes id, filed under hash h, and shifts back the cells of
// its probe run that a hole would cut off from their home.
//
//rtic:noalloc
func (s *slotTable) Delete(h uint64, id int32) {
	if len(s.cells) == 0 {
		return
	}
	m := uint64(len(s.cells) - 1)
	i := h & m
	for s.cells[i].id != id+1 {
		if s.cells[i].id == 0 {
			return
		}
		i = (i + 1) & m
	}
	for j := i; ; {
		j = (j + 1) & m
		c := s.cells[j]
		if c.id == 0 {
			break
		}
		// c may fill the hole at i unless its home lies cyclically in (i, j].
		if home := c.h & m; (j-home)&m < (j-i)&m {
			continue
		}
		s.cells[i] = c
		i = j
	}
	s.cells[i] = slotCell{}
	s.n--
}

// Clear empties the table, keeping its cells.
func (s *slotTable) Clear() {
	clear(s.cells)
	s.n = 0
}

// clone returns an independent copy; ids keep their meaning.
func (s *slotTable) clone() slotTable {
	return slotTable{cells: append([]slotCell(nil), s.cells...), n: s.n}
}
