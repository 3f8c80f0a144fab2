package relation

import (
	"math/rand"
	"slices"
	"testing"

	"rtic/internal/tuple"
)

// TestDeletedSlotIsTheNextRows: a deleted row's slot takes the next
// inserted row, whose values are copied in; the old tuple no longer
// belongs to the relation, and churning a relation at its high-water
// mark allocates nothing.
func TestDeletedSlotIsTheNextRows(t *testing.T) {
	r := New(2)
	r.MustInsert(tuple.Ints(1, 10))
	r.MustInsert(tuple.Ints(2, 20))
	r.Delete(tuple.Ints(1, 10))
	r.MustInsert(tuple.Ints(3, 30))
	if len(r.used) != 2 {
		t.Fatalf("slab holds %d slots for 2 rows after a delete and an insert", len(r.used))
	}
	if r.Contains(tuple.Ints(1, 10)) || !r.Contains(tuple.Ints(3, 30)) || r.Len() != 2 {
		t.Fatalf("after reuse: %s", r)
	}
	if got := r.String(); got != "{(2, 20), (3, 30)}" {
		t.Fatalf("after reuse: %s", got)
	}
	row := tuple.Ints(4, 40)
	if n := testing.AllocsPerRun(100, func() {
		r.MustInsert(row)
		r.Delete(row)
	}); n != 0 {
		t.Fatalf("churn at the high-water mark allocates %.1f per insert and delete", n)
	}
}

// TestSlabAgainstModel drives a relation with a maintained index through
// random inserts and deletes over a small domain, so slots and buckets
// are freed and retaken constantly, and holds it to a map after every
// op: membership, Len, Each, and every index bucket.
func TestSlabAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := New(2)
	ix, err := r.EnsureIndex([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	model := map[[2]int64]bool{}
	for op := 0; op < 20000; op++ {
		k := [2]int64{rng.Int63n(40), rng.Int63n(6)}
		row := tuple.Ints(k[0], k[1])
		if rng.Intn(2) == 0 {
			if added := r.MustInsert(row); added == model[k] {
				t.Fatalf("op %d: Insert%v reported %v with the row present=%v", op, k, added, model[k])
			}
			model[k] = true
		} else {
			if removed := r.Delete(row); removed != model[k] {
				t.Fatalf("op %d: Delete%v reported %v with the row present=%v", op, k, removed, model[k])
			}
			delete(model, k)
		}
		if r.Len() != len(model) {
			t.Fatalf("op %d: Len %d, model %d", op, r.Len(), len(model))
		}
		if op%97 != 0 {
			continue
		}
		var seen [][2]int64
		r.Each(func(t tuple.Tuple) bool {
			seen = append(seen, [2]int64{t[0].AsInt(), t[1].AsInt()})
			return true
		})
		if len(seen) != len(model) {
			t.Fatalf("op %d: Each yields %d rows, model %d", op, len(seen), len(model))
		}
		for _, k := range seen {
			if !model[k] {
				t.Fatalf("op %d: Each yields %v, not in the model", op, k)
			}
		}
		for col := int64(0); col < 6; col++ {
			var got, want []int64
			for it := ix.LookupKeyBytes(tuple.Ints(col).AppendKeyTo(nil)); ; {
				row, ok := it.Next()
				if !ok {
					break
				}
				got = append(got, row[0].AsInt())
			}
			for k := range model {
				if k[1] == col {
					want = append(want, k[0])
				}
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: bucket %d holds %v, model %v", op, col, got, want)
			}
		}
	}
}

// TestSlotsCollidingHashes files ids under a handful of hashes that all
// share their low bits, so every probe run is long and every delete
// shifts one back, and holds the table to a model after every op.
func TestSlotsCollidingHashes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s slotTable
	model := map[int32]uint64{}
	for op := 0; op < 20000; op++ {
		id := int32(rng.Intn(64))
		if h, ok := model[id]; ok {
			s.Delete(h, id)
			delete(model, id)
		} else {
			h := uint64(rng.Intn(4)) << 40 // the low bits, which pick the cell, are all zero
			s.Insert(h, id)
			model[id] = h
		}
		if s.Len() != len(model) {
			t.Fatalf("op %d: Len %d, model %d", op, s.Len(), len(model))
		}
		for id, h := range model {
			found := false
			for p := s.probe(h); ; {
				got, ok := p.Next()
				if !ok {
					break
				}
				found = found || got == id
			}
			if !found {
				t.Fatalf("op %d: id %d filed under %x is not found", op, id, h)
			}
		}
	}
}
