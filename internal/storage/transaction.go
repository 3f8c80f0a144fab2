package storage

import (
	"fmt"

	"rtic/internal/schema"
	"rtic/internal/tuple"
	"rtic/internal/value"
)

// Op is a single tuple-level modification within a transaction.
type Op struct {
	Rel    string
	Tuple  tuple.Tuple
	Insert bool // false = delete
}

// Transaction is an ordered list of tuple insertions and deletions that
// together produce the next state of a history. Order matters only when
// a transaction deletes and reinserts the same tuple.
//
// A transaction owns its tuples: Insert and Delete copy the caller's
// values, so neither side aliases the other. Reset empties a
// transaction for reuse, and a reused one keeps its values in one slab
// that Reset sizes, so refilling it allocates nothing once the slab fits.
// A reader that keeps a transaction's tuples past Reset must copy them;
// engines borrow a transaction for the duration of Step only (see
// engine.Engine).
type Transaction struct {
	ops  []Op
	slab []value.Value // the values of the ops that found room, in op order
}

// NewTransaction returns an empty transaction.
func NewTransaction() *Transaction { return &Transaction{} }

// Insert schedules an insertion.
func (tx *Transaction) Insert(rel string, t tuple.Tuple) *Transaction {
	tx.add(rel, t, true)
	return tx
}

// Delete schedules a deletion.
func (tx *Transaction) Delete(rel string, t tuple.Tuple) *Transaction {
	tx.add(rel, t, false)
	return tx
}

// add appends one op whose tuple is a copy of t: in the slab while it
// has room, capped so that no append reaches the next op's values, and
// otherwise a clone of its own. A transaction built once has no slab,
// so it allocates exactly what its tuples need; one that is reused gets
// a slab at Reset and stops allocating once the slab fits its lines.
//
//rtic:noalloc
func (tx *Transaction) add(rel string, t tuple.Tuple, insert bool) {
	var row tuple.Tuple
	if start, end := len(tx.slab), len(tx.slab)+len(t); end <= cap(tx.slab) {
		tx.slab = append(tx.slab, t...)
		row = tx.slab[start:end:end]
	} else {
		row = t.Clone() //rtic:allocok the slab is full; Reset sizes it for the next use
	}
	tx.ops = append(tx.ops, Op{Rel: rel, Tuple: row, Insert: insert})
}

// Init empties tx and gives it ops's and slab's arrays to fill: it
// appends its ops to ops[:0] and copies their values into slab[:0]
// until either is full, and allocates only past that. A builder of many
// transactions carves them all out of two arrays it allocated once,
// each window capped at what its transaction needs (ops[i:i:j]), so no
// transaction writes into another's ops or values.
func (tx *Transaction) Init(ops []Op, slab []value.Value) {
	tx.ops, tx.slab = ops[:0], slab[:0]
}

// Reset empties the transaction for reuse, keeping its capacity. Tuples
// read from it before are overwritten by the ops added after. When the
// transaction held more values than its slab has room for, the slab is
// replaced by one that fits them.
//
//rtic:noalloc
func (tx *Transaction) Reset() {
	n := tx.values()
	clear(tx.ops)
	clear(tx.slab)
	tx.ops = tx.ops[:0]
	tx.slab = tx.slab[:0]
	if n > cap(tx.slab) {
		tx.slab = make([]value.Value, 0, n) //rtic:allocok once per new high-water mark of a reused transaction
	}
}

// values counts the values of every op.
func (tx *Transaction) values() int {
	n := 0
	for _, op := range tx.ops {
		n += len(op.Tuple)
	}
	return n
}

// Ops returns the modifications in order. The slice must not be mutated.
func (tx *Transaction) Ops() []Op { return tx.ops }

// Len reports the number of modifications.
func (tx *Transaction) Len() int { return len(tx.ops) }

// Validate checks every op against the schema without applying anything,
// so Apply can be made effectively atomic by validating first.
func (tx *Transaction) Validate(s *schema.Schema) error {
	for i, m := range tx.ops {
		arity, err := s.Arity(m.Rel)
		if err != nil {
			return fmt.Errorf("storage: op %d: %w", i, err) //rtic:allocok cold path: the transaction is rejected
		}
		if len(m.Tuple) != arity {
			//rtic:allocok cold path: the transaction is rejected
			return fmt.Errorf("storage: op %d: relation %s expects arity %d, got %d", i, m.Rel, arity, len(m.Tuple))
		}
	}
	return nil
}

// Clone returns an independent copy of the transaction.
func (tx *Transaction) Clone() *Transaction {
	c := &Transaction{ops: make([]Op, 0, len(tx.ops)), slab: make([]value.Value, 0, tx.values())}
	for _, m := range tx.ops {
		c.add(m.Rel, m.Tuple, m.Insert)
	}
	return c
}

// String renders the transaction as "+rel(…) -rel(…) …" for diagnostics.
func (tx *Transaction) String() string { return string(tx.AppendTo(nil)) }

// AppendTo appends the String() rendering of tx to dst and returns the
// extended slice.
//
//rtic:noalloc
func (tx *Transaction) AppendTo(dst []byte) []byte {
	for i, m := range tx.ops {
		if i > 0 {
			dst = append(dst, ' ')
		}
		if m.Insert {
			dst = append(dst, '+')
		} else {
			dst = append(dst, '-')
		}
		dst = append(dst, m.Rel...)
		dst = m.Tuple.AppendTo(dst)
	}
	return dst
}
