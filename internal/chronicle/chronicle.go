// Package chronicle records timestamped database histories.
//
// A history is the sequence of states D_0, D_1, … produced by committing
// transactions at strictly increasing integer timestamps t_0 < t_1 < …
// (one state per committed transaction, per the paper's model). The
// package offers two recordings, both storage models of the naive
// full-history checker:
//
//   - SnapshotHistory: full cloned states per step;
//   - CheckpointedHistory: a delta log with a full snapshot every few
//     commits, states reconstructed on lookup.
package chronicle

import (
	"fmt"

	"rtic/internal/schema"
	"rtic/internal/storage"
)

// SnapshotHistory materializes every state of a history — the memory
// model of the naive checker. State i is the database after the i-th
// transaction committed at Time(i).
type SnapshotHistory struct {
	schema *schema.Schema
	cur    *storage.State
	times  []uint64
	states []*storage.State
}

// NewSnapshotHistory returns an empty history over s. The history has no
// states until the first Commit; the paper's state D_0 is the result of
// the first committed transaction.
func NewSnapshotHistory(s *schema.Schema) *SnapshotHistory {
	return &SnapshotHistory{schema: s, cur: storage.NewState(s)}
}

// Commit applies tx at time t, snapshotting the resulting state.
func (h *SnapshotHistory) Commit(t uint64, tx *storage.Transaction) error {
	if n := len(h.times); n > 0 && t <= h.times[n-1] {
		return fmt.Errorf("chronicle: non-increasing timestamp %d after %d", t, h.times[n-1])
	}
	if err := tx.Validate(h.schema); err != nil {
		return err
	}
	if err := h.cur.Apply(tx); err != nil {
		return err
	}
	h.times = append(h.times, t)
	h.states = append(h.states, h.cur.Clone())
	return nil
}

// Len reports the number of states.
func (h *SnapshotHistory) Len() int { return len(h.states) }

// Time returns the timestamp of state i.
func (h *SnapshotHistory) Time(i int) uint64 { return h.times[i] }

// State returns state i. The caller must not mutate it.
func (h *SnapshotHistory) State(i int) *storage.State { return h.states[i] }

// Size estimates the total footprint of all stored snapshots in bytes.
func (h *SnapshotHistory) Size() int {
	n := 0
	for _, st := range h.states {
		n += st.Size()
	}
	return n
}
