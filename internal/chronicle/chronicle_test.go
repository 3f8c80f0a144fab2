package chronicle

import (
	"testing"

	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
)

func testSchema() *schema.Schema {
	return schema.NewBuilder().Relation("p", 1).MustBuild()
}

func TestSnapshotHistory(t *testing.T) {
	h := NewSnapshotHistory(testSchema())
	if h.Len() != 0 {
		t.Fatal("fresh history not empty")
	}
	if err := h.Commit(10, storage.NewTransaction().Insert("p", tuple.Ints(1))); err != nil {
		t.Fatal(err)
	}
	if err := h.Commit(20, storage.NewTransaction().Insert("p", tuple.Ints(2))); err != nil {
		t.Fatal(err)
	}
	if h.Len() != 2 || h.Time(0) != 10 || h.Time(1) != 20 {
		t.Fatal("history shape wrong")
	}
	// State 0 must be unaffected by the second commit.
	if ok, _ := h.State(0).Contains("p", tuple.Ints(2)); ok {
		t.Fatal("snapshot 0 sees later insert")
	}
	if ok, _ := h.State(1).Contains("p", tuple.Ints(1)); !ok {
		t.Fatal("snapshot 1 lost earlier insert")
	}
}

func TestSnapshotHistoryErrors(t *testing.T) {
	h := NewSnapshotHistory(testSchema())
	if err := h.Commit(10, storage.NewTransaction()); err != nil {
		t.Fatal(err)
	}
	if err := h.Commit(10, storage.NewTransaction()); err == nil {
		t.Fatal("equal timestamp accepted")
	}
	if err := h.Commit(11, storage.NewTransaction().Insert("zz", tuple.Ints(1))); err == nil {
		t.Fatal("invalid tx accepted")
	}
	if h.Len() != 1 {
		t.Fatal("failed commit recorded")
	}
}

func TestSnapshotHistorySizeGrows(t *testing.T) {
	h := NewSnapshotHistory(testSchema())
	if err := h.Commit(1, storage.NewTransaction().Insert("p", tuple.Ints(1))); err != nil {
		t.Fatal(err)
	}
	s1 := h.Size()
	if err := h.Commit(2, storage.NewTransaction().Insert("p", tuple.Ints(2))); err != nil {
		t.Fatal(err)
	}
	if h.Size() <= s1 {
		t.Fatal("history size must grow with states")
	}
}
