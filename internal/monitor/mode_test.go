package monitor

import (
	"bytes"
	"testing"

	"rtic/internal/engine"
	"rtic/internal/schema"
	"rtic/internal/workload"
)

func newWithMode(t *testing.T, mode engine.Mode) *Monitor {
	t.Helper()
	s := schema.NewBuilder().Relation("hire", 1).Relation("fire", 1).MustBuild()
	m, err := New(s, []workload.ConstraintSpec{
		{Name: "no_quick_rehire", Source: "hire(e) -> not once[0,365] fire(e)"},
	}, WithMode(mode))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMonitorModes(t *testing.T) {
	for _, mode := range []engine.Mode{engine.Incremental, engine.Naive, engine.ActiveRules} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newWithMode(t, mode)
			if m.Mode() != mode {
				t.Fatalf("Mode() = %v", m.Mode())
			}
			if _, err := m.Apply(0, ins("fire", 7)); err != nil {
				t.Fatal(err)
			}
			vs, err := m.Apply(100, ins("hire", 7))
			if err != nil || len(vs) != 1 {
				t.Fatalf("vs=%v err=%v", vs, err)
			}
			if m.Len() != 2 || m.Now() != 100 {
				t.Fatalf("Len=%d Now=%d", m.Len(), m.Now())
			}
		})
	}
}

func TestNonIncrementalRefusesSnapshot(t *testing.T) {
	m := newWithMode(t, engine.Naive)
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err == nil {
		t.Fatal("naive monitor snapshotted")
	}
	if got := m.Stats(); got.Nodes != 0 || got.Bytes != 0 {
		t.Fatalf("naive monitor stats = %+v", got)
	}
}

func TestRestoreRejectsNonIncrementalMode(t *testing.T) {
	m := newWithMode(t, engine.Incremental)
	if _, err := m.Apply(1, ins("fire", 1)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s := schema.NewBuilder().Relation("hire", 1).Relation("fire", 1).MustBuild()
	if _, err := Restore(s, bytes.NewReader(buf.Bytes()), WithMode(engine.Naive)); err == nil {
		t.Fatal("restore into naive mode accepted")
	}
	m2, err := Restore(s, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 1 || m2.Now() != 1 {
		t.Fatalf("restored Len=%d Now=%d", m2.Len(), m2.Now())
	}
}
