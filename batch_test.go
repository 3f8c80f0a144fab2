package rtic

import (
	"fmt"
	"sort"
	"testing"

	"rtic/internal/workload"
)

func canonViolations(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Constraint + "|" + v.Binding.Key()
	}
	sort.Strings(out)
	return out
}

func TestBatchCommit(t *testing.T) {
	forEachEngine(t, hrSchema(t), func(t *testing.T, c *Checker) {
		c.MustAddConstraint("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)")
		out, err := c.BeginBatch().
			Add(0, c.Begin().Insert("fire", Int(7))).
			Add(100, c.Begin().Delete("fire", Int(7)).Insert("hire", Int(7))).
			Add(366, c.Begin()).
			Commit()
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 3 {
			t.Fatalf("%d violation slices, want 3", len(out))
		}
		if len(out[0]) != 0 || len(out[2]) != 0 {
			t.Fatalf("unexpected violations: %v", out)
		}
		if len(out[1]) != 1 || !out[1][0].Binding[0].Equal(Int(7)) {
			t.Fatalf("commit 100: %v, want e=7", out[1])
		}
		// The batch marks the checker started: late constraints refuse.
		if err := c.AddConstraint("late", "hire(e) -> not once fire(e)"); err == nil {
			t.Fatal("constraint accepted after batch commit")
		}
	})
}

func TestBatchCommitPrefixOnError(t *testing.T) {
	c, _ := NewChecker(hrSchema(t))
	c.MustAddConstraint("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)")
	out, err := c.BeginBatch().
		Add(10, c.Begin().Insert("fire", Int(1))).
		Add(20, c.Begin().Insert("hire", Int(1))).
		Add(20, c.Begin()). // non-increasing: fails here
		Add(30, c.Begin()).
		Commit()
	if err == nil {
		t.Fatal("non-increasing timestamp accepted")
	}
	if len(out) != 2 {
		t.Fatalf("prefix has %d slices, want 2", len(out))
	}
	if len(out[1]) != 1 {
		t.Fatalf("prefix violations lost: %v", out)
	}
	// The committed prefix stays: the next commit continues after t=20.
	if _, err := c.Begin().Commit(21); err != nil {
		t.Fatal(err)
	}
}

func TestBatchAddErrors(t *testing.T) {
	c, _ := NewChecker(hrSchema(t))
	other, _ := NewChecker(hrSchema(t))
	if _, err := c.BeginBatch().Add(1, other.Begin()).Commit(); err == nil {
		t.Fatal("foreign transaction accepted")
	}
	if _, err := c.BeginBatch().Add(1, nil).Commit(); err == nil {
		t.Fatal("nil transaction accepted")
	}
	// An empty batch is a no-op, not an error.
	out, err := c.BeginBatch().Commit()
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
}

// commitWorkload is the benchmark's 32-constraint workload: distinct
// metric windows over the same operands share one table and check as
// one denial family.
func commitWorkload(constraints int) workload.History {
	h := workload.Uniform(workload.UniformConfig{Steps: 300, Seed: 53, OpsPerTx: 4, Domain: 16})
	h.Constraints = nil
	for i := 0; i < constraints; i++ {
		h.Constraints = append(h.Constraints, workload.ConstraintSpec{
			Name:   fmt.Sprintf("w%03d", i),
			Source: fmt.Sprintf("p(x) -> not once[0,%d] q(x)", 40+i),
		})
	}
	return h
}

// BenchmarkCommit times the commit pipeline on a wide (32-constraint)
// workload, per transaction.
func BenchmarkCommit(b *testing.B) {
	h := commitWorkload(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := NewChecker(h.Schema)
		if err != nil {
			b.Fatal(err)
		}
		for _, cs := range h.Constraints {
			c.MustAddConstraint(cs.Name, cs.Source)
		}
		b.StartTimer()
		for _, s := range h.Steps {
			if _, err := c.eng.Step(s.Time, s.Tx); err != nil {
				b.Fatal(err)
			}
		}
	}
	if len(h.Steps) > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(h.Steps)), "ns/tx")
	}
}
