package rtic

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rtic/internal/workload"
)

func TestParseModeNames(t *testing.T) {
	cases := map[string]Mode{
		"incremental":  Incremental,
		"naive":        Naive,
		"active":       ActiveRules,
		"active-rules": ActiveRules,
	}
	for name, want := range cases {
		got, err := ParseMode(name)
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", name, err)
		}
		if got != want {
			t.Fatalf("ParseMode(%q) = %v, want %v", name, got, want)
		}
	}
	_, err := ParseMode("eager")
	if err == nil {
		t.Fatal("unknown mode accepted")
	}
	// The error must teach the valid spellings.
	for _, name := range ModeNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list %q", err, name)
		}
	}
}

func TestParallelismAccessor(t *testing.T) {
	s := hrSchema(t)
	c, err := NewChecker(s, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Parallelism(); got != 4 {
		t.Fatalf("Parallelism() = %d, want 4", got)
	}
	c, _ = NewChecker(s, WithParallelism(1))
	if got := c.Parallelism(); got != 1 {
		t.Fatalf("Parallelism() = %d, want 1", got)
	}
	// Default, and anything below 2: the inline pipeline. Fan-out is
	// only ever an explicit request.
	c, _ = NewChecker(s)
	if got := c.Parallelism(); got != 1 {
		t.Fatalf("default Parallelism() = %d, want 1", got)
	}
	c, _ = NewChecker(s, WithParallelism(0))
	if got := c.Parallelism(); got != 1 {
		t.Fatalf("WithParallelism(0): Parallelism() = %d, want 1", got)
	}
	// Sequential engines report 1 regardless of the option.
	n, _ := NewChecker(s, WithMode(Naive), WithParallelism(8))
	if got := n.Parallelism(); got != 1 {
		t.Fatalf("naive Parallelism() = %d, want 1", got)
	}
}

func canonViolations(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Constraint + "|" + v.Binding.Key()
	}
	sort.Strings(out)
	return out
}

func TestParallelCheckerEquivalence(t *testing.T) {
	build := func(par int) *Checker {
		c, err := NewChecker(hrSchema(t), WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		c.MustAddConstraint("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)")
		c.MustAddConstraint("no_refire", "fire(e) -> not once[0,100] fire(e)")
		return c
	}
	seq, par := build(1), build(4)
	r := rand.New(rand.NewSource(71))
	tm := uint64(0)
	for i := 0; i < 100; i++ {
		tm += uint64(1 + r.Intn(20))
		e := int64(r.Intn(6))
		rel := "hire"
		if r.Intn(2) == 0 {
			rel = "fire"
		}
		want, err := seq.Begin().Insert(rel, Int(e)).Commit(tm)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got, err := par.Begin().Insert(rel, Int(e)).Commit(tm)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		// Binding order within one constraint follows evaluator
		// enumeration and is unspecified; compare canonically.
		cg, cw := canonViolations(got), canonViolations(want)
		if len(cg) != len(cw) {
			t.Fatalf("step %d: %v vs %v", i, got, want)
		}
		for k := range cg {
			if cg[k] != cw[k] {
				t.Fatalf("step %d: %v vs %v", i, got, want)
			}
		}
	}
}

func TestBatchCommit(t *testing.T) {
	for _, mode := range []Mode{Incremental, Naive, ActiveRules} {
		t.Run(mode.String(), func(t *testing.T) {
			c, err := NewChecker(hrSchema(t), WithMode(mode))
			if err != nil {
				t.Fatal(err)
			}
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

func TestRestoreCheckerWithParallelism(t *testing.T) {
	c, _ := NewChecker(hrSchema(t))
	c.MustAddConstraint("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)")
	if _, err := c.Begin().Insert("fire", Int(7)).Commit(10); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreChecker(hrSchema(t), &buf, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Parallelism(); got != 4 {
		t.Fatalf("restored Parallelism() = %d, want 4", got)
	}
	vs, err := restored.Begin().Insert("hire", Int(7)).Commit(100)
	if err != nil || len(vs) != 1 {
		t.Fatalf("restored checker: vs=%v err=%v", vs, err)
	}
}

// commitWorkload is the benchmark's 32-constraint workload: distinct
// metric windows keep the auxiliary nodes distinct, so the check phase
// has real width to fan out over.
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

// BenchmarkCommit compares the sequential commit pipeline against the
// parallel one on a wide (32-constraint) workload. The parallel leg
// pins a 4-worker pool; the speedup it can show is bounded by
// GOMAXPROCS (on a single-CPU host the two legs time the same
// algorithm plus a few microseconds of pool overhead).
func BenchmarkCommit(b *testing.B) {
	h := commitWorkload(32)
	for _, cfg := range []struct {
		name string
		par  int
	}{{"sequential", 1}, {"parallel", 4}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := NewChecker(h.Schema, WithParallelism(cfg.par))
				if err != nil {
					b.Fatal(err)
				}
				for _, cs := range h.Constraints {
					c.MustAddConstraint(cs.Name, cs.Source)
				}
				b.StartTimer()
				for _, s := range h.Steps {
					if _, err := c.inc.Step(s.Time, s.Tx); err != nil {
						b.Fatal(err)
					}
				}
			}
			if len(h.Steps) > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(h.Steps)), "ns/tx")
			}
		})
	}
}
