package core

import (
	"math/rand"
	"testing"

	"rtic/internal/check"
	"rtic/internal/storage"
	"rtic/internal/tuple"
)

// Micro-benchmarks of one Step on a warmed-up checker, per operator —
// each a denial family of one, so plan-execs/commit watches the path every
// denial no other resembles takes.
func BenchmarkStep(b *testing.B) {
	cases := []struct{ name, src string }{
		{"once-bounded", "p(x) -> not once[0,100] q(x)"},
		{"once-unbounded", "p(x) -> not once q(x)"},
		{"since", "p(x) -> not (q(x) since[0,100] p(x))"},
		{"prev", "p(x) -> not prev q(x)"},
		{"nested", "p(x) -> not once[0,100] prev q(x)"},
		{"leadsto", "p(x) leadsto[0,50] q(x)"},
	}
	for _, cse := range cases {
		b.Run(cse.name, func(b *testing.B) {
			s := equivSchema()
			c := New(s)
			con, err := check.Parse("c", cse.src, s)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.AddConstraint(con); err != nil {
				b.Fatal(err)
			}
			// Warm up with a realistic mixed prefix.
			r := rand.New(rand.NewSource(1))
			tm := uint64(0)
			for i := 0; i < 200; i++ {
				tm++
				if _, err := c.Step(tm, randomTx(r, 8)); err != nil {
					b.Fatal(err)
				}
			}
			e0 := c.Work().PlanExecs
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm++
				tx := storage.NewTransaction()
				if i%2 == 0 {
					tx.Insert("q", tuple.Ints(int64(i%8)))
				} else {
					tx.Insert("p", tuple.Ints(int64(i%8)))
				}
				if _, err := c.Step(tm, tx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(c.Work().PlanExecs-e0)/float64(b.N), "plan-execs/commit")
		})
	}
}

// BenchmarkSnapshot measures checkpoint cost — small by construction.
func BenchmarkSnapshot(b *testing.B) {
	s := equivSchema()
	c := New(s)
	con, _ := check.Parse("c", "p(x) -> not once[0,100] q(x)", s)
	if err := c.AddConstraint(con); err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	tm := uint64(0)
	for i := 0; i < 500; i++ {
		tm++
		if _, err := c.Step(tm, randomTx(r, 8)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SaveSnapshot(discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
