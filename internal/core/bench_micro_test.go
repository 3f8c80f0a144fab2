package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/check"
	"rtic/internal/obs"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/workload"
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
			e0 := planExecs(c)
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
			b.ReportMetric(float64(planExecs(c)-e0)/float64(b.N), "plan-execs/commit")
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

// widePolicies is the policy set of the end-to-end benchmark's
// policy-wide workload (benchmark/workloads.go): cdcgen's three plus 16
// more validity windows and 16 more derived-row lifetimes over the same
// relations — 35 constraints over 26 distinct auxiliary nodes, 25 of them
// windows [0,b] over reading(s): one family.
func widePolicies(cfg cdcgen.Config) []workload.ConstraintSpec {
	cons := cdcgen.Constraints(cfg)
	for i := 0; i < 16; i++ {
		cons = append(cons,
			workload.ConstraintSpec{
				Name:   fmt.Sprintf("fresh_serve_%d", 17+i),
				Source: fmt.Sprintf("serve(s) -> once[0,%d] reading(s)", 17+i),
			},
			workload.ConstraintSpec{
				Name:   fmt.Sprintf("derived_lineage_%d", 25+i),
				Source: fmt.Sprintf("derived(d, s) -> once[0,%d] reading(s)", 25+i),
			})
	}
	return cons
}

// visitedEntries sums the entries every since/once family resolved so far.
func visitedEntries(c *Checker) int {
	n := 0
	for _, node := range c.nodes {
		if s, ok := node.(*sinceNode); ok && s.idx == 0 {
			n += s.fam.visited
		}
	}
	return n
}

// planExecs sums the plan executions every denial family ran so far.
func planExecs(c *Checker) int {
	n := 0
	for _, df := range c.denials {
		n += df.execs
	}
	return n
}

// BenchmarkStepWidePolicies steps the policy-wide feed (35 policies,
// 1,024 sensors, cdcgen seed 7, metrics attached as in rticd) in
// process. One op is one commit. Before the timed loop a counted pass
// over gateCommits commits — long enough to average over the feed's
// stream kinds and burst trains, so the figure does not depend on b.N —
// reports allocations, entries visited and check-phase plan executions
// per commit, and fails the benchmark when a commit allocates more than
// maxAllocs, resolves more than maxVisits entries or runs more than
// maxExecs plans: the update phase is delta-driven, the 25 windows over
// reading(s) read one table, the 34 policies over them are checked as two
// denial families, rows, entries and answers are recycled in slabs, and
// all four must stay so.
func BenchmarkStepWidePolicies(b *testing.B) {
	const (
		warm        = 2000
		gateCommits = 4000
		maxAllocs   = 1
		maxVisits   = 8
		maxExecs    = 2
	)
	cfg := cdcgen.Config{
		Steps: warm + gateCommits + b.N, Seed: 7, Sensors: 1024,
		BurstLen: 8, BurstEvery: 20, MaxReorder: 3, ViolationRate: 0.02,
	}
	h, _ := cdcgen.Generate(cfg)
	c := New(h.Schema)
	c.SetObserver(&obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())})
	for _, cs := range widePolicies(cfg) {
		con, err := check.Parse(cs.Name, cs.Source, h.Schema)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.AddConstraint(con); err != nil {
			b.Fatal(err)
		}
	}
	replay := func(steps []workload.Step) {
		for _, st := range steps {
			if _, err := c.Step(st.Time, st.Tx); err != nil {
				b.Fatal(err)
			}
		}
	}
	replay(h.Steps[:warm])

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	v0, e0 := visitedEntries(c), planExecs(c)
	replay(h.Steps[warm : warm+gateCommits])
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / gateCommits
	visits := float64(visitedEntries(c)-v0) / gateCommits
	execs := float64(planExecs(c)-e0) / gateCommits

	b.ReportAllocs()
	b.ResetTimer()
	replay(h.Steps[warm+gateCommits:])
	b.StopTimer()
	b.ReportMetric(allocs, "allocs/commit")
	b.ReportMetric(visits, "visits/commit")
	b.ReportMetric(execs, "plan-execs/commit")
	if allocs > maxAllocs {
		b.Fatalf("%.3f allocations per commit over %d commits, want at most %d", allocs, gateCommits, maxAllocs)
	}
	if visits > maxVisits {
		b.Fatalf("%.2f entries resolved per commit over %d commits, want at most %d", visits, gateCommits, maxVisits)
	}
	if execs > maxExecs {
		b.Fatalf("%.2f plan executions per commit over %d commits, want at most %d", execs, gateCommits, maxExecs)
	}
}
