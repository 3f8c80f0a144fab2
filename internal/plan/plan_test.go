package plan

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rtic/internal/check"
	"rtic/internal/fol"
	"rtic/internal/formgen"
	"rtic/internal/mtl"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/value"
)

// fakeOracle serves deterministic pseudo-random answer sets for temporal
// subformulas, keyed by shape, so planned and tree-walk evaluation can
// be compared on formulas with temporal literals.
type fakeOracle struct {
	seed    int64
	domain  []value.Value
	answers map[string]*fol.Bindings
}

func newFakeOracle(seed int64, domain []value.Value) *fakeOracle {
	return &fakeOracle{seed: seed, domain: domain, answers: map[string]*fol.Bindings{}}
}

func (o *fakeOracle) answerFor(f mtl.Formula) *fol.Bindings {
	shape := f.String()
	if b, ok := o.answers[shape]; ok {
		return b
	}
	fv := mtl.FreeVars(f)
	b := fol.NewBindings(fv)
	h := int64(0)
	for _, c := range shape {
		h = h*31 + int64(c)
	}
	r := rand.New(rand.NewSource(o.seed ^ h))
	n := r.Intn(8)
	for i := 0; i < n; i++ {
		row := make(tuple.Tuple, len(fv))
		for j := range row {
			row[j] = o.domain[r.Intn(len(o.domain))]
		}
		if err := b.AddRow(row); err != nil {
			panic(err)
		}
	}
	o.answers[shape] = b
	return b
}

func (o *fakeOracle) Enumerate(f mtl.Formula) (*fol.Bindings, error) {
	switch f.(type) {
	case *mtl.Prev, *mtl.Once, *mtl.Since:
		return o.answerFor(f), nil
	}
	return nil, fmt.Errorf("fakeOracle: non-temporal %q", f.String())
}

func (o *fakeOracle) Test(f mtl.Formula, env fol.Env) (bool, error) {
	switch f.(type) {
	case *mtl.Prev, *mtl.Once, *mtl.Since:
		return o.answerFor(f).Contains(env)
	}
	return false, fmt.Errorf("fakeOracle: non-temporal %q", f.String())
}

func (o *fakeOracle) TestKey(f mtl.Formula, key []byte) (bool, error) {
	switch f.(type) {
	case *mtl.Prev, *mtl.Once, *mtl.Since:
		return o.answerFor(f).ContainsKeyBytes(key), nil
	}
	return false, fmt.Errorf("fakeOracle: non-temporal %q", f.String())
}

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.NewBuilder().
		Relation("p", 1).
		Relation("q", 1).
		Relation("r", 2).
		Relation("s", 3).
		MustBuild()
}

func fill(t *testing.T, st *storage.State, rel string, rows ...[]int64) {
	t.Helper()
	r, err := st.Relation(rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		vs := make(tuple.Tuple, len(row))
		for i, n := range row {
			vs[i] = value.Int(n)
		}
		r.MustInsert(vs)
	}
}

// canon renders a binding set for comparison.
func canon(b *fol.Bindings) string {
	var rows []string
	for _, t := range b.Rows() {
		rows = append(rows, t.Key())
	}
	sort.Strings(rows)
	return strings.Join(rows, ";")
}

// assertAgree compiles f, runs it both ways, and compares answer sets.
func assertAgree(t *testing.T, st *storage.State, oracle Oracle, f mtl.Formula) *Plan {
	t.Helper()
	p, err := Compile(f, st, nil)
	if err != nil {
		t.Fatalf("Compile(%q): %v", f.String(), err)
	}
	got, err := p.Eval(st, oracle, nil)
	if err != nil {
		t.Fatalf("plan eval %q: %v", f.String(), err)
	}
	want, err := fol.NewEvaluator(st, oracle).Eval(f)
	if err != nil {
		t.Fatalf("tree-walk eval %q: %v", f.String(), err)
	}
	if canon(got) != canon(want) {
		t.Fatalf("plan and tree-walk disagree on %q:\n plan: %s\n tree: %s", f.String(), got, want)
	}
	return p
}

func TestPlanMatchesTreeWalk(t *testing.T) {
	st := storage.NewState(testSchema(t))
	fill(t, st, "p", []int64{1}, []int64{2}, []int64{3})
	fill(t, st, "q", []int64{2}, []int64{4})
	fill(t, st, "r", []int64{1, 2}, []int64{2, 3}, []int64{3, 3}, []int64{2, 7})
	fill(t, st, "s", []int64{1, 2, 3}, []int64{2, 2, 2})
	oracle := newFakeOracle(7, []value.Value{value.Int(1), value.Int(2), value.Int(3), value.Int(7)})

	for _, src := range []string{
		"p(x)",
		"p(x) and q(x)",
		"p(x) and not q(x)",
		"p(x) and r(x, y)",
		"p(x) and r(x, y) and q(y)",
		"r(x, y) and r(y, z) and not r(x, z)",
		"r(x, x)",
		"p(x) and x = 2",
		"p(x) and y = x and r(x, y)",
		"r(x, y) and x < y",
		"p(x) or q(x)",
		"p(x) and not once q(x)",
		"p(x) and once[0,5] r(x, y)",
		"r(x, y) and not prev r(x, y)",
		"s(x, y, z) and r(x, y)",
		"p(x) and r(x, 2)",
	} {
		f := mtl.MustParse(src)
		assertAgree(t, st, oracle, f)
	}
}

func TestPlanClosedFormula(t *testing.T) {
	st := storage.NewState(testSchema(t))
	fill(t, st, "p", []int64{5})
	oracle := newFakeOracle(1, []value.Value{value.Int(5)})
	p := assertAgree(t, st, oracle, mtl.MustParse("p(5)"))
	b, err := p.Eval(st, oracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Fatalf("closed true formula: want unit answer, got %s", b)
	}
	assertAgree(t, st, oracle, mtl.MustParse("p(6)"))
}

func TestPlanInputs(t *testing.T) {
	st := storage.NewState(testSchema(t))
	fill(t, st, "r", []int64{1, 2}, []int64{1, 3}, []int64{2, 9})
	f := mtl.MustParse("r(x, y)")
	p, err := Compile(f, st, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Eval(st, nil, fol.Env{"x": value.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("want 2 rows for x=1, got %s", b)
	}
	b.EachRow(func(row tuple.Tuple) bool {
		if !row[0].Equal(value.Int(1)) {
			t.Fatalf("input x not respected: %s", row)
		}
		return true
	})
	if _, err := p.Eval(st, nil, nil); err == nil {
		t.Fatal("missing input must error")
	}
}

func TestPlanNegatedExists(t *testing.T) {
	st := storage.NewState(testSchema(t))
	fill(t, st, "p", []int64{1}, []int64{2})
	fill(t, st, "r", []int64{1, 5})
	f := mtl.Normalize(mtl.MustParse("p(x) and not (exists y: r(x, y))"))
	p := assertAgree(t, st, newFakeOracle(3, []value.Value{value.Int(1)}), f)
	if p.Seedable() {
		t.Fatal("plans with sub-probes must not report Seedable")
	}
}

func TestPlanInlinedExists(t *testing.T) {
	st := storage.NewState(testSchema(t))
	fill(t, st, "p", []int64{1}, []int64{2})
	fill(t, st, "r", []int64{1, 5}, []int64{1, 6})
	f := mtl.Normalize(mtl.MustParse("p(x) and (exists y: r(x, y))"))
	p := assertAgree(t, st, newFakeOracle(3, []value.Value{value.Int(1)}), f)
	if p.Seedable() {
		t.Fatal("plans with inlined existentials must not report Seedable")
	}
}

// Shapes are safe constraints over formgen.Schema() in forms its grammar
// does not produce. The first group is what Compile used to reject — a
// disjunction under and/exists, a bound variable reused or shadowing an
// outer one; the second is the since chain φ, which compiles with its
// variables as plan inputs. Exported for TestShapesEndToEnd, which lives
// in package plan_test because the engines it drives import this one.
var Shapes = []string{
	"p(x) -> q(x) and r(x, x)",                                   // or under and
	"p(x) -> once[0,3] q(x) and not prev q(x)",                   // or of temporal literals under and
	"p(x) -> (q(x) <-> r(x, x))",                                 // <-> in a consequent
	"p(x) -> not (exists y: r(x, y) and (q(y) or p(y)))",         // or under exists
	"p(x) -> (exists y: r(x, y) and (q(y) or p(y)))",             // or under not exists
	"p(x) -> not (q(x) since[0,4] (p(x) and (q(x) or r(x, x))))", // or inside a since right-hand side
	"p(x) -> not prev (q(x) and (p(x) or r(x, x)))",              // or inside a prev argument
	"p(x) -> not ((exists y: r(x, y)) and (exists y: r(y, x)))",  // one name, two sibling quantifiers
	"p(x) -> not (exists x: q(x))",                               // a quantifier shadowing a free variable
	"q(x) -> not (exists x: r(x, x) and (exists x: p(x)))",       // and shadowing another quantifier
	"q(x) -> not (exists a: r(a, x) and once[0,3] r(a, x))",      // a bound variable in a temporal literal's columns
	"p(x) -> not (exists y: r(x, y) and not once[1,4] r(y, x))",

	"p(x) -> not ((not q(x)) since[1,6] r(x, x))",
	"p(x) -> not ((x != 1) since q(x))",
	"p(x) -> not ((once[0,2] q(x)) since[0,8] p(x))",
	"p(x) -> not ((not q(x) and x != 1 and once[0,3] p(x)) since[0,9] r(x, x))",
	"p(x) -> not ((q(x) or x = 2) since p(x))",
	"r(x, y) -> not ((not p(y)) since[0,5] r(x, y))",
}

// kernel is one formula core compiles for a constraint: the denial, a
// temporal node's enumerated operand, or (with inputs) a since chain.
type kernel struct {
	f      mtl.Formula
	inputs []string
}

func kernelsOf(denial mtl.Formula) []kernel {
	ks := []kernel{{f: denial}}
	mtl.Walk(denial, func(g mtl.Formula) {
		switch n := g.(type) {
		case *mtl.Prev:
			ks = append(ks, kernel{f: n.F})
		case *mtl.Once:
			ks = append(ks, kernel{f: n.F})
		case *mtl.Since:
			ks = append(ks, kernel{f: n.R}, kernel{f: n.L, inputs: mtl.FreeVars(n.L)})
		}
	})
	return ks
}

// TestPlanFormerlyRejectedShapes compiles every kernel of every shape
// and holds it to the tree-walking evaluator on 50 random states: a
// kernel without inputs by its answer set, a chain under every binding
// of its inputs over the domain.
func TestPlanFormerlyRejectedShapes(t *testing.T) {
	for _, src := range Shapes {
		con, err := check.Parse("shape", src, formgen.Schema())
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for _, k := range kernelsOf(con.Denial) {
			for ds := int64(0); ds < 50; ds++ {
				st, domain := randomState(t, ds)
				oracle := newFakeOracle(ds, domain)
				if k.inputs == nil {
					assertAgree(t, st, oracle, k.f)
					continue
				}
				p, err := Compile(k.f, st, k.inputs)
				if err != nil {
					t.Fatalf("%s: chain %q: %v", src, k.f.String(), err)
				}
				eachEnv(k.inputs, domain, func(env fol.Env) {
					got := false
					if err := p.Execute(st, oracle, env, func(tuple.Tuple) bool {
						got = true
						return false
					}); err != nil {
						t.Fatalf("%s: chain %q under %v: %v", src, k.f.String(), env, err)
					}
					want, err := fol.NewEvaluator(st, oracle).Test(k.f, env)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s: chain %q under %v (data seed %d): plan %v, tree-walk %v", src, k.f.String(), env, ds, got, want)
					}
				})
			}
		}
	}
}

// eachEnv calls visit with every binding of vars over domain.
func eachEnv(vars []string, domain []value.Value, visit func(fol.Env)) {
	env := fol.Env{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			visit(env)
			return
		}
		for _, v := range domain {
			env[vars[i]] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// A disjunction under a conjunction distributes into flat disjuncts, so
// the plan takes the delta-driven routines, not just full execution.
func TestPlanDistributedDisjunctionIsSeedable(t *testing.T) {
	st := storage.NewState(testSchema(t))
	p, err := Compile(mtl.MustParse("p(x) and (not q(x) or r(x, x))"), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Seedable() || len(p.Sources()) != 3 {
		t.Fatalf("seedable=%v sources=%v, want p, ¬q and r", p.Seedable(), p.Sources())
	}
}

// What Compile still refuses is what only active-domain semantics can
// decide: a quantified variable no enumerable literal provides.
func TestPlanRejectsUnrestrictedQuantifier(t *testing.T) {
	st := storage.NewState(testSchema(t))
	f := mtl.Normalize(mtl.MustParse("p(x) and (exists y: not r(x, y))"))
	if _, err := Compile(f, st, nil); err == nil {
		t.Fatalf("Compile(%q) must fail: y is bound by no enumerable literal", f.String())
	}
}

func TestPlanUsesIndex(t *testing.T) {
	st := storage.NewState(testSchema(t))
	fill(t, st, "p", []int64{1})
	fill(t, st, "r", []int64{1, 2})
	f := mtl.MustParse("p(x) and r(x, y)")
	if _, err := Compile(f, st, nil); err != nil {
		t.Fatal(err)
	}
	r, err := st.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	if r.FindIndex([]int{0}) == nil {
		t.Fatal("compiling p(x) ∧ r(x,y) must register an index on r's first column")
	}
}

func TestPlanRetestRow(t *testing.T) {
	st := storage.NewState(testSchema(t))
	fill(t, st, "p", []int64{1}, []int64{2})
	fill(t, st, "q", []int64{2})
	f := mtl.MustParse("p(x) and not q(x)")
	p, err := Compile(f, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Seedable() {
		t.Fatal("flat literal plan must be seedable")
	}
	for _, tc := range []struct {
		x    int64
		want bool
	}{{1, true}, {2, false}, {9, false}} {
		got, err := p.RetestRow(st, nil, tuple.Of(value.Int(tc.x)))
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("RetestRow(x=%d) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestPlanExecuteSeeded(t *testing.T) {
	st := storage.NewState(testSchema(t))
	fill(t, st, "p", []int64{1}, []int64{2}, []int64{3})
	fill(t, st, "q", []int64{2})
	f := mtl.MustParse("p(x) and not q(x)")
	p, err := Compile(f, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	srcs := p.Sources()
	if len(srcs) != 2 {
		t.Fatalf("want 2 sources, got %v", srcs)
	}
	var pSrc, qSrc Source
	for _, s := range srcs {
		if s.IsRel && s.Rel == "p" && s.Positive {
			pSrc = s
		}
		if s.IsRel && s.Rel == "q" && !s.Positive {
			qSrc = s
		}
	}
	collect := func(src Source, rows ...tuple.Tuple) []string {
		var got []string
		if err := p.ExecuteSeeded(st, nil, src, rows, func(row tuple.Tuple) bool {
			got = append(got, row.Key())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sort.Strings(got)
		return got
	}
	// A newly inserted p(3) derives the answer x=3 (q misses 3).
	if got := collect(pSrc, tuple.Of(value.Int(3))); len(got) != 1 {
		t.Fatalf("seed p(3): want 1 answer, got %v", got)
	}
	// A newly inserted p(2) derives nothing: q(2) holds.
	if got := collect(pSrc, tuple.Of(value.Int(2))); len(got) != 0 {
		t.Fatalf("seed p(2): want 0 answers, got %v", got)
	}
	// A deleted q(1) derives x=1 through the negated literal.
	if got := collect(qSrc, tuple.Of(value.Int(1))); len(got) != 1 {
		t.Fatalf("seed ¬q(1): want 1 answer, got %v", got)
	}
}

func TestPlanSeededMatchesDelta(t *testing.T) {
	// Randomized: apply a delta, check that full evaluation after equals
	// (surviving retested old answers) ∪ (seeded answers from the delta).
	r := rand.New(rand.NewSource(11))
	sch := testSchema(t)
	for trial := 0; trial < 200; trial++ {
		st := storage.NewState(sch)
		dom := int64(4)
		for _, rel := range []string{"p", "q"} {
			for v := int64(0); v < dom; v++ {
				if r.Intn(2) == 0 {
					fill(t, st, rel, []int64{v})
				}
			}
		}
		f := mtl.MustParse("p(x) and not q(x)")
		p, err := Compile(f, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		before, err := p.Eval(st, nil, nil)
		if err != nil {
			t.Fatal(err)
		}

		// Random net delta on p and q.
		type change struct {
			rel    string
			val    int64
			insert bool
		}
		var delta []change
		for _, rel := range []string{"p", "q"} {
			rr, _ := st.Relation(rel)
			for v := int64(0); v < dom; v++ {
				if r.Intn(3) != 0 {
					continue
				}
				has := rr.Contains(tuple.Of(value.Int(v)))
				if has {
					rr.Delete(tuple.Of(value.Int(v)))
					delta = append(delta, change{rel, v, false})
				} else {
					rr.MustInsert(tuple.Of(value.Int(v)))
					delta = append(delta, change{rel, v, true})
				}
			}
		}

		// Delta-driven: retest surviving old answers, seed from changes.
		got := fol.NewBindings(p.Vars())
		var iterErr error
		before.EachRow(func(row tuple.Tuple) bool {
			ok, err := p.RetestRow(st, nil, row)
			if err != nil {
				iterErr = err
				return false
			}
			if ok {
				if err := got.AddRow(row); err != nil {
					iterErr = err
					return false
				}
			}
			return true
		})
		if iterErr != nil {
			t.Fatal(iterErr)
		}
		for _, ch := range delta {
			src := Source{IsRel: true, Rel: ch.rel, Positive: ch.insert}
			if err := p.ExecuteSeeded(st, nil, src, []tuple.Tuple{tuple.Of(value.Int(ch.val))}, func(row tuple.Tuple) bool {
				if err := got.AddRow(row); err != nil {
					iterErr = err
					return false
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		if iterErr != nil {
			t.Fatal(iterErr)
		}
		want, err := p.Eval(st, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if canon(got) != canon(want) {
			t.Fatalf("trial %d: delta-driven %s != full %s", trial, got, want)
		}
	}
}

func TestPlanAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	st := storage.NewState(testSchema(t))
	fill(t, st, "p", []int64{1}, []int64{2}, []int64{3})
	fill(t, st, "r", []int64{1, 2}, []int64{2, 3})
	p, err := Compile(mtl.MustParse("p(x) and r(x, y) and not q(y)"), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pool, then measure.
	run := func() {
		if err := p.Execute(st, nil, nil, func(tuple.Tuple) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(100, run)
	if allocs > 0 {
		t.Fatalf("steady-state plan execution allocates %.1f objects/run, want 0", allocs)
	}
}

// randomState fills a state over formgen.Schema() with up to ten random
// rows per relation over a five-value domain.
func randomState(t *testing.T, seed int64) (*storage.State, []value.Value) {
	t.Helper()
	st := storage.NewState(formgen.Schema())
	dr := rand.New(rand.NewSource(seed))
	domain := make([]value.Value, 5)
	for i := range domain {
		domain[i] = value.Int(int64(i))
	}
	for _, name := range formgen.Schema().Names() {
		rel, err := st.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		n := dr.Intn(10)
		for i := 0; i < n; i++ {
			row := make(tuple.Tuple, rel.Arity())
			for j := range row {
				row[j] = domain[dr.Intn(len(domain))]
			}
			rel.MustInsert(row)
		}
	}
	return st, domain
}

// formulaAgreesWithTreeWalk is the shared body of the fuzz target and
// its seed-corpus regression test.
func formulaAgreesWithTreeWalk(t *testing.T, formulaSeed, dataSeed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(formulaSeed))
	src := formgen.Constraint(r)
	f, err := mtl.Parse(src)
	if err != nil {
		t.Fatalf("formgen produced unparsable %q: %v", src, err)
	}
	con, err := check.Compile("fuzz", f, formgen.Schema())
	if err != nil {
		return // not safe; nothing to plan
	}
	st, domain := randomState(t, dataSeed)
	oracle := newFakeOracle(dataSeed, domain)
	p, err := Compile(con.Denial, st, nil)
	if err != nil {
		t.Fatalf("Compile rejects %q, which check.Compile admits (seed %d): %v", con.Denial.String(), formulaSeed, err)
	}
	got, err := p.Eval(st, oracle, nil)
	if err != nil {
		t.Fatalf("plan eval of %q: %v", con.Denial.String(), err)
	}
	want, err := fol.NewEvaluator(st, oracle).Eval(con.Denial)
	if err != nil {
		t.Fatalf("tree-walk eval of %q: %v", con.Denial.String(), err)
	}
	if canon(got) != canon(want) {
		t.Fatalf("plan and tree-walk disagree on %q (seed %d/%d):\n plan: %s\n tree: %s",
			con.Denial.String(), formulaSeed, dataSeed, got, want)
	}
}

func TestPlanFuzzSeeds(t *testing.T) {
	for fs := int64(0); fs < 60; fs++ {
		for ds := int64(0); ds < 3; ds++ {
			formulaAgreesWithTreeWalk(t, fs, ds)
		}
	}
}

// FuzzPlanExec drives compiled-plan execution against the tree-walking
// evaluator on random formgen constraints over random states.
func FuzzPlanExec(f *testing.F) {
	f.Add(int64(1), int64(1))
	f.Add(int64(42), int64(7))
	f.Add(int64(1234), int64(99))
	f.Fuzz(func(t *testing.T, formulaSeed, dataSeed int64) {
		formulaAgreesWithTreeWalk(t, formulaSeed, dataSeed)
	})
}

// TestCheckSafeAdmitsOnlyWhatCompiles: mtl.CheckSafe is the one definition
// of a range-restricted formula, and Compile's own range-restriction
// errors guard hand-built input only. Whatever CheckSafe admits of
// 10,000 formulas from the edge of the safe fragment compiles — the
// denial, every temporal operand, every since chain — and the first few
// hundred agree with the tree-walking evaluator on random states, which
// decides their quantifiers over the active domain. Around the
// compiler the backstop still stands.
func TestCheckSafeAdmitsOnlyWhatCompiles(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	st, _ := randomState(t, 1)
	admitted, refused := 0, 0
	for i := 0; i < 10000; i++ {
		src := formgen.NearlySafe(r)
		denial := mtl.Simplify(mtl.Normalize(&mtl.Not{F: mtl.MustParse(src)}))
		if mtl.CheckSafe(denial) != nil {
			refused++
			continue
		}
		admitted++
		for _, k := range kernelsOf(denial) {
			if _, err := Compile(k.f, st, k.inputs); err != nil {
				t.Errorf("CheckSafe admits the denial of %q, Compile refuses its kernel %q: %v", src, k.f.String(), err)
			}
		}
		if admitted <= 300 {
			for ds := int64(0); ds < 3; ds++ {
				rst, rdomain := randomState(t, ds)
				assertAgree(t, rst, newFakeOracle(ds, rdomain), denial)
			}
		}
	}
	if admitted < 2000 || refused < 2000 {
		t.Fatalf("%d admitted, %d refused: the generator should land on both sides of the line", admitted, refused)
	}
	t.Logf("CheckSafe admitted %d of 10000, every kernel compiled; refused %d", admitted, refused)

	for _, tc := range []struct{ src, want string }{
		{"p(x) and exists y: not r(x, y)", "unbound variables no enumerable literal provides"},
		{"p(x) and not exists y: (q(x) or r(x, y))", "does not bind output variable"},
		{"p(x) or q(y)", "does not bind output variable"},
	} {
		f := mtl.Normalize(mtl.MustParse(tc.src))
		if mtl.CheckSafe(f) == nil {
			t.Errorf("CheckSafe admits %q", tc.src)
		}
		if _, err := Compile(f, st, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Compile(%q) = %v, want the backstop %q", tc.src, err, tc.want)
		}
	}
}
