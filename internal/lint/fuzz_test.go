package lint

import (
	"math/rand"
	"testing"

	"rtic/internal/formgen"
	"rtic/internal/mtl"
)

// FuzzLint feeds arbitrary source through the analyzer: any input —
// parseable or not, safe or not — must produce diagnostics without
// panicking, and a formula the compiler accepts must never produce an
// Error-severity finding from the compile-dependent passes alone.
func FuzzLint(f *testing.F) {
	seeds := []string{
		`p(x) -> not once[0,30] q(x)`,
		`p(x) -> prev[0,0] p(x)`,
		`p(x) or not p(x)`,
		`r(x, y) -> not once[0,999999] r(x, y)`,
		`pp(x) and qq(y)`,
		`exists x, y: p(x)`,
		`p(x) leadsto[0,18446744073709551615] q(x)`,
		`not a formula at all`,
		``,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		diags := Source("fuzz", src, testSchema(), Options{})
		for _, d := range diags {
			_ = d.String() // rendering must not panic either
			if d.Rule == "" {
				t.Errorf("diagnostic without rule: %+v", d)
			}
		}
	})
}

// TestLintGeneratedConstraints runs the analyzer over formgen's safe
// constraint grammar: no panics, and no Error findings on constraints
// the compiler provably accepts.
func TestLintGeneratedConstraints(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		src := formgen.Constraint(r)
		diags := Source("gen", src, formgen.Schema(), Options{})
		for _, d := range diags {
			if d.Severity == Error && d.Rule != "interval-unsatisfiable" {
				t.Errorf("%q: unexpected error finding %v", src, d)
			}
		}
	}
}

// TestLintPanicFreeOnAST exercises Constraint directly with hand-built
// node shapes Walk-based passes must tolerate.
func TestLintPanicFreeOnAST(t *testing.T) {
	p := &mtl.Atom{Rel: "p", Args: []mtl.Term{mtl.Var{Name: "x"}}}
	for _, f := range []mtl.Formula{
		mtl.Truth{Bool: true},
		&mtl.Not{F: &mtl.Not{F: p}},
		&mtl.Forall{Vars: []string{"x"}, F: &mtl.Always{I: mtl.Full(), F: &mtl.Not{F: p}}},
		&mtl.Since{I: mtl.AtLeast(3), L: p, R: p},
	} {
		_ = Constraint("ast", f, testSchema(), Options{})
	}
}
