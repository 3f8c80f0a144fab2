package lint

import (
	"encoding/json"
	"strings"
	"testing"

	"rtic/internal/mtl"
	"rtic/internal/schema"
	"rtic/internal/workload"
)

func testSchema() *schema.Schema {
	return schema.NewBuilder().
		Relation("p", 1).
		Relation("q", 1).
		Relation("r", 2).
		MustBuild()
}

// rules collects the rule names fired for src.
func rules(t *testing.T, src string, opts Options) []string {
	t.Helper()
	diags := Source("c", src, testSchema(), opts)
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Rule
	}
	return out
}

func hasRule(diags []Diagnostic, rule string) *Diagnostic {
	for i := range diags {
		if diags[i].Rule == rule {
			return &diags[i]
		}
	}
	return nil
}

// TestUnsatisfiableInterval pins the acceptance case: prev with an
// upper bound of zero can never fire because timestamps strictly
// increase.
func TestUnsatisfiableInterval(t *testing.T) {
	diags := Source("c", `p(x) -> prev[0,0] p(x)`, testSchema(), Options{})
	d := hasRule(diags, "interval-unsatisfiable")
	if d == nil {
		t.Fatalf("interval-unsatisfiable not reported; got %v", diags)
	}
	if d.Severity != Error {
		t.Errorf("severity = %s, want error", d.Severity)
	}
	if d.Pos == 0 {
		t.Errorf("diagnostic carries no source position")
	}
	if !HasErrors(diags) {
		t.Errorf("HasErrors = false")
	}
	// A satisfiable prev window must stay clean.
	if ds := Source("c", `p(x) -> prev[1,5] p(x)`, testSchema(), Options{}); hasRule(ds, "interval-unsatisfiable") != nil {
		t.Errorf("prev[1,5] flagged: %v", ds)
	}
}

// TestVacuousConstraint pins the acceptance case: a constraint whose
// denial simplifies to false can never be violated.
func TestVacuousConstraint(t *testing.T) {
	diags := Source("c", `p(x) or not p(x)`, testSchema(), Options{})
	d := hasRule(diags, "vacuous-constraint")
	if d == nil {
		t.Fatalf("vacuous-constraint not reported; got %v", diags)
	}
	if d.Severity != Warning {
		t.Errorf("severity = %s, want warning", d.Severity)
	}
}

// TestCostThreshold pins the acceptance case: a huge metric window
// over a wide binding space blows the worst-case estimate.
func TestCostThreshold(t *testing.T) {
	// A window with lower bound 0 keeps one timestamp per binding however
	// wide it is; from lower bound 1 on every in-window anchor is held.
	src := `r(x, y) -> not once[1,999999] r(x, y)`
	diags := Source("c", src, testSchema(), Options{})
	d := hasRule(diags, "cost")
	if d == nil {
		t.Fatalf("cost not reported; got %v", diags)
	}
	if d.Severity != Warning {
		t.Errorf("severity = %s, want warning", d.Severity)
	}
	if !strings.Contains(d.Message, "exceeds threshold") {
		t.Errorf("message = %q", d.Message)
	}
	// Raising the threshold silences it; NoCostCheck disables the pass.
	if ds := Source("c", src, testSchema(), Options{CostThreshold: 1 << 60}); hasRule(ds, "cost") != nil {
		t.Errorf("cost fired above threshold: %v", ds)
	}
	if ds := Source("c", src, testSchema(), Options{CostThreshold: NoCostCheck}); hasRule(ds, "cost") != nil {
		t.Errorf("cost fired with NoCostCheck: %v", ds)
	}
	// A tight window stays under the default threshold, and so does a
	// wide one that its newest anchor decides.
	for _, cheap := range []string{`r(x, y) -> not once[1,9] r(x, y)`, `r(x, y) -> not once[0,999999] r(x, y)`} {
		if ds := Source("c", cheap, testSchema(), Options{}); hasRule(ds, "cost") != nil {
			t.Errorf("cheap constraint %q flagged: %v", cheap, ds)
		}
	}
}

func TestContradiction(t *testing.T) {
	diags := Source("c", `p(x) and not p(x)`, testSchema(), Options{})
	d := hasRule(diags, "contradiction")
	if d == nil {
		t.Fatalf("contradiction not reported; got %v", diags)
	}
	if d.Severity != Error {
		t.Errorf("severity = %s, want error", d.Severity)
	}
}

func TestContradictoryConjuncts(t *testing.T) {
	diags := Source("c", `p(x) or (x = 1 and x != 1)`, testSchema(), Options{})
	if hasRule(diags, "contradictory-conjuncts") == nil {
		t.Errorf("contradictory-conjuncts not reported; got %v", diags)
	}
}

func TestDeadBranch(t *testing.T) {
	diags := Source("c", `p(x) or (1 > 2)`, testSchema(), Options{})
	if hasRule(diags, "dead-branch") == nil {
		t.Errorf("dead-branch not reported; got %v", diags)
	}
}

func TestConstantSubformula(t *testing.T) {
	diags := Source("c", `p(x) and 1 < 2`, testSchema(), Options{})
	if hasRule(diags, "constant-subformula") == nil {
		t.Errorf("constant-subformula not reported; got %v", diags)
	}
	// A literal `true` written by the author is not flagged.
	diags = Source("c", `p(x) and true`, testSchema(), Options{})
	if hasRule(diags, "constant-subformula") != nil {
		t.Errorf("literal true flagged: %v", diags)
	}
}

func TestUnusedAndShadowedVariables(t *testing.T) {
	diags := Source("c", `exists x, y: p(x)`, testSchema(), Options{})
	d := hasRule(diags, "unused-variable")
	if d == nil {
		t.Fatalf("unused-variable not reported; got %v", diags)
	}
	if !strings.Contains(d.Message, `"y"`) {
		t.Errorf("message = %q, want y named", d.Message)
	}
	diags = Source("c", `p(x) and exists x: q(x)`, testSchema(), Options{})
	if hasRule(diags, "shadowed-variable") == nil {
		t.Errorf("shadowed-variable not reported; got %v", diags)
	}
}

func TestSchemaRules(t *testing.T) {
	diags := Source("c", `pp(x) -> q(x)`, testSchema(), Options{})
	d := hasRule(diags, "unknown-relation")
	if d == nil {
		t.Fatalf("unknown-relation not reported; got %v", diags)
	}
	if !strings.Contains(d.Suggestion, "did you mean p?") {
		t.Errorf("suggestion = %q", d.Suggestion)
	}
	diags = Source("c", `p(x, y) -> q(x)`, testSchema(), Options{})
	if hasRule(diags, "arity-mismatch") == nil {
		t.Errorf("arity-mismatch not reported; got %v", diags)
	}
	// All schema errors are reported, not just the first.
	diags = Source("c", `pp(x) and qq(x)`, testSchema(), Options{})
	n := 0
	for _, d := range diags {
		if d.Rule == "unknown-relation" {
			n++
		}
	}
	if n != 2 {
		t.Errorf("got %d unknown-relation findings, want 2: %v", n, diags)
	}
}

func TestColumnTypeConflict(t *testing.T) {
	diags := Source("c", `p(1) -> not p('ann')`, testSchema(), Options{})
	if hasRule(diags, "column-type-conflict") == nil {
		t.Errorf("column-type-conflict not reported; got %v", diags)
	}
	// Variable-mediated conflict: x joins p.0 with a string literal.
	diags = Source("c", `(p(x) and x = 'ann') -> not p(1)`, testSchema(), Options{})
	if hasRule(diags, "column-type-conflict") == nil {
		t.Errorf("variable-mediated conflict not reported; got %v", diags)
	}
}

func TestUnsafeDiagnostic(t *testing.T) {
	diags := Source("c", `not p(x) -> q(x)`, testSchema(), Options{})
	d := hasRule(diags, "unsafe")
	if d == nil {
		t.Fatalf("unsafe not reported; got %v", diags)
	}
	if d.Severity != Error {
		t.Errorf("severity = %s, want error", d.Severity)
	}

	// A quantified variable nothing enumerates is refused by the
	// language itself, so the finding comes with the safety analyzer's
	// position — the quantifier — rather than as a planner error from the
	// cost pass.
	src := `p(x) -> forall y: r(x, y)`
	diags = Source("c", src, testSchema(), Options{})
	d = hasRule(diags, "unsafe")
	if d == nil || len(diags) != 1 {
		t.Fatalf("want exactly the unsafe finding; got %v", diags)
	}
	if want := strings.Index(src, "forall") + 1; d.Pos != want || d.Node != "exists y: not r(x, y)" {
		t.Errorf("unsafe finding at %d on %q, want %d on the quantifier", d.Pos, d.Node, want)
	}
	if !strings.Contains(d.Message, `quantified variables [y] must be bound`) || strings.Contains(d.Message, "plan:") {
		t.Errorf("message = %q, want the safety analyzer's reason", d.Message)
	}
}

func TestParseDiagnostic(t *testing.T) {
	diags := Source("c", `p(x) and and`, testSchema(), Options{})
	if d := hasRule(diags, "parse"); d == nil || d.Severity != Error {
		t.Fatalf("parse error not reported as diagnostic; got %v", diags)
	}
}

func TestIntervalOverflow(t *testing.T) {
	diags := Source("c", `p(x) leadsto[0,18446744073709551615] q(x)`, testSchema(), Options{})
	if hasRule(diags, "interval-overflow") == nil {
		t.Errorf("interval-overflow not reported; got %v", diags)
	}
}

func TestEmptyIntervalProgrammatic(t *testing.T) {
	// The parser rejects inverted bounds; hand-built ASTs reach the
	// linter anyway.
	f := &mtl.Once{I: mtl.Interval{Lo: 5, Hi: 2}, F: &mtl.Atom{Rel: "p", Args: []mtl.Term{mtl.Var{Name: "x"}}}}
	con := &mtl.Implies{L: &mtl.Atom{Rel: "p", Args: []mtl.Term{mtl.Var{Name: "x"}}}, R: f}
	diags := Constraint("c", con, testSchema(), Options{})
	if hasRule(diags, "interval-empty") == nil {
		t.Errorf("interval-empty not reported; got %v", diags)
	}
}

func TestCleanConstraintHasNoFindings(t *testing.T) {
	for _, src := range []string{
		`p(x) -> not once[0,30] q(x)`,
		`r(x, y) -> prev[1,10] r(x, y)`,
		`p(x) leadsto[0,5] q(x)`,
	} {
		if diags := Source("c", src, testSchema(), Options{}); len(diags) != 0 {
			t.Errorf("%q: unexpected findings %v", src, diags)
		}
	}
}

func TestSpecLevelRules(t *testing.T) {
	specs := []workload.ConstraintSpec{
		{Name: "a", Source: `p(x) -> not once[0,5] q(x)`, Line: 3},
	}
	diags := Constraints(specs, testSchema(), Options{})
	d := hasRule(diags, "unused-relation")
	if d == nil {
		t.Fatalf("unused-relation not reported for r; got %v", diags)
	}
	if d.Severity != Info {
		t.Errorf("severity = %s, want info", d.Severity)
	}
	// never-written-relation only fires when a written set is given.
	diags = Constraints(specs, testSchema(), Options{Written: map[string]bool{"p": true}})
	d = hasRule(diags, "never-written-relation")
	if d == nil {
		t.Fatalf("never-written-relation not reported for q; got %v", diags)
	}
	if !strings.Contains(d.Message, "relation q") {
		t.Errorf("message = %q", d.Message)
	}
}

func TestSpecLinePropagates(t *testing.T) {
	specs := []workload.ConstraintSpec{
		{Name: "bad", Source: `p(x) -> prev[0,0] p(x)`, Line: 7},
	}
	diags := Constraints(specs, testSchema(), Options{})
	d := hasRule(diags, "interval-unsatisfiable")
	if d == nil {
		t.Fatalf("interval-unsatisfiable not reported; got %v", diags)
	}
	if d.Line != 7 {
		t.Errorf("Line = %d, want 7", d.Line)
	}
	if !strings.Contains(d.String(), "bad:7:") {
		t.Errorf("String() = %q, want line rendered", d.String())
	}
}

func TestDiagnosticJSON(t *testing.T) {
	d := Diagnostic{Rule: "cost", Severity: Warning, Constraint: "c", Message: "m"}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"severity":"warning"`) {
		t.Errorf("json = %s", b)
	}
}

func TestMaxSeverity(t *testing.T) {
	if got := MaxSeverity(nil); got != Severity(-1) {
		t.Errorf("MaxSeverity(nil) = %v", got)
	}
	diags := []Diagnostic{{Severity: Info}, {Severity: Warning}}
	if got := MaxSeverity(diags); got != Warning {
		t.Errorf("MaxSeverity = %v, want warning", got)
	}
	if HasErrors(diags) {
		t.Errorf("HasErrors = true without errors")
	}
}
