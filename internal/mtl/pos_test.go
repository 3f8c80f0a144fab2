package mtl

import (
	"errors"
	"strings"
	"testing"
)

// TestParserPositions pins the 1-based byte offsets the parser attaches
// to AST nodes.
func TestParserPositions(t *testing.T) {
	src := `p(x) and prev[1,2] q(x)`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	and, ok := f.(*And)
	if !ok {
		t.Fatalf("got %T, want *And", f)
	}
	if and.Pos != 1 {
		t.Errorf("And.Pos = %d, want 1", and.Pos)
	}
	if got := NodePos(and.L); got != 1 {
		t.Errorf("left atom pos = %d, want 1", got)
	}
	wantPrev := strings.Index(src, "prev") + 1
	if got := NodePos(and.R); got != wantPrev {
		t.Errorf("prev pos = %d, want %d", got, wantPrev)
	}
	prev := and.R.(*Prev)
	wantQ := strings.Index(src, "q(") + 1
	if got := NodePos(prev.F); got != wantQ {
		t.Errorf("inner atom pos = %d, want %d", got, wantQ)
	}
}

// TestPositionsSurviveRewrites checks that Normalize and Simplify keep
// the source position of the nodes they rebuild or replace.
func TestPositionsSurviveRewrites(t *testing.T) {
	src := `forall x: (p(x) -> once[0,5] q(x))`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	n := Simplify(Normalize(f))
	// The kernel form is not exists x: (p(x) and not once q(x)); every
	// node should carry a non-zero position from the original source.
	Walk(n, func(g Formula) {
		if _, ok := g.(Truth); ok {
			return
		}
		if NodePos(g) == 0 {
			t.Errorf("node %q lost its source position", g.String())
		}
	})
}

// TestSafetyErrorPosition checks that safety violations point at the
// offending subformula, not just the whole constraint.
func TestSafetyErrorPosition(t *testing.T) {
	src := `p(x) and y < 3`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	err = CheckSafe(f)
	if err == nil {
		t.Fatal("CheckSafe: want error for unbound filter variable")
	}
	var se *SafetyError
	if !errors.As(err, &se) {
		t.Fatalf("got %T, want *SafetyError", err)
	}
	if se.Pos == 0 {
		t.Errorf("SafetyError.Pos = 0, want a source position")
	}
	if !strings.Contains(se.Error(), "at position") {
		t.Errorf("Error() = %q, want position rendered", se.Error())
	}
}

// TestSafetyErrorPositionAtQuantifier: a quantified variable nothing
// binds is reported at its quantifier — here the forall the user wrote,
// whose position the exists of the denial inherits.
func TestSafetyErrorPositionAtQuantifier(t *testing.T) {
	src := `p(x) -> forall y: r(x, y)`
	err := CheckSafe(Simplify(Normalize(&Not{F: MustParse(src)})))
	var se *SafetyError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want *SafetyError", err)
	}
	if _, ok := se.Node.(*Exists); !ok || se.Pos != strings.Index(src, "forall")+1 {
		t.Errorf("blames %q at %d, want the quantifier at %d", se.Node, se.Pos, strings.Index(src, "forall")+1)
	}
}

// TestNodePosProgrammatic checks that hand-built formulas report
// position zero (unknown) rather than a bogus offset.
func TestNodePosProgrammatic(t *testing.T) {
	f := &And{L: Truth{Bool: true}, R: &Atom{Rel: "p"}}
	if got := NodePos(f); got != 0 {
		t.Errorf("NodePos = %d, want 0", got)
	}
	if got := NodePos(Truth{Bool: true}); got != 0 {
		t.Errorf("NodePos(Truth) = %d, want 0", got)
	}
}
