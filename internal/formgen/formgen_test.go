package formgen

import (
	"math/rand"
	"testing"

	"rtic/internal/check"
	"rtic/internal/mtl"
)

func TestConstraintAlwaysCompiles(t *testing.T) {
	s := Schema()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		src := Constraint(r)
		if _, err := check.Parse("c", src, s); err != nil {
			t.Fatalf("iteration %d: generated uncompilable constraint %q: %v", i, src, err)
		}
	}
}

func TestConstraintDiversity(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	seen := map[string]bool{}
	temporalCount := 0
	for i := 0; i < 300; i++ {
		src := Constraint(r)
		seen[src] = true
		f := mtl.MustParse(src)
		if mtl.TemporalDepth(f) > 0 {
			temporalCount++
		}
	}
	if len(seen) < 100 {
		t.Fatalf("only %d distinct constraints in 300 draws", len(seen))
	}
	if temporalCount < 200 {
		t.Fatalf("only %d/300 constraints are temporal", temporalCount)
	}
}

func TestConstraintDeterministic(t *testing.T) {
	a := Constraint(rand.New(rand.NewSource(7)))
	b := Constraint(rand.New(rand.NewSource(7)))
	if a != b {
		t.Fatalf("same seed produced %q and %q", a, b)
	}
}

// NearlySafe formulas always parse; whether they compile is the question
// they exist to ask, and a useful share falls on each side of it.
func TestNearlySafeStraddlesTheLine(t *testing.T) {
	s := Schema()
	r := rand.New(rand.NewSource(3))
	safe, seen := 0, map[string]bool{}
	for i := 0; i < 2000; i++ {
		src := NearlySafe(r)
		seen[src] = true
		f, err := mtl.Parse(src)
		if err != nil {
			t.Fatalf("unparsable %q: %v", src, err)
		}
		if _, err := check.Compile("c", f, s); err == nil {
			safe++
		}
	}
	if safe < 400 || safe > 1600 || len(seen) < 1000 {
		t.Fatalf("%d of 2000 safe, %d distinct: want both sides well represented", safe, len(seen))
	}
	if a, b := NearlySafe(rand.New(rand.NewSource(7))), NearlySafe(rand.New(rand.NewSource(7))); a != b {
		t.Fatalf("same seed produced %q and %q", a, b)
	}
}
