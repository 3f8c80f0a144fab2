package shard

import (
	"testing"

	"rtic/internal/check"
	"rtic/internal/schema"
)

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.NewBuilder().
		Relation("p", 1).
		Relation("q", 1).
		Relation("r", 2).
		MustBuild()
}

func parse(t *testing.T, s *schema.Schema, name, src string) *check.Constraint {
	t.Helper()
	con, err := check.Parse(name, src, s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return con
}

func TestAnalyzePartitionable(t *testing.T) {
	s := testSchema(t)
	con := parse(t, s, "c", "p(x) -> not once[0,3] q(x)")
	plan, err := Analyze(s, []*check.Constraint{con})
	if err != nil {
		t.Fatal(err)
	}
	cp := plan.Cons[0]
	if !cp.Partitioned || cp.KeyVar != "x" {
		t.Fatalf("constraint placement = %+v, want partitioned by x", cp)
	}
	for _, rel := range []string{"p", "q"} {
		rp := plan.Rels[rel]
		if !rp.Partitioned || rp.Column != 0 {
			t.Fatalf("%s placement = %+v, want partitioned at column 0", rel, rp)
		}
	}
	// r is read by no constraint: spread by its first column.
	if rp := plan.Rels["r"]; !rp.Partitioned || rp.Column != 0 {
		t.Fatalf("r placement = %+v, want partitioned at column 0", rp)
	}
}

func TestAnalyzeBinaryJoinKey(t *testing.T) {
	s := testSchema(t)
	// y joins r's second column with q; x appears only in r.
	con := parse(t, s, "c", "r(x, y) -> not once[0,2] q(y)")
	plan, err := Analyze(s, []*check.Constraint{con})
	if err != nil {
		t.Fatal(err)
	}
	if cp := plan.Cons[0]; !cp.Partitioned || cp.KeyVar != "y" {
		t.Fatalf("constraint placement = %+v, want partitioned by y", cp)
	}
	if rp := plan.Rels["r"]; !rp.Partitioned || rp.Column != 1 {
		t.Fatalf("r placement = %+v, want partitioned at column 1", rp)
	}
	if rp := plan.Rels["q"]; !rp.Partitioned || rp.Column != 0 {
		t.Fatalf("q placement = %+v, want partitioned at column 0", rp)
	}
}

func TestAnalyzeClosedConstraintGlobal(t *testing.T) {
	s := testSchema(t)
	con := parse(t, s, "c", "p(0) -> not once[0,3] q(0)")
	plan, err := Analyze(s, []*check.Constraint{con})
	if err != nil {
		t.Fatal(err)
	}
	if cp := plan.Cons[0]; cp.Partitioned || cp.Reason == "" {
		t.Fatalf("closed constraint placement = %+v, want global with a reason", cp)
	}
	for _, rel := range []string{"p", "q"} {
		if rp := plan.Rels[rel]; rp.Partitioned {
			t.Fatalf("%s placement = %+v, want global", rel, rp)
		}
	}
}

func TestAnalyzeSelfJoinConflictGlobal(t *testing.T) {
	s := testSchema(t)
	// x sits at column 0 in one atom and column 1 in the other (and
	// symmetrically for y): no single partition column works.
	con := parse(t, s, "c", "r(x, y) -> not once[0,2] r(y, x)")
	plan, err := Analyze(s, []*check.Constraint{con})
	if err != nil {
		t.Fatal(err)
	}
	if cp := plan.Cons[0]; cp.Partitioned {
		t.Fatalf("self-join placement = %+v, want global", cp)
	}
	if rp := plan.Rels["r"]; rp.Partitioned {
		t.Fatalf("r placement = %+v, want global", rp)
	}
}

func TestAnalyzeDemotionCascade(t *testing.T) {
	s := testSchema(t)
	partitionable := parse(t, s, "a", "p(x) -> not once[0,3] q(x)")
	closed := parse(t, s, "b", "q(0) -> not p(0)")
	plan, err := Analyze(s, []*check.Constraint{partitionable, closed})
	if err != nil {
		t.Fatal(err)
	}
	// The closed constraint forces p and q global, which must demote
	// the otherwise partitionable constraint too.
	for i, cp := range plan.Cons {
		if cp.Partitioned {
			t.Fatalf("constraint %d placement = %+v, want global", i, cp)
		}
	}
	for _, rel := range []string{"p", "q"} {
		if rp := plan.Rels[rel]; rp.Partitioned {
			t.Fatalf("%s placement = %+v, want global", rel, rp)
		}
	}
}

func TestAnalyzeColumnConflictBetweenConstraints(t *testing.T) {
	s := testSchema(t)
	first := parse(t, s, "a", "r(x, y) -> not once[0,2] p(x)")  // claims r column 0
	second := parse(t, s, "b", "r(x, y) -> not once[0,2] q(y)") // needs r column 1
	plan, err := Analyze(s, []*check.Constraint{first, second})
	if err != nil {
		t.Fatal(err)
	}
	// The second constraint cannot share r's column, so it goes global,
	// r goes global, and the first constraint is demoted with it.
	for i, cp := range plan.Cons {
		if cp.Partitioned {
			t.Fatalf("constraint %d placement = %+v, want global after the column conflict", i, cp)
		}
	}
	for _, rel := range []string{"p", "q", "r"} {
		if rp := plan.Rels[rel]; rp.Partitioned {
			t.Fatalf("%s placement = %+v, want global", rel, rp)
		}
	}
}

func TestAnalyzeAtomMissingKeyGoesGlobal(t *testing.T) {
	s := testSchema(t)
	// The once-subformula reads q(0), which does not carry x: no key
	// variable reaches every atom.
	con := parse(t, s, "c", "p(x) -> not once[0,3] q(0)")
	plan, err := Analyze(s, []*check.Constraint{con})
	if err != nil {
		t.Fatal(err)
	}
	if cp := plan.Cons[0]; cp.Partitioned {
		t.Fatalf("placement = %+v, want global", cp)
	}
}

func TestAnalyzeReboundKeyGoesGlobal(t *testing.T) {
	s := testSchema(t)
	// The inner x is not the constraint's x: q's column does not carry
	// the key, whatever its argument is called.
	con := parse(t, s, "c", "p(x) -> not (exists x: q(x))")
	plan, err := Analyze(s, []*check.Constraint{con})
	if err != nil {
		t.Fatal(err)
	}
	if cp := plan.Cons[0]; cp.Partitioned || cp.Reason == "" {
		t.Fatalf("placement = %+v, want global with a reason", cp)
	}
}
