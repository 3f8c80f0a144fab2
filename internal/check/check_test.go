package check

import (
	"strings"
	"testing"

	"rtic/internal/fol"
	"rtic/internal/mtl"
	"rtic/internal/schema"
	"rtic/internal/tuple"
	"rtic/internal/value"
)

func testSchema() *schema.Schema {
	return schema.NewBuilder().
		Relation("hire", 1).
		Relation("fire", 1).
		MustBuild()
}

func TestCompileRehireConstraint(t *testing.T) {
	c, err := Parse("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "no_quick_rehire" {
		t.Fatalf("name = %q", c.Name)
	}
	if len(c.Vars) != 1 || c.Vars[0] != "e" {
		t.Fatalf("vars = %v", c.Vars)
	}
	// Denial: hire(e) and once[0,365] fire(e).
	want := mtl.MustParse("hire(e) and once[0,365] fire(e)")
	if !mtl.Equal(c.Denial, want) {
		t.Fatalf("denial = %s, want %s", c.Denial, want)
	}
	if err := mtl.CheckSafe(c.Denial); err != nil {
		t.Fatalf("denial unsafe: %v", err)
	}
}

func TestCompileErrors(t *testing.T) {
	s := testSchema()
	cases := []struct{ name, src, frag string }{
		{"bad name!", "hire(e)", "invalid constraint name"},
		{"c1", "nosuch(e)", "unknown relation"},
		{"c2", "hire(e, f)", "arity"},
		// ¬(¬hire(e)) = hire(e): safe. But ¬(hire(e)) = not hire(e): unsafe denial.
		{"c3", "hire(e)", "range-restricted"},
	}
	for _, c := range cases {
		_, err := Parse(c.name, c.src, s)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Parse(%q, %q) err = %v, want containing %q", c.name, c.src, err, c.frag)
		}
	}
}

func TestParseSyntaxError(t *testing.T) {
	if _, err := Parse("c", "hire(", testSchema()); err == nil {
		t.Fatal("syntax error accepted")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Constraint: "c", Index: 3, Time: 77}
	if got := v.String(); got != "c violated at state 3 (time 77)" {
		t.Fatalf("closed violation = %q", got)
	}
	v.Vars = []string{"e"}
	v.Binding = append(v.Binding, value.Int(9))
	if got := v.String(); !strings.Contains(got, "e=9") {
		t.Fatalf("open violation = %q", got)
	}
	v.Vars = []string{"e", "n"}
	v.Binding = append(v.Binding, value.Str("o'k"))
	want := "c violated at state 3 (time 77) by e=9, n='o''k'"
	if got := v.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := string(v.AppendTo([]byte("violation "))); got != "violation "+want {
		t.Fatalf("AppendTo = %q", got)
	}
}

func TestFromBindings(t *testing.T) {
	c, err := Parse("no_quick_rehire", "hire(e) -> not once fire(e)", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	b := fol.NewBindings([]string{"e"})
	_ = b.Add(fol.Env{"e": value.Int(7)})
	_ = b.Add(fol.Env{"e": value.Int(8)})
	vs, err := FromBindings(c, 2, 50, b)
	if err != nil || len(vs) != 2 {
		t.Fatalf("FromBindings = %v err=%v", vs, err)
	}
	for _, v := range vs {
		if v.Constraint != "no_quick_rehire" || v.Index != 2 || v.Time != 50 {
			t.Fatalf("violation fields wrong: %+v", v)
		}
	}
	// Rows over more variables than the constraint's are projected.
	wide := fol.NewBindings([]string{"a", "e"})
	_ = wide.Add(fol.Env{"a": value.Int(1), "e": value.Int(7)})
	vs, err = FromBindings(c, 2, 50, wide)
	if err != nil || len(vs) != 1 || !vs[0].Binding.Equal(tuple.Ints(7)) {
		t.Fatalf("FromBindings over (a, e) = %v err=%v", vs, err)
	}
	// Empty bindings yield no violations.
	empty := fol.NewBindings([]string{"e"})
	vs, err = FromBindings(c, 0, 0, empty)
	if err != nil || vs != nil {
		t.Fatalf("empty bindings = %v err=%v", vs, err)
	}
	// Missing variable errors.
	bad := fol.NewBindings([]string{"x"})
	_ = bad.Add(fol.Env{"x": value.Int(1)})
	if _, err := FromBindings(c, 0, 0, bad); err == nil {
		t.Fatal("missing variable accepted")
	}
}

func TestCompileClosedConstraint(t *testing.T) {
	s := schema.NewBuilder().Relation("alarm", 0).MustBuild()
	c, err := Parse("never_alarm", "not alarm()", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Vars) != 0 {
		t.Fatalf("vars = %v", c.Vars)
	}
	// Denial is alarm().
	if !mtl.Equal(c.Denial, mtl.MustParse("alarm()")) {
		t.Fatalf("denial = %s", c.Denial)
	}
}

func TestCompileDegenerateConstraints(t *testing.T) {
	s := testSchema()
	// "false and hire(e)" is violated by every value of e — witnesses
	// are not enumerable, so compilation must fail.
	if _, err := Parse("bad", "false and hire(e)", s); err == nil {
		t.Fatal("degenerate constraint accepted")
	}
	// A tautology with free variables is fine: its denial is constant
	// false and it never reports anything.
	c, err := Parse("taut", "hire(e) or not hire(e)", s)
	if err != nil {
		t.Fatal(err)
	}
	if ft, ok := c.Denial.(mtl.Truth); !ok || ft.Bool {
		t.Fatalf("tautology denial = %s", c.Denial)
	}
}

func TestCompileSimplifiesDenial(t *testing.T) {
	s := testSchema()
	c, err := Parse("c", "hire(e) -> not (true and once[0,9] fire(e))", s)
	if err != nil {
		t.Fatal(err)
	}
	want := mtl.MustParse("hire(e) and once[0,9] fire(e)")
	if !mtl.Equal(c.Denial, want) {
		t.Fatalf("denial = %s, want simplified %s", c.Denial, want)
	}
}
