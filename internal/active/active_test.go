package active

import (
	"strings"
	"testing"

	"rtic/internal/check"
	"rtic/internal/mtl"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/value"
)

func baseSchema() *schema.Schema {
	return schema.NewBuilder().
		Relation("p", 1).
		Relation("q", 1).
		Relation("hire", 1).
		Relation("fire", 1).
		MustBuild()
}

func ins(rel string, v int64) *storage.Transaction {
	return storage.NewTransaction().Insert(rel, tuple.Ints(v))
}

func TestEngineBasicRule(t *testing.T) {
	s := schema.NewBuilder().Relation("src", 1).Relation("rtic_dst", 1).MustBuild()
	e := NewEngine(s)
	// Copy rule: every src tuple is mirrored into rtic_dst.
	err := e.AddRule(&Rule{
		Name:      "copy",
		Priority:  1,
		Condition: mtl.MustParse("src(x)"),
		Actions:   []Action{{Insert: true, Rel: "rtic_dst", Args: []mtl.Term{mtl.Var{Name: "x"}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(1, storage.NewTransaction().Insert("src", tuple.Ints(7))); err != nil {
		t.Fatal(err)
	}
	rel, _ := e.State().Relation("rtic_dst")
	if !rel.Contains(tuple.Ints(7)) {
		t.Fatal("rule did not fire")
	}
	if e.Firings() != 1 {
		t.Fatalf("firings = %d", e.Firings())
	}
}

func TestEngineParams(t *testing.T) {
	s := schema.NewBuilder().Relation("src", 1).Relation("rtic_stamped", 2).MustBuild()
	e := NewEngine(s)
	err := e.AddRule(&Rule{
		Name:      "stamp",
		Priority:  1,
		Condition: mtl.MustParse("src(x)"),
		BindParams: func(now, last uint64, started bool) map[string]value.Value {
			return map[string]value.Value{"__now": value.Int(int64(now))}
		},
		Actions: []Action{{Insert: true, Rel: "rtic_stamped",
			Args: []mtl.Term{mtl.Var{Name: "x"}, mtl.Var{Name: "__now"}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(42, storage.NewTransaction().Insert("src", tuple.Ints(1))); err != nil {
		t.Fatal(err)
	}
	rel, _ := e.State().Relation("rtic_stamped")
	if !rel.Contains(tuple.Ints(1, 42)) {
		t.Fatalf("stamped relation = %s", rel)
	}
}

func TestEnginePriorityOrder(t *testing.T) {
	// Rule B (higher priority number) must observe rule A's effect.
	s := schema.NewBuilder().Relation("src", 1).Relation("rtic_a", 1).Relation("rtic_b", 1).MustBuild()
	e := NewEngine(s)
	_ = e.AddRule(&Rule{
		Name: "second", Priority: 2,
		Condition: mtl.MustParse("rtic_a(x)"),
		Actions:   []Action{{Insert: true, Rel: "rtic_b", Args: []mtl.Term{mtl.Var{Name: "x"}}}},
	})
	_ = e.AddRule(&Rule{
		Name: "first", Priority: 1,
		Condition: mtl.MustParse("src(x)"),
		Actions:   []Action{{Insert: true, Rel: "rtic_a", Args: []mtl.Term{mtl.Var{Name: "x"}}}},
	})
	if err := e.Commit(1, storage.NewTransaction().Insert("src", tuple.Ints(5))); err != nil {
		t.Fatal(err)
	}
	rel, _ := e.State().Relation("rtic_b")
	if !rel.Contains(tuple.Ints(5)) {
		t.Fatal("immediate coupling broken: second rule did not see first rule's insert")
	}
}

func TestEngineRejects(t *testing.T) {
	s := schema.NewBuilder().Relation("src", 1).Relation("rtic_x", 1).MustBuild()
	e := NewEngine(s)
	if err := e.AddRule(&Rule{Name: "nocond", Priority: 1}); err == nil {
		t.Fatal("rule without condition accepted")
	}
	if err := e.AddRule(&Rule{
		Name: "badrel", Priority: 1,
		Condition: mtl.MustParse("src(x)"),
		Actions:   []Action{{Insert: true, Rel: "nosuch", Args: nil}},
	}); err == nil {
		t.Fatal("action on unknown relation accepted")
	}
	if err := e.AddRule(&Rule{Name: "temporal", Priority: 1, Condition: mtl.MustParse("once src(x)")}); err == nil ||
		!strings.Contains(err.Error(), "temporal operator") {
		t.Fatalf("temporal condition: err = %v", err)
	}
	if err := e.Commit(1, storage.NewTransaction().Insert("rtic_x", tuple.Ints(1))); err == nil {
		t.Fatal("user transaction on reserved relation accepted")
	}
	if err := e.Commit(1, storage.NewTransaction()); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(1, storage.NewTransaction()); err == nil {
		t.Fatal("non-increasing timestamp accepted")
	}
	if err := e.AddRule(&Rule{Name: "late", Priority: 1, Condition: mtl.MustParse("src(x)")}); err == nil {
		t.Fatal("rule added after start accepted")
	}
}

// A condition the planner refuses is the rule's error, at install and in
// the planner's words: there is no second evaluator to hand it to.
func TestEngineRefusesUnplannableCondition(t *testing.T) {
	s := schema.NewBuilder().Relation("src", 1).Relation("pair", 2).Relation("rtic_d", 1).MustBuild()
	for _, tc := range []struct{ cond, want string }{
		{"src(x) and exists y: not pair(x, y)", "plan: conjuncts [pair(x, y)] have unbound variables no enumerable literal provides"},
		{"src(x) and y < 3", "plan: conjuncts [y < 3] have unbound variables no enumerable literal provides"},
		{"src(x) or pair(x, y)", `plan: disjunct "src(x)" does not bind output variable "y"`},
	} {
		e := NewEngine(s)
		err := e.AddRule(&Rule{
			Name: "bad", Priority: 1,
			Condition: mtl.MustParse(tc.cond),
			Actions:   []Action{{Insert: true, Rel: "rtic_d", Args: []mtl.Term{mtl.Var{Name: "x"}}}},
		})
		if err == nil || !strings.HasSuffix(err.Error(), tc.want) {
			t.Errorf("AddRule(%q) = %v, want the planner's %q", tc.cond, err, tc.want)
		}
		if err := e.Commit(1, ins("src", 1)); err != nil {
			t.Errorf("%q: the refused rule was installed: %v", tc.cond, err)
		}
	}
}

// Conditions are normalized before they are planned, so a rule may be
// written with sugar and with negation over a conjunction; parameters
// bind free occurrences only — a quantifier that reuses a parameter's
// name shadows it.
func TestEngineConditionNormalizedAndParamsShadowed(t *testing.T) {
	s := schema.NewBuilder().Relation("src", 1).Relation("pair", 2).Relation("rtic_d", 1).MustBuild()
	e := NewEngine(s)
	err := e.AddRule(&Rule{
		Name: "r", Priority: 1,
		// k is a parameter outside the quantifiers, a bound variable in them.
		Condition: mtl.MustParse("src(x) and not (pair(x, k) and k = 1) and (exists k: pair(k, x)) and forall k: (pair(k, x) -> k != 2)"),
		BindParams: func(now, _ uint64, _ bool) map[string]value.Value {
			return map[string]value.Value{"k": value.Int(1)}
		},
		Actions: []Action{{Insert: true, Rel: "rtic_d", Args: []mtl.Term{mtl.Var{Name: "x"}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 5 fires: ∃k ranges past the parameter's value. 6 does not:
	// pair(6, k) with k = 1 blocks it. Nor does 7: ∀k meets k = 2, which
	// the parameter's value 1 in k's place would have let through.
	tx := storage.NewTransaction().
		Insert("src", tuple.Ints(5)).Insert("pair", tuple.Ints(9, 5)).
		Insert("src", tuple.Ints(6)).Insert("pair", tuple.Ints(6, 1)).Insert("pair", tuple.Ints(9, 6)).
		Insert("src", tuple.Ints(7)).Insert("pair", tuple.Ints(2, 7))
	if err := e.Commit(1, tx); err != nil {
		t.Fatal(err)
	}
	rel, _ := e.State().Relation("rtic_d")
	if !rel.Contains(tuple.Ints(5)) || rel.Contains(tuple.Ints(6)) || rel.Len() != 1 {
		t.Fatalf("rtic_d = %s, want exactly (5)", rel)
	}
}

// The parameter names are part of the compiled condition: a binder that
// changes them between firings is an error, not a silent zero value.
func TestEngineParamNamesFixed(t *testing.T) {
	s := schema.NewBuilder().Relation("src", 1).Relation("rtic_d", 1).MustBuild()
	e := NewEngine(s)
	err := e.AddRule(&Rule{
		Name: "drift", Priority: 1,
		Condition: mtl.MustParse("src(x) and x < lim"),
		BindParams: func(now, _ uint64, started bool) map[string]value.Value {
			if started {
				return map[string]value.Value{"limit": value.Int(9)}
			}
			return map[string]value.Value{"lim": value.Int(9)}
		},
		Actions: []Action{{Insert: true, Rel: "rtic_d", Args: []mtl.Term{mtl.Var{Name: "x"}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(1, ins("src", 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(2, ins("src", 2)); err == nil || !strings.Contains(err.Error(), "compiled for [lim]") {
		t.Fatalf("err = %v, want a parameter-name mismatch", err)
	}
}

func TestEngineActionUnboundVar(t *testing.T) {
	s := schema.NewBuilder().Relation("src", 1).Relation("rtic_d", 1).MustBuild()
	e := NewEngine(s)
	_ = e.AddRule(&Rule{
		Name: "bad", Priority: 1,
		Condition: mtl.MustParse("src(x)"),
		Actions:   []Action{{Insert: true, Rel: "rtic_d", Args: []mtl.Term{mtl.Var{Name: "zz"}}}},
	})
	if err := e.Commit(1, storage.NewTransaction().Insert("src", tuple.Ints(1))); err == nil ||
		!strings.Contains(err.Error(), "unbound") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckerRehireScenario(t *testing.T) {
	s := baseSchema()
	c := New(s)
	con, err := check.Parse("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddConstraint(con); err != nil {
		t.Fatal(err)
	}

	vs, err := c.Step(0, ins("fire", 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("violations = %v", vs)
	}
	tx := storage.NewTransaction().Delete("fire", tuple.Ints(7)).Insert("hire", tuple.Ints(7))
	vs, err = c.Step(100, tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !vs[0].Binding[0].Equal(value.Int(7)) {
		t.Fatalf("violations = %v, want e=7", vs)
	}
	vs, err = c.Step(366, storage.NewTransaction())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("violations after window = %v", vs)
	}
}

func TestCheckerGuards(t *testing.T) {
	s := baseSchema()
	c := New(s)
	con, _ := check.Parse("c1", "p(x) -> not once q(x)", s)
	if err := c.AddConstraint(con); err != nil {
		t.Fatal(err)
	}
	dup, _ := check.Parse("c1", "p(x) -> not once q(x)", s)
	if err := c.AddConstraint(dup); err == nil {
		t.Fatal("duplicate constraint accepted")
	}
	if _, err := c.Step(1, ins("p", 1)); err != nil {
		t.Fatal(err)
	}
	late, _ := check.Parse("c2", "p(x) -> not once q(x)", s)
	if err := c.AddConstraint(late); err == nil {
		t.Fatal("late constraint accepted")
	}
	if c.RuleCount() == 0 {
		t.Fatal("no rules generated")
	}
}

func TestReservedBaseSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(schema.NewBuilder().Relation("rtic_evil", 1).MustBuild())
}

func TestAuxTuplesBounded(t *testing.T) {
	s := baseSchema()
	c := New(s)
	con, _ := check.Parse("c", "p(x) -> not once q(x)", s)
	if err := c.AddConstraint(con); err != nil {
		t.Fatal(err)
	}
	tm := uint64(1)
	for i := int64(0); i < 50; i++ {
		if _, err := c.Step(tm, ins("q", i%4)); err != nil {
			t.Fatal(err)
		}
		tm++
	}
	n, err := c.AuxTuples()
	if err != nil {
		t.Fatal(err)
	}
	// Unbounded window: one anchor per binding, 4 bindings.
	if n > 4 {
		t.Fatalf("aux tuples = %d, want at most 4", n)
	}
}
