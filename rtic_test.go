package rtic

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"rtic/internal/active"
	"rtic/internal/cdcgen"
	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/naive"
	"rtic/internal/shard"
)

func hrSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema().Relation("hire", 1).Relation("fire", 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// forEachEngine runs body as one subtest per engine the repo holds
// equal: "incremental" is the Checker NewChecker builds (the paper's
// checker); "naive" (the executable specification) and "active-rules"
// (Table 5's baseline) are the same Checker with its engine swapped
// for a one-shard router over that engine. The public layer reaches
// its engine only through shard.Checker, so its flows must come out
// the same over all three.
func forEachEngine(t *testing.T, s *Schema, body func(t *testing.T, c *Checker)) {
	refs := []struct {
		name    string
		factory shard.Factory
	}{
		{"incremental", nil},
		{"naive", func() engine.Engine { return naive.New(s) }},
		{"active-rules", func() engine.Engine { return active.New(s) }},
	}
	for _, ref := range refs {
		t.Run(ref.name, func(t *testing.T) {
			c, err := NewChecker(s)
			if err != nil {
				t.Fatal(err)
			}
			if ref.factory != nil {
				if c.eng, err = shard.New(s, 1, ref.factory); err != nil {
					t.Fatal(err)
				}
			}
			body(t, c)
		})
	}
}

func TestQuickstartFlow(t *testing.T) {
	forEachEngine(t, hrSchema(t), func(t *testing.T, c *Checker) {
		if err := c.AddConstraint("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)"); err != nil {
			t.Fatal(err)
		}
		vs, err := c.Begin().Insert("fire", Int(7)).Commit(0)
		if err != nil || len(vs) != 0 {
			t.Fatalf("commit 0: vs=%v err=%v", vs, err)
		}
		vs, err = c.Begin().Delete("fire", Int(7)).Insert("hire", Int(7)).Commit(100)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 1 || !vs[0].Binding[0].Equal(Int(7)) {
			t.Fatalf("violations = %v, want e=7", vs)
		}
		vs, err = c.Begin().Commit(366)
		if err != nil || len(vs) != 0 {
			t.Fatalf("after window: vs=%v err=%v", vs, err)
		}
	})
}

// TestDefaultModeIsIncremental: the engine behind NewChecker is the
// paper's checker.
func TestDefaultModeIsIncremental(t *testing.T) {
	c, err := NewChecker(hrSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.eng.(*core.Checker); !ok {
		t.Fatalf("default engine is %T, want *core.Checker", c.eng)
	}
}

func TestNilSchema(t *testing.T) {
	if _, err := NewChecker(nil); err == nil {
		t.Fatal("nil schema accepted")
	}
}

func TestAddConstraintErrors(t *testing.T) {
	c, _ := NewChecker(hrSchema(t))
	if err := c.AddConstraint("bad syntax", "hire(e)"); err == nil {
		t.Fatal("invalid name accepted")
	}
	if err := c.AddConstraint("c1", "hire("); err == nil {
		t.Fatal("syntax error accepted")
	}
	if err := c.AddConstraint("c1", "nosuch(e)"); err == nil {
		t.Fatal("unknown relation accepted")
	}
	// Denial of "hire(e)" is "not hire(e)": not range-restricted.
	err := c.AddConstraint("c1", "hire(e)")
	if err == nil || !strings.Contains(err.Error(), "range-restricted") {
		t.Fatalf("unsafe constraint: err = %v", err)
	}
	if err := c.AddConstraint("c1", "hire(e) -> not once fire(e)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin().Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddConstraint("c2", "hire(e) -> not once fire(e)"); err == nil {
		t.Fatal("constraint after first commit accepted")
	}
	if got := c.Constraints(); len(got) != 1 || got[0] != "c1" {
		t.Fatalf("Constraints = %v", got)
	}
}

func TestMustAddConstraintPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c, _ := NewChecker(hrSchema(t))
	c.MustAddConstraint("c", "((")
}

func TestCommitErrors(t *testing.T) {
	c, _ := NewChecker(hrSchema(t))
	if _, err := c.Begin().Insert("nosuch", Int(1)).Commit(1); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := c.Begin().Insert("hire", Int(1), Int(2)).Commit(1); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := c.Begin().Commit(5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin().Commit(5); err == nil {
		t.Fatal("non-increasing timestamp accepted")
	}
}

func TestStats(t *testing.T) {
	c, _ := NewChecker(hrSchema(t))
	c.MustAddConstraint("c", "hire(e) -> not once[0,10] fire(e)")
	if _, err := c.Begin().Insert("fire", Int(1)).Commit(1); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Nodes != 1 || st.Entries == 0 || st.Bytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestValidateFormula(t *testing.T) {
	c, _ := NewChecker(hrSchema(t))
	vars, err := c.ValidateFormula("hire(e) -> not once fire(e)")
	if err != nil || len(vars) != 1 || vars[0] != "e" {
		t.Fatalf("vars=%v err=%v", vars, err)
	}
	if _, err := c.ValidateFormula("nosuch(x)"); err == nil {
		t.Fatal("invalid formula validated")
	}
}

func TestParseFormula(t *testing.T) {
	got, err := ParseFormula("hire ( e )  ->  not once [ 0 , 365 ] fire(e)")
	if err != nil {
		t.Fatal(err)
	}
	if got != "hire(e) -> not once[0,365] fire(e)" {
		t.Fatalf("canonical form = %q", got)
	}
	if _, err := ParseFormula("(("); err == nil {
		t.Fatal("syntax error accepted")
	}
}

func TestStringValues(t *testing.T) {
	s, _ := NewSchema().Relation("badge", 2).Build()
	c, _ := NewChecker(s)
	c.MustAddConstraint("one_badge", "badge(p, b1) and badge(p, b2) -> b1 = b2")
	if _, err := c.Begin().Insert("badge", Str("ann"), Str("red")).Commit(1); err != nil {
		t.Fatal(err)
	}
	vs, err := c.Begin().Insert("badge", Str("ann"), Str("blue")).Commit(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 { // (red,blue) and (blue,red)
		t.Fatalf("violations = %v, want the two witness orientations", vs)
	}
}

func TestExplainThroughPublicAPI(t *testing.T) {
	c, _ := NewChecker(hrSchema(t))
	c.MustAddConstraint("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)")
	if _, err := c.Begin().Insert("fire", Int(7)).Commit(10); err != nil {
		t.Fatal(err)
	}
	vs, err := c.Begin().Insert("hire", Int(7)).Commit(100)
	if err != nil || len(vs) != 1 {
		t.Fatalf("vs=%v err=%v", vs, err)
	}
	ex, err := c.Explain(vs[0])
	if err != nil {
		t.Fatal(err)
	}
	// fire(7) is never deleted, so it anchors the window at t=10 and again
	// at t=100. A window with lower bound 0 is decided by its newest anchor
	// alone, and that is the only one the encoding keeps.
	if len(ex.Evidence) != 1 || len(ex.Evidence[0].Times) != 1 || ex.Evidence[0].Times[0] != 100 {
		t.Fatalf("explanation = %+v", ex)
	}
}

func TestLastSkipsThroughPublicAPI(t *testing.T) {
	s, err := NewSchema().Relation("hire", 1).Relation("fire", 1).Relation("audit", 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(s)
	c.MustAddConstraint("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)")
	// First commit: no previous answer to reuse, even though the
	// constraint's read set is untouched.
	if _, err := c.Begin().Insert("audit", Int(1)).Commit(1); err != nil {
		t.Fatal(err)
	}
	skips := c.LastSkips()
	if len(skips) != 1 || skips[0].Constraint != "no_quick_rehire" || skips[0].Action == ActionSkipped {
		t.Fatalf("first commit: skips = %v", skips)
	}
	// Second untouched commit: the previous answer is reused.
	if _, err := c.Begin().Insert("audit", Int(2)).Commit(2); err != nil {
		t.Fatal(err)
	}
	if got := c.LastSkips()[0]; got.Action != ActionSkipped {
		t.Fatalf("untouched commit not skipped: %v", got)
	}
	// A write into the read set forces re-evaluation.
	if _, err := c.Begin().Insert("hire", Int(7)).Commit(3); err != nil {
		t.Fatal(err)
	}
	if got := c.LastSkips()[0]; got.Action == ActionSkipped {
		t.Fatalf("constraint skipped although its read set was written: %v", got)
	}
}

func TestQuery(t *testing.T) {
	forEachEngine(t, hrSchema(t), func(t *testing.T, c *Checker) {
		c.MustAddConstraint("c", "hire(e) -> not once fire(e)")
		if _, err := c.Begin().
			Insert("hire", Int(1)).
			Insert("hire", Int(2)).
			Insert("fire", Int(2)).
			Commit(1); err != nil {
			t.Fatal(err)
		}
		res, err := c.Query("hire(e) and not fire(e)")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Vars) != 1 || res.Vars[0] != "e" {
			t.Fatalf("vars = %v", res.Vars)
		}
		if len(res.Rows) != 1 || !res.Rows[0][0].Equal(Int(1)) {
			t.Fatalf("rows = %v", res.Rows)
		}
	})
}

// TestQueryRegistersNoIndex: a partially bound query — r probed by the
// x that p binds — answers from a scan and leaves the live relations'
// maintained indexes as they were.
func TestQueryRegistersNoIndex(t *testing.T) {
	s, err := NewSchema().Relation("p", 1).Relation("r", 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(s)
	c.MustAddConstraint("c", "p(x) -> not once r(x, x)")
	if _, err := c.Begin().Insert("p", Int(1)).Insert("r", Int(1), Int(2)).Insert("r", Int(3), Int(4)).Commit(1); err != nil {
		t.Fatal(err)
	}
	st, err := c.eng.State()
	if err != nil {
		t.Fatal(err)
	}
	r, err := st.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	indexed := func() (out []bool) {
		for _, cols := range [][]int{{0}, {1}, {0, 1}} {
			out = append(out, r.FindIndex(cols) != nil)
		}
		return out
	}
	before := indexed()
	res, err := c.Query("p(x) and r(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(Int(1)) || !res.Rows[0][1].Equal(Int(2)) {
		t.Fatalf("rows = %v", res.Rows)
	}
	if after := indexed(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("r's indexes on columns {0}, {1}, {0,1}: %v before the query, %v after", before, after)
	}
}

func TestQueryErrors(t *testing.T) {
	c, _ := NewChecker(hrSchema(t))
	if _, err := c.Query("(("); err == nil {
		t.Fatal("syntax error accepted")
	}
	if _, err := c.Query("nosuch(x)"); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := c.Query("hire(e) and once fire(e)"); err == nil {
		t.Fatal("temporal query accepted")
	}
	if _, err := c.Query("not hire(e)"); err == nil {
		t.Fatal("unsafe query accepted")
	}
}

func TestQueryBeforeFirstCommit(t *testing.T) {
	c, _ := NewChecker(hrSchema(t))
	c.MustAddConstraint("c", "hire(e) -> not once fire(e)")
	res, err := c.Query("hire(e)")
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestSnapshotThroughPublicAPI(t *testing.T) {
	c, _ := NewChecker(hrSchema(t))
	c.MustAddConstraint("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)")
	if _, err := c.Begin().Insert("fire", Int(7)).Commit(10); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreChecker(hrSchema(t), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Constraints(); len(got) != 1 || got[0] != "no_quick_rehire" {
		t.Fatalf("constraints = %v", got)
	}
	vs, err := restored.Begin().Insert("hire", Int(7)).Commit(100)
	if err != nil || len(vs) != 1 {
		t.Fatalf("restored checker: vs=%v err=%v", vs, err)
	}
	// Restored checkers refuse late constraint additions like live ones.
	if err := restored.AddConstraint("late", "hire(e) -> not once fire(e)"); err == nil {
		t.Fatal("late constraint accepted on restored checker")
	}
}

// TestRestoreCheckerConvertsVersion1: the library restores a version-1
// snapshot, which the engine (and so the daemon) refuses naming the
// version, and the restored checker saves it as version 2, which the
// engine loads.
func TestRestoreCheckerConvertsVersion1(t *testing.T) {
	raw, err := os.ReadFile("internal/core/testdata/pr15_cdc_seed5_step100.snap")
	if err != nil {
		t.Fatal(err)
	}
	s := cdcgen.Schema()
	if _, err := core.LoadSnapshot(s, bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("core.LoadSnapshot of a version-1 snapshot: %v", err)
	}
	c, err := RestoreChecker(s, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("RTICSNP2")) {
		t.Fatalf("the converted checkpoint opens %q", buf.Bytes()[:8])
	}
	loaded, err := core.LoadSnapshot(s, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 100 || len(loaded.Constraints()) != 6 {
		t.Fatalf("converted checkpoint holds %d commits and %d constraints, want 100 and 6", loaded.Len(), len(loaded.Constraints()))
	}
}

// TestRestoreRouterSnapshot: a snapshot a sharded daemon wrote does not
// restore into the unsharded public checker, and the refusal names both
// shard counts but no daemon flag, which the public API does not have.
func TestRestoreRouterSnapshot(t *testing.T) {
	s := hrSchema(t)
	r, err := shard.Build(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	con, err := check.Parse("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddConstraint(con); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := RestoreChecker(s, &buf)
	if err == nil || c != nil {
		t.Fatalf("2-shard snapshot restored as a checker = (%v, %v)", c, err)
	}
	if want := "written by 2 shards, this checker is unsharded"; !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "-shards") {
		t.Fatalf("error = %q, want %q and no flag", err, want)
	}
}
