package core

import (
	"fmt"
	"strings"

	"rtic/internal/check"
	"rtic/internal/fol"
	"rtic/internal/mtl"
)

// Explanations answer "why was this violation flagged?" from the
// auxiliary encoding: for every temporal subformula of the violated
// constraint's denial that the violating binding reaches, the checker
// reports whether it held and — for once/since nodes — the in-window
// anchor timestamps that witnessed it. Because the encoding holds only
// the current state's answers, a violation can be explained only while
// the checker still sits at the state that produced it.

// SkipAction names the strategy the delta-driven check path chose for
// one constraint in one commit.
type SkipAction string

const (
	// ActionSkipped: the previous answer was reused without evaluation —
	// the commit touched nothing the denial reads ("read set untouched"),
	// or the previous answer was empty and no changed source had rows in
	// the direction that can add one, insertions for a positive literal,
	// deletions for a negated one ("delta cannot add an answer").
	ActionSkipped SkipAction = "skipped"
	// ActionSeeded: the answer was re-derived semi-naively from the
	// previous answer and the commit's delta.
	ActionSeeded SkipAction = "seeded"
	// ActionPlanned: the compiled query plan ran in full.
	ActionPlanned SkipAction = "planned"
	// ActionTreeWalk is never emitted: the engine has one evaluator. The
	// constant survives only because the frozen benchmark/ladder.go names
	// it (core.treewalk_share); delete it in the next benchmark PR.
	ActionTreeWalk SkipAction = "tree-walk"
)

// SkipInfo records what the latest commit did for one constraint, and
// why — the commit-level counterpart of Explain.
type SkipInfo struct {
	Constraint string
	Action     SkipAction
	Reason     string
}

// String renders the decision for logs and CLIs.
func (s SkipInfo) String() string {
	if s.Reason == "" {
		return fmt.Sprintf("%s: %s", s.Constraint, s.Action)
	}
	return fmt.Sprintf("%s: %s (%s)", s.Constraint, s.Action, s.Reason)
}

// LastSkips returns the per-constraint strategy record of the latest
// commit, in constraint order. Nil until the first commit; callers must
// not mutate the slice.
func (c *Checker) LastSkips() []SkipInfo { return c.lastSkips }

// Evidence describes one temporal subformula under the violating binding.
type Evidence struct {
	// Formula is the temporal subformula as written in the denial.
	Formula string
	// Negated reports whether the subformula occurs under negation in
	// the denial — i.e. the violation required its *absence*.
	Negated bool
	// Holds is the subformula's truth under the binding at the
	// violating state.
	Holds bool
	// Times are the in-window anchor timestamps witnessing a once/since
	// node (empty for prev nodes and unsatisfied nodes).
	Times []uint64
}

// Explanation is the evidence trail of one violation.
type Explanation struct {
	Violation  check.Violation
	Constraint string // the constraint formula as written
	Denial     string // the compiled denial
	Evidence   []Evidence
}

// String renders the explanation for logs and CLIs.
func (e *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n  constraint: %s\n  denial:     %s\n", e.Violation.String(), e.Constraint, e.Denial)
	for _, ev := range e.Evidence {
		role := "required"
		if ev.Negated {
			role = "required absent"
		}
		fmt.Fprintf(&b, "  %s: %s (holds=%v", role, ev.Formula, ev.Holds)
		if len(ev.Times) > 0 {
			fmt.Fprintf(&b, ", witnessed at t=%v", ev.Times)
		}
		b.WriteString(")\n")
	}
	return b.String()
}

// Explain builds the evidence trail for a violation produced by the most
// recent Step. It errors if the checker has moved past the violating
// state (the encoding no longer answers for it) or if the constraint is
// unknown.
func (c *Checker) Explain(v check.Violation) (*Explanation, error) {
	if !c.started || v.Time != c.now {
		return nil, fmt.Errorf("core: violation at time %d cannot be explained at time %d; explain immediately after the Step that reported it", v.Time, c.now)
	}
	var con *check.Constraint
	for _, cand := range c.constraints {
		if cand.Name == v.Constraint {
			con = cand
			break
		}
	}
	if con == nil {
		return nil, fmt.Errorf("core: unknown constraint %q", v.Constraint)
	}
	if len(v.Vars) != len(v.Binding) {
		return nil, fmt.Errorf("core: violation binding arity mismatch")
	}
	env := make(fol.Env, len(v.Vars))
	for i, name := range v.Vars {
		env[name] = v.Binding[i]
	}

	ex := &Explanation{
		Violation:  v,
		Constraint: con.Formula.String(),
		Denial:     con.Denial.String(),
	}
	if err := c.explainWalk(con.Denial, env, false, ex); err != nil {
		return nil, err
	}
	return ex, nil
}

// explainWalk visits the denial's temporal nodes with polarity tracking,
// collecting evidence for every node whose free variables the violating
// binding covers (nodes under quantifiers introduce fresh variables and
// are skipped).
func (c *Checker) explainWalk(f mtl.Formula, env fol.Env, negated bool, ex *Explanation) error {
	switch n := f.(type) {
	case mtl.Truth, *mtl.Atom, *mtl.Cmp:
		return nil
	case *mtl.Not:
		return c.explainWalk(n.F, env, !negated, ex)
	case *mtl.And:
		if err := c.explainWalk(n.L, env, negated, ex); err != nil {
			return err
		}
		return c.explainWalk(n.R, env, negated, ex)
	case *mtl.Or:
		if err := c.explainWalk(n.L, env, negated, ex); err != nil {
			return err
		}
		return c.explainWalk(n.R, env, negated, ex)
	case *mtl.Exists:
		return nil // quantified variables are not bound by the witness
	case *mtl.Prev, *mtl.Once, *mtl.Since:
		for _, v := range mtl.FreeVars(f) {
			if _, ok := env[v]; !ok {
				return nil // not coverable by the witness binding
			}
		}
		node, ok := c.byNode[f]
		if !ok {
			return fmt.Errorf("core: explain: no auxiliary state for %q", f.String())
		}
		restricted := make(fol.Env, 4)
		for _, v := range mtl.FreeVars(f) {
			restricted[v] = env[v]
		}
		holds, err := node.test(restricted, c.now)
		if err != nil {
			return err
		}
		ev := Evidence{Formula: f.String(), Negated: negated, Holds: holds}
		if sn, ok := node.(*sinceNode); ok && holds {
			ev.Times = sn.witnesses(restricted, c.now)
		}
		ex.Evidence = append(ex.Evidence, ev)
		// Do not descend: nested temporal nodes answer at *their*
		// evaluation points, which the outer node's aux already folds in.
		return nil
	default:
		return fmt.Errorf("core: explain: unexpected node %T", f)
	}
}

// witnesses returns the in-window anchor timestamps of a binding — of
// those the encoding still holds: a window with a = 0 keeps only the
// newest anchor, the one that decides it, as an unbounded window keeps
// only the earliest.
func (s *sinceNode) witnesses(env fol.Env, now uint64) []uint64 {
	row, err := s.rowOf(env)
	if err != nil {
		return nil
	}
	e := s.fam.find(row)
	if e == nil {
		return nil
	}
	var out []uint64
	for _, tm := range s.fam.anchorsOf(e) {
		if s.iv.Contains(now - tm) {
			out = append(out, tm)
		}
	}
	return out
}
