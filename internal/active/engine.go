// Package active implements the second implementation route the paper's
// line of work describes (the TKDE companion "Implementing Temporal
// Integrity Constraints Using an Active DBMS"): the bounded history
// encoding is stored in ordinary database relations and maintained by
// event–condition–action rules that fire after every committed
// transaction, in the style of Starburst's statement-level production
// rules.
//
// The engine is generic: a rule has a priority, a first-order condition
// (a safe formula over the database, whose per-firing parameters are
// the inputs of its compiled plan), and a list of insert/delete actions
// whose arguments are resolved against each binding the condition
// produced. Rules fire in ascending priority order with immediate
// coupling — each rule sees the effects of the rules before it.
//
// Conditions have one evaluator, internal/plan — the one the
// incremental engine runs. AddRule puts the condition in kernel form
// and compiles it; a condition the planner refuses is refused there,
// with the planner's message. The tree-walking evaluator of
// internal/fol is the specification (internal/naive) and runs nothing
// here.
package active

import (
	"fmt"
	"sort"
	"strings"

	"rtic/internal/fol"
	"rtic/internal/mtl"
	"rtic/internal/plan"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/value"
)

// ReservedPrefix marks engine-managed relations (auxiliary encodings,
// violation tables). User transactions may not touch them.
const ReservedPrefix = "rtic_"

// Action is one tuple-level effect of a rule: insert or delete on Rel
// with arguments resolved from the condition's binding (variables) and
// the firing parameters (already substituted as constants).
type Action struct {
	Insert bool
	Rel    string
	Args   []mtl.Term
}

// Rule is a statement-level production rule.
type Rule struct {
	Name     string
	Priority int
	// Condition is a safe first-order formula; its satisfying bindings
	// drive the actions. The variables BindParams names are bound to the
	// values it produces before evaluation.
	Condition mtl.Formula
	// BindParams computes the per-firing parameters from the commit
	// time and the previous commit time (started reports whether a
	// previous commit exists). May be nil for parameterless rules. It
	// must name the same parameters at every call: AddRule calls it
	// once, with zero arguments, to learn the names the condition's
	// plan takes as inputs.
	BindParams func(now, last uint64, started bool) map[string]value.Value
	Actions    []Action

	// The compiled condition: its plan, the sorted parameter names the
	// plan was compiled with, and the buffer they are passed in.
	plan   *plan.Plan
	params []string
	env    fol.Env
}

// Engine is the active database: a state over base+managed relations and
// an ordered rule set.
type Engine struct {
	full    *schema.Schema
	st      *storage.State
	rules   []*Rule
	now     uint64
	started bool
	// firings counts rule firings (condition evaluations) for the
	// overhead experiments.
	firings int
}

// NewEngine creates an engine over the given full schema (base relations
// plus any engine-managed relations the rules maintain).
func NewEngine(full *schema.Schema) *Engine {
	return &Engine{full: full, st: storage.NewState(full)}
}

// AddRule installs a rule; rules are kept sorted by priority (stable for
// equal priorities, in insertion order).
func (e *Engine) AddRule(r *Rule) error {
	if e.started {
		return fmt.Errorf("active: rule %q added after the history started", r.Name)
	}
	if r.Condition == nil {
		return fmt.Errorf("active: rule %q has no condition", r.Name)
	}
	if mtl.TemporalDepth(r.Condition) > 0 {
		// Conditions are first-order formulas over base and auxiliary relations.
		return fmt.Errorf("active: rule %q: condition %q contains a temporal operator", r.Name, r.Condition.String())
	}
	for _, a := range r.Actions {
		if _, err := e.full.Arity(a.Rel); err != nil {
			return fmt.Errorf("active: rule %q: %w", r.Name, err)
		}
	}
	if r.BindParams != nil {
		r.params = paramNames(r.BindParams(0, 0, false))
	}
	p, err := plan.Compile(mtl.Normalize(r.Condition), e.st, r.params)
	if err != nil {
		return fmt.Errorf("active: rule %q: %w", r.Name, err)
	}
	r.plan, r.env = p, make(fol.Env, len(r.params))
	e.rules = append(e.rules, r)
	sort.SliceStable(e.rules, func(i, j int) bool { return e.rules[i].Priority < e.rules[j].Priority })
	return nil
}

// State returns the full database state (base and managed relations);
// callers must not mutate it.
func (e *Engine) State() *storage.State { return e.st }

// Now returns the latest commit time.
func (e *Engine) Now() uint64 { return e.now }

// Firings reports the cumulative number of rule firings.
func (e *Engine) Firings() int { return e.firings }

// Commit applies a user transaction at time t and runs the rule set to
// completion. The transaction may only touch non-reserved relations.
func (e *Engine) Commit(t uint64, tx *storage.Transaction) error {
	if e.started && t <= e.now {
		return fmt.Errorf("active: non-increasing timestamp %d after %d", t, e.now)
	}
	for _, op := range tx.Ops() {
		if strings.HasPrefix(op.Rel, ReservedPrefix) {
			return fmt.Errorf("active: transaction touches engine-managed relation %q", op.Rel)
		}
	}
	if err := tx.Validate(e.full); err != nil {
		return err
	}
	if err := e.st.Apply(tx); err != nil {
		return err
	}
	for _, r := range e.rules {
		if err := e.fire(r, t); err != nil {
			return fmt.Errorf("active: rule %q: %w", r.Name, err)
		}
	}
	e.now = t
	e.started = true
	return nil
}

func (e *Engine) fire(r *Rule, now uint64) error {
	e.firings++
	var params map[string]value.Value
	if r.BindParams != nil {
		params = r.BindParams(now, e.now, e.started)
	}
	same := len(params) == len(r.params)
	for _, name := range r.params {
		v, ok := params[name]
		same = same && ok
		r.env[name] = v
	}
	if !same {
		return fmt.Errorf("BindParams named %v, the condition was compiled for %v", paramNames(params), r.params)
	}
	b, err := r.plan.Eval(e.st, nil, r.env) // no oracle: AddRule admits no temporal operator
	if err != nil {
		return err
	}

	// Set-oriented semantics: compute all effects of this rule, then
	// apply deletions before insertions.
	var dels, inss []storage.Op
	var resErr error
	b.Each(func(env fol.Env) bool {
		for _, a := range r.Actions {
			row := make(tuple.Tuple, len(a.Args))
			for i, arg := range a.Args {
				v, err := resolveActionTerm(arg, env, params)
				if err != nil {
					resErr = err
					return false
				}
				row[i] = v
			}
			op := storage.Op{Rel: a.Rel, Tuple: row, Insert: a.Insert}
			if a.Insert {
				inss = append(inss, op)
			} else {
				dels = append(dels, op)
			}
		}
		return true
	})
	if resErr != nil {
		return resErr
	}
	apply := storage.NewTransaction()
	for _, op := range dels {
		apply.Delete(op.Rel, op.Tuple)
	}
	for _, op := range inss {
		apply.Insert(op.Rel, op.Tuple)
	}
	if err := apply.Validate(e.full); err != nil {
		return err
	}
	return e.st.Apply(apply)
}

// paramNames returns the sorted parameter names of one firing.
func paramNames(params map[string]value.Value) []string {
	if len(params) == 0 {
		return nil
	}
	out := make([]string, 0, len(params))
	for k := range params {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func resolveActionTerm(t mtl.Term, env fol.Env, params map[string]value.Value) (value.Value, error) {
	switch term := t.(type) {
	case mtl.Const:
		return term.Val, nil
	case mtl.Var:
		if v, ok := env[term.Name]; ok {
			return v, nil
		}
		if v, ok := params[term.Name]; ok {
			return v, nil
		}
		return value.Value{}, fmt.Errorf("active: action references unbound variable %q", term.Name)
	default:
		return value.Value{}, fmt.Errorf("active: unknown action term %T", t)
	}
}
