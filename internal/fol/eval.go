package fol

import (
	"fmt"

	"rtic/internal/mtl"
	"rtic/internal/relation"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/value"
)

// Oracle answers temporal subformulas at the evaluator's current point
// in the history. Eval and Test pass temporal nodes through unchanged,
// so implementations may key their state on node identity.
type Oracle interface {
	// Enumerate returns the satisfying bindings of a temporal node
	// (Prev, Once or Since) over the node's free variables.
	Enumerate(f mtl.Formula) (*Bindings, error)
	// Test decides a temporal node (Prev, Once, Since — and Always for
	// oracles that serve non-normalized formulas) under a full binding
	// of its free variables.
	Test(f mtl.Formula, env Env) (bool, error)
}

// Evaluator evaluates kernel formulas over one database state, with
// temporal nodes delegated to the oracle. It caches the state's active
// domain across calls.
//
// An Evaluator is not safe for concurrent use: the domain cache is
// written lazily and the atom scan/test paths reuse per-evaluator
// scratch buffers (row and environment) so evaluation allocates per
// result set, not per tuple. Concurrent callers over the same state
// create one Evaluator per goroutine.
type Evaluator struct {
	st     *storage.State
	oracle Oracle
	domain []value.Value
	hasDom bool
	// rowBuf and envBuf are reusable scratch buffers (testAtom rows,
	// evalAtom environments); legal because an Evaluator is
	// single-goroutine by contract.
	rowBuf tuple.Tuple
	envBuf Env
	// free recycles intermediate binding sets (atom scans, join inputs)
	// across Eval calls, keyed by arity. Only evaluator-built sets enter
	// the pool — never oracle-owned answers, which outlive the call.
	free map[int][]*Bindings
}

// getBindings returns a pooled binding set over vars, or a fresh one.
func (e *Evaluator) getBindings(vars []string) *Bindings {
	vs := dedupSorted(vars)
	if l := e.free[len(vs)]; len(l) > 0 {
		b := l[len(l)-1]
		e.free[len(vs)] = l[:len(l)-1]
		b.vars = vs
		b.rel.Clear()
		return b
	}
	return &Bindings{vars: vs, rel: relation.New(len(vs))}
}

// recycle returns an evaluator-built intermediate to the pool. Callers
// guarantee nothing retains b.
func (e *Evaluator) recycle(b *Bindings) {
	if b == nil {
		return
	}
	if e.free == nil {
		e.free = make(map[int][]*Bindings)
	}
	n := b.rel.Arity()
	if len(e.free[n]) < 16 {
		e.free[n] = append(e.free[n], b)
	}
}

// oracleOwned reports whether Eval(f) hands back a binding set owned by
// the oracle (a temporal node's maintained answer) rather than one this
// evaluator built — such sets must never be recycled or mutated.
func oracleOwned(f mtl.Formula) bool {
	switch f.(type) {
	case *mtl.Prev, *mtl.Once, *mtl.Since:
		return true
	}
	return false
}

// recycleIfOwned recycles Eval(f)'s result when this evaluator built it.
func (e *Evaluator) recycleIfOwned(f mtl.Formula, b *Bindings) {
	if !oracleOwned(f) {
		e.recycle(b)
	}
}

// NewEvaluator returns an evaluator for st with the given oracle.
func NewEvaluator(st *storage.State, oracle Oracle) *Evaluator {
	return &Evaluator{st: st, oracle: oracle}
}

func (e *Evaluator) activeDomain() []value.Value {
	if !e.hasDom {
		e.domain, e.hasDom = e.st.ActiveDomain(), true
	}
	return e.domain
}

// Eval enumerates the satisfying bindings of the enumerable kernel
// formula f over its free variables. Formulas outside the safe fragment
// produce an error (the static mtl.CheckSafe rejects them up front; this
// is the dynamic backstop).
func (e *Evaluator) Eval(f mtl.Formula) (*Bindings, error) {
	switch n := f.(type) {
	case mtl.Truth:
		if n.Bool {
			return Unit(), nil
		}
		return NewBindings(nil), nil
	case *mtl.Atom:
		return e.evalAtom(n)
	case *mtl.Cmp:
		return e.evalCmp(n)
	case *mtl.And:
		return e.evalAnd(f)
	case *mtl.Or:
		l, err := e.Eval(n.L)
		if err != nil {
			return nil, err
		}
		r, err := e.Eval(n.R)
		if err != nil {
			return nil, err
		}
		u, err := Union(l, r)
		if err != nil {
			return nil, err
		}
		e.recycleIfOwned(n.L, l)
		e.recycleIfOwned(n.R, r)
		return u, nil
	case *mtl.Exists:
		inner, err := e.Eval(n.F)
		if err != nil {
			return nil, err
		}
		out, err := inner.Project(mtl.FreeVars(f))
		if err != nil {
			return nil, err
		}
		e.recycleIfOwned(n.F, inner)
		return out, nil
	case *mtl.Prev, *mtl.Once, *mtl.Since:
		return e.oracle.Enumerate(f)
	case *mtl.Not:
		return nil, fmt.Errorf("fol: cannot enumerate negation %q", f.String())
	default:
		return nil, fmt.Errorf("fol: cannot enumerate node %T (%q); normalize first", f, f.String())
	}
}

func (e *Evaluator) evalAtom(a *mtl.Atom) (*Bindings, error) {
	rel, err := e.st.Relation(a.Rel)
	if err != nil {
		return nil, err
	}
	if rel.Arity() != len(a.Args) {
		return nil, fmt.Errorf("fol: atom %q has %d arguments, relation has arity %d",
			a.Rel, len(a.Args), rel.Arity())
	}
	out := e.getBindings(mtl.FreeVars(a))
	if e.envBuf == nil {
		e.envBuf = make(Env, 8)
	}
	env := e.envBuf
	for k := range env {
		delete(env, k)
	}
	var insertErr error
	rel.Each(func(t tuple.Tuple) bool {
		for k := range env {
			delete(env, k)
		}
		ok := true
		for i, arg := range a.Args {
			switch term := arg.(type) {
			case mtl.Const:
				if !t[i].Equal(term.Val) {
					ok = false
				}
			case mtl.Var:
				if prev, seen := env[term.Name]; seen {
					if !prev.Equal(t[i]) {
						ok = false
					}
				} else {
					env[term.Name] = t[i]
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			if err := out.Add(env); err != nil {
				insertErr = err
				return false
			}
		}
		return true
	})
	if insertErr != nil {
		return nil, insertErr
	}
	return out, nil
}

func (e *Evaluator) evalCmp(c *mtl.Cmp) (*Bindings, error) {
	lc, lIsConst := c.L.(mtl.Const)
	rc, rIsConst := c.R.(mtl.Const)
	switch {
	case lIsConst && rIsConst:
		if c.Op.Apply(lc.Val, rc.Val) {
			return Unit(), nil
		}
		return NewBindings(nil), nil
	case c.Op == mtl.OpEq && !lIsConst && rIsConst:
		v := c.L.(mtl.Var)
		out := NewBindings([]string{v.Name})
		if err := out.Add(Env{v.Name: rc.Val}); err != nil {
			return nil, err
		}
		return out, nil
	case c.Op == mtl.OpEq && lIsConst && !rIsConst:
		v := c.R.(mtl.Var)
		out := NewBindings([]string{v.Name})
		if err := out.Add(Env{v.Name: lc.Val}); err != nil {
			return nil, err
		}
		return out, nil
	default:
		return nil, fmt.Errorf("fol: comparison %q cannot enumerate bindings; use it as a filter", c.String())
	}
}

func (e *Evaluator) evalAnd(f mtl.Formula) (*Bindings, error) {
	conjuncts := mtl.Conjuncts(f)
	// Greedy safe ordering: join every enumerable conjunct first, then
	// apply the remaining conjuncts as filters over the bound variables.
	acc := Unit()
	var filters []mtl.Formula
	for _, c := range conjuncts {
		b, err := e.Eval(c)
		if err != nil {
			filters = append(filters, c)
			continue
		}
		joined, err := Join(acc, b)
		if err != nil {
			return nil, err
		}
		e.recycle(acc)
		e.recycleIfOwned(c, b)
		acc = joined
	}
	for _, c := range filters {
		for _, v := range mtl.FreeVars(c) {
			if indexOf(acc.Vars(), v) < 0 {
				return nil, fmt.Errorf("fol: variable %q of filter conjunct %q is not bound by any enumerable conjunct", v, c.String())
			}
		}
		// A negated enumerable conjunct is applied set-at-a-time as an
		// antijoin instead of per-row tests.
		if not, ok := c.(*mtl.Not); ok {
			if inner, err := e.Eval(not.F); err == nil {
				next, err := AntiJoin(acc, inner)
				if err != nil {
					return nil, err
				}
				e.recycle(acc)
				e.recycleIfOwned(not.F, inner)
				acc = next
				continue
			}
		}
		next, err := acc.Filter(func(env Env) (bool, error) {
			return e.Test(c, env)
		})
		if err != nil {
			return nil, err
		}
		e.recycle(acc)
		acc = next
	}
	return acc, nil
}

// Test decides formula f under env, which must bind every free variable
// of f. Unlike Eval, Test handles the full language including the sugar
// connectives, so the naive checker can decide non-normalized formulas.
func (e *Evaluator) Test(f mtl.Formula, env Env) (bool, error) {
	switch n := f.(type) {
	case mtl.Truth:
		return n.Bool, nil
	case *mtl.Atom:
		return e.testAtom(n, env)
	case *mtl.Cmp:
		l, err := resolve(n.L, env)
		if err != nil {
			return false, err
		}
		r, err := resolve(n.R, env)
		if err != nil {
			return false, err
		}
		return n.Op.Apply(l, r), nil
	case *mtl.Not:
		ok, err := e.Test(n.F, env)
		return !ok, err
	case *mtl.And:
		ok, err := e.Test(n.L, env)
		if err != nil || !ok {
			return false, err
		}
		return e.Test(n.R, env)
	case *mtl.Or:
		ok, err := e.Test(n.L, env)
		if err != nil || ok {
			return ok, err
		}
		return e.Test(n.R, env)
	case *mtl.Implies:
		ok, err := e.Test(n.L, env)
		if err != nil {
			return false, err
		}
		if !ok {
			return true, nil
		}
		return e.Test(n.R, env)
	case *mtl.Iff:
		l, err := e.Test(n.L, env)
		if err != nil {
			return false, err
		}
		r, err := e.Test(n.R, env)
		if err != nil {
			return false, err
		}
		return l == r, nil
	case *mtl.Exists:
		return e.testQuantifier(n.Vars, n.F, env, false)
	case *mtl.Forall:
		return e.testQuantifier(n.Vars, n.F, env, true)
	case *mtl.Prev, *mtl.Once, *mtl.Since, *mtl.Always, *mtl.LeadsTo:
		restricted := make(Env, 4)
		for _, v := range mtl.FreeVars(f) {
			val, ok := env[v]
			if !ok {
				return false, fmt.Errorf("fol: test of %q misses variable %q", f.String(), v)
			}
			restricted[v] = val
		}
		return e.oracle.Test(f, restricted)
	default:
		return false, fmt.Errorf("fol: cannot test node %T (%q)", f, f.String())
	}
}

func (e *Evaluator) testAtom(a *mtl.Atom, env Env) (bool, error) {
	rel, err := e.st.Relation(a.Rel)
	if err != nil {
		return false, err
	}
	if rel.Arity() != len(a.Args) {
		return false, fmt.Errorf("fol: atom %q has %d arguments, relation has arity %d",
			a.Rel, len(a.Args), rel.Arity())
	}
	if cap(e.rowBuf) < len(a.Args) {
		e.rowBuf = make(tuple.Tuple, len(a.Args))
	}
	row := e.rowBuf[:len(a.Args)]
	for i, arg := range a.Args {
		v, err := resolve(arg, env)
		if err != nil {
			return false, err
		}
		row[i] = v
	}
	return rel.Contains(row), nil
}

// testQuantifier decides ∃/∀ vars: f by iterating the active domain of
// the current state extended with the subformula's constants and the
// values already bound in env (active-domain semantics).
func (e *Evaluator) testQuantifier(vars []string, f mtl.Formula, env Env, forall bool) (bool, error) {
	domain := e.quantifierDomain(f, env)
	inner := env.Clone()
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i == len(vars) {
			return e.Test(f, inner)
		}
		for _, v := range domain {
			inner[vars[i]] = v
			ok, err := rec(i + 1)
			if err != nil {
				return false, err
			}
			if ok != forall {
				// ∃ short-circuits on true, ∀ on false.
				return !forall, nil
			}
		}
		return forall, nil
	}
	if len(domain) == 0 {
		// Empty domain: ∃ is false, ∀ is vacuously true.
		return forall, nil
	}
	return rec(0)
}

func (e *Evaluator) quantifierDomain(f mtl.Formula, env Env) []value.Value {
	seen := make(map[string]value.Value)
	for _, v := range e.activeDomain() {
		seen[v.Key()] = v
	}
	for _, v := range mtl.Constants(f) {
		seen[v.Key()] = v
	}
	for _, v := range env {
		seen[v.Key()] = v
	}
	out := make([]value.Value, 0, len(seen))
	for _, v := range seen {
		out = append(out, v)
	}
	return out
}

func resolve(t mtl.Term, env Env) (value.Value, error) {
	switch term := t.(type) {
	case mtl.Const:
		return term.Val, nil
	case mtl.Var:
		v, ok := env[term.Name]
		if !ok {
			return value.Value{}, fmt.Errorf("fol: unbound variable %q", term.Name)
		}
		return v, nil
	default:
		return value.Value{}, fmt.Errorf("fol: unknown term %T", t)
	}
}
