// Package fol evaluates the first-order skeleton of kernel formulas over
// a single database state. Temporal subformulas are resolved through a
// pluggable Oracle, so the same evaluator serves both the naive
// full-history checker and the incremental bounded-history checker.
//
// Two evaluation modes mirror the safety analysis in package mtl:
//
//   - Eval enumerates the finite set of satisfying variable bindings of
//     an enumerable (range-restricted) formula, bottom-up: atoms scan
//     relations, conjunctions join, disjunctions union, negations and
//     comparisons filter;
//   - Test decides an arbitrary kernel formula under a full binding of
//     its free variables; quantifiers range over the state's active
//     domain extended with the formula's constants and the binding's
//     values (active-domain semantics, applied uniformly by every
//     checker in this repository).
package fol

import (
	"fmt"
	"sort"

	"rtic/internal/relation"
	"rtic/internal/tuple"
	"rtic/internal/value"
)

// Env assigns values to variable names.
type Env map[string]value.Value

// Clone returns an independent copy of the environment.
func (e Env) Clone() Env {
	c := make(Env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

// Bindings is a set of assignments to a fixed, sorted list of variables,
// stored as a relation whose columns follow that order.
type Bindings struct {
	vars []string
	rel  *relation.Relation
	// scratch is the reusable row buffer of Add; the relation copies on
	// insert, so reuse is safe.
	scratch tuple.Tuple
}

// NewBindings returns an empty binding set over vars (deduplicated and
// sorted).
func NewBindings(vars []string) *Bindings {
	vs := dedupSorted(vars)
	return &Bindings{vars: vs, rel: relation.New(len(vs))}
}

// Unit returns the binding set over no variables containing the empty
// binding — the identity of Join and the encoding of "true".
func Unit() *Bindings {
	b := NewBindings(nil)
	b.rel.MustInsert(tuple.Of())
	return b
}

// Vars returns the sorted variable list. The slice must not be mutated.
func (b *Bindings) Vars() []string { return b.vars }

// Len reports the number of bindings.
func (b *Bindings) Len() int { return b.rel.Len() }

// Empty reports whether the set holds no bindings.
func (b *Bindings) Empty() bool { return b.rel.Len() == 0 }

// Add inserts the binding env restricted to b's variables; every
// variable of b must be present in env.
func (b *Bindings) Add(env Env) error {
	row, err := b.scratchRow(env)
	if err != nil {
		return err
	}
	_, err = b.rel.Insert(row)
	return err
}

// scratchRow fills the reusable row buffer from env.
//
//rtic:noalloc
func (b *Bindings) scratchRow(env Env) (tuple.Tuple, error) {
	if cap(b.scratch) < len(b.vars) {
		b.scratch = make(tuple.Tuple, len(b.vars)) //rtic:allocok scratch warm-up; amortized to zero after the first row
	}
	row := b.scratch[:len(b.vars)]
	for i, v := range b.vars {
		val, ok := env[v]
		if !ok {
			return nil, fmt.Errorf("fol: binding misses variable %q", v) //rtic:allocok cold path: env/vars mismatch is a programming error
		}
		row[i] = val
	}
	return row, nil
}

// AddRow inserts a tuple aligned with b's variable order.
func (b *Bindings) AddRow(row tuple.Tuple) error {
	_, err := b.rel.Insert(row)
	return err
}

// Each calls f with an Env view of every binding, in unspecified order;
// iteration stops early when f returns false. The Env passed to f is
// reused across calls; clone it to retain it.
func (b *Bindings) Each(f func(Env) bool) {
	env := make(Env, len(b.vars))
	b.rel.Each(func(t tuple.Tuple) bool {
		for i, v := range b.vars {
			env[v] = t[i]
		}
		return f(env)
	})
}

// Rows returns the underlying tuples, sorted, aligned with Vars().
func (b *Bindings) Rows() []tuple.Tuple { return b.rel.Tuples() }

// EachRow calls f with every underlying tuple (aligned with Vars()) in
// unspecified order; iteration stops early when f returns false.
//
//rtic:noalloc
func (b *Bindings) EachRow(f func(tuple.Tuple) bool) { b.rel.Each(f) }

// ContainsRow reports whether a tuple aligned with Vars() is present.
func (b *Bindings) ContainsRow(row tuple.Tuple) bool { return b.rel.Contains(row) }

// Size estimates the in-memory footprint in bytes, for space accounting.
func (b *Bindings) Size() int {
	n := 24
	for _, v := range b.vars {
		n += len(v) + 16
	}
	return n + b.rel.Size()
}

// Contains reports whether env (restricted to b's variables) is present.
// Unlike Add it builds a fresh row: lookups run concurrently (shared
// auxiliary answers), so they must not touch the scratch buffer.
func (b *Bindings) Contains(env Env) (bool, error) {
	row := make(tuple.Tuple, len(b.vars))
	for i, v := range b.vars {
		val, ok := env[v]
		if !ok {
			return false, fmt.Errorf("fol: binding misses variable %q", v)
		}
		row[i] = val
	}
	return b.rel.Contains(row), nil
}

// ContainsKeyBytes reports whether the binding row whose Key() encoding
// is key is present — the allocation-free probe of plan execution.
//
//rtic:noalloc
func (b *Bindings) ContainsKeyBytes(key []byte) bool {
	return b.rel.ContainsKeyBytes(key)
}

// RemoveRow deletes a tuple aligned with Vars(), reporting whether it
// was present.
//
//rtic:noalloc
func (b *Bindings) RemoveRow(row tuple.Tuple) bool { return b.rel.Delete(row) }

// Clear empties the set, keeping its storage for the rows that follow.
//
//rtic:noalloc
func (b *Bindings) Clear() { b.rel.Clear() }

// Clone returns an independent copy of the binding set.
func (b *Bindings) Clone() *Bindings {
	return &Bindings{vars: b.vars, rel: b.rel.Clone()}
}

// Equal reports whether a and o hold the same bindings over the same
// variables.
func (b *Bindings) Equal(o *Bindings) bool {
	return sameStrings(b.vars, o.vars) && b.rel.Equal(o.rel)
}

// Project returns the bindings restricted to vars (which must be a
// subset of b's variables), deduplicated.
func (b *Bindings) Project(vars []string) (*Bindings, error) {
	vs := dedupSorted(vars)
	positions := make([]int, len(vs))
	for i, v := range vs {
		p := indexOf(b.vars, v)
		if p < 0 {
			return nil, fmt.Errorf("fol: projection variable %q not present in %v", v, b.vars)
		}
		positions[i] = p
	}
	out := NewBindings(vs)
	var err error
	b.rel.Each(func(t tuple.Tuple) bool {
		if _, e := out.rel.Insert(t.Project(positions)); e != nil {
			err = e
			return false
		}
		return true
	})
	return out, err
}

// Filter returns the bindings satisfying pred; pred errors abort.
func (b *Bindings) Filter(pred func(Env) (bool, error)) (*Bindings, error) {
	out := NewBindings(b.vars)
	var err error
	b.Each(func(env Env) bool {
		ok, e := pred(env)
		if e != nil {
			err = e
			return false
		}
		if ok {
			if e := out.Add(env); e != nil {
				err = e
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Union returns the set union; both sides must range over the same
// variables.
func Union(a, b *Bindings) (*Bindings, error) {
	if !sameStrings(a.vars, b.vars) {
		return nil, fmt.Errorf("fol: union over different variables %v vs %v", a.vars, b.vars)
	}
	out := NewBindings(a.vars)
	if err := out.rel.UnionInPlace(a.rel); err != nil {
		return nil, err
	}
	if err := out.rel.UnionInPlace(b.rel); err != nil {
		return nil, err
	}
	return out, nil
}

// Join returns the natural join of a and b on their shared variables.
func Join(a, b *Bindings) (*Bindings, error) {
	shared := intersect(a.vars, b.vars)
	outVars := unionStrings(a.vars, b.vars)
	out := NewBindings(outVars)

	// Index the smaller side on the shared columns.
	left, right := a, b
	if right.Len() < left.Len() {
		left, right = right, left
	}
	rightShared := positionsOf(right.vars, shared)
	ix, err := relation.BuildIndex(right.rel, rightShared)
	if err != nil {
		return nil, err
	}
	leftShared := positionsOf(left.vars, shared)

	// Precompute, for each output variable, where to read it from.
	type src struct {
		fromLeft bool
		pos      int
	}
	srcs := make([]src, len(out.vars))
	for i, v := range out.vars {
		if p := indexOf(left.vars, v); p >= 0 {
			srcs[i] = src{fromLeft: true, pos: p}
		} else {
			srcs[i] = src{fromLeft: false, pos: indexOf(right.vars, v)}
		}
	}

	var insertErr error
	left.rel.Each(func(lt tuple.Tuple) bool {
		key := lt.Project(leftShared)
		for _, rt := range ix.Lookup(key) {
			row := make(tuple.Tuple, len(out.vars))
			for i, s := range srcs {
				if s.fromLeft {
					row[i] = lt[s.pos]
				} else {
					row[i] = rt[s.pos]
				}
			}
			if _, err := out.rel.Insert(row); err != nil {
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

// AntiJoin returns the bindings of a whose projection onto b's
// variables is absent from b; b's variables must all occur in a. It is
// the set-based implementation of a negated enumerable conjunct.
func AntiJoin(a, b *Bindings) (*Bindings, error) {
	positions := make([]int, len(b.vars))
	for i, v := range b.vars {
		p := indexOf(a.vars, v)
		if p < 0 {
			return nil, fmt.Errorf("fol: antijoin variable %q not present in %v", v, a.vars)
		}
		positions[i] = p
	}
	out := NewBindings(a.vars)
	var err error
	a.rel.Each(func(t tuple.Tuple) bool {
		if !b.rel.Contains(t.Project(positions)) {
			if _, e := out.rel.Insert(t); e != nil {
				err = e
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// String renders the binding set for diagnostics.
func (b *Bindings) String() string {
	return fmt.Sprintf("%v%s", b.vars, b.rel.String())
}

func dedupSorted(vars []string) []string {
	vs := append([]string(nil), vars...)
	sort.Strings(vs)
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || vs[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

func indexOf(vars []string, v string) int {
	for i, w := range vars {
		if w == v {
			return i
		}
	}
	return -1
}

func positionsOf(vars []string, subset []string) []int {
	out := make([]int, len(subset))
	for i, v := range subset {
		out[i] = indexOf(vars, v)
	}
	return out
}

func intersect(a, b []string) []string {
	var out []string
	for _, v := range a {
		if indexOf(b, v) >= 0 {
			out = append(out, v)
		}
	}
	return out
}

func unionStrings(a, b []string) []string {
	return dedupSorted(append(append([]string(nil), a...), b...))
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
