// Package check defines the objects shared by every checker in the
// repository: compiled constraints (with their denial form) and
// violation reports.
//
// A constraint C(x̄) with free variables x̄ is read as ∀x̄ C and must hold
// in every state of the history. Checkers work with the denial
// Δ = nnf(¬C): the satisfying bindings of Δ at a state are exactly the
// violation witnesses of C there, so checking is witness enumeration.
package check

import (
	"fmt"
	"slices"
	"strconv"

	"rtic/internal/fol"
	"rtic/internal/mtl"
	"rtic/internal/schema"
	"rtic/internal/tuple"
)

// Constraint is a named, compiled integrity constraint.
type Constraint struct {
	// Name identifies the constraint in violation reports.
	Name string
	// Formula is the constraint C as written.
	Formula mtl.Formula
	// Denial is nnf(¬C), the formula whose satisfying bindings are the
	// violation witnesses. It is safe (range-restricted).
	Denial mtl.Formula
	// Vars are the free variables of C, sorted; violation bindings are
	// reported in this order.
	Vars []string
}

// Compile validates and compiles a constraint: the formula is checked
// against the schema, its denial is normalized, and the denial must be
// safe so that violation witnesses are enumerable.
func Compile(name string, formula mtl.Formula, s *schema.Schema) (*Constraint, error) {
	if !schema.IsIdent(name) {
		return nil, fmt.Errorf("check: invalid constraint name %q", name)
	}
	if err := fol.CheckSchema(formula, s); err != nil {
		return nil, fmt.Errorf("check: constraint %s: %w", name, err)
	}
	denial := mtl.Simplify(mtl.Normalize(&mtl.Not{F: formula}))
	if err := mtl.CheckSafe(denial); err != nil {
		return nil, fmt.Errorf("check: constraint %s: denial is not range-restricted: %w", name, err)
	}
	vars := mtl.FreeVars(formula)
	// Simplification may fold a degenerate constraint into a form that
	// no longer binds every constraint variable (e.g. "false and p(x)"
	// is violated by every value of x); such constraints have no
	// enumerable witness set and are rejected.
	if !sameVarsList(vars, mtl.FreeVars(denial)) {
		if t, ok := denial.(mtl.Truth); ok && !t.Bool {
			// The denial is identically false: the constraint is a
			// tautology and trivially holds; keep it (it reports
			// nothing, cheaply).
		} else {
			return nil, fmt.Errorf("check: constraint %s: violation witnesses do not bind every constraint variable (constraint variables %v, denial binds %v)",
				name, vars, mtl.FreeVars(denial))
		}
	}
	return &Constraint{
		Name:    name,
		Formula: formula,
		Denial:  denial,
		Vars:    vars,
	}, nil
}

func sameVarsList(a, b []string) bool {
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

// Parse compiles a constraint from surface syntax.
func Parse(name, src string, s *schema.Schema) (*Constraint, error) {
	f, err := mtl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("check: constraint %s: %w", name, err)
	}
	return Compile(name, f, s)
}

// Violation reports one witness of a constraint failure.
type Violation struct {
	// Constraint is the name of the violated constraint.
	Constraint string
	// Index is the position of the violating state in the history
	// (0-based), Time its timestamp.
	Index int
	Time  uint64
	// Vars and Binding give the witness: Binding[i] is the value of
	// Vars[i]. Both are empty for closed constraints. Binding may share
	// storage with the checker's answer set, which the checker's next
	// commit changes: read it, do not modify it, and Clone a violation
	// to keep it.
	Vars    []string
	Binding tuple.Tuple
}

// Clone returns v with a Binding of its own, valid however the engine
// that reported v goes on.
func (v Violation) Clone() Violation {
	v.Binding = v.Binding.Clone()
	return v
}

// CopyTo stores a copy of v in d, its Binding in d's binding storage.
func (v Violation) CopyTo(d *Violation) {
	v.Binding = append(d.Binding[:0], v.Binding...)
	*d = v
}

// CloneViolations returns copies of vs that stay valid past the next
// Step of the engine that reported them (nil for none).
func CloneViolations(vs []Violation) []Violation {
	if len(vs) == 0 {
		return nil
	}
	return AppendClones(make([]Violation, 0, len(vs)), vs)
}

// AppendClones appends copies of vs to dst (see CloneViolations). The
// elements between len(dst) and cap(dst) are taken to be the caller's
// spare storage: their bindings are reused, so a caller that passes
// back its last result, truncated, stops allocating once dst has grown
// to its high-water mark.
func AppendClones(dst, vs []Violation) []Violation {
	for _, v := range vs {
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
		} else {
			dst = append(dst, Violation{})
		}
		v.CopyTo(&dst[len(dst)-1])
	}
	return dst
}

// String renders the violation for reports and logs.
func (v Violation) String() string { return string(v.AppendTo(nil)) }

// AppendTo appends the String() rendering of v to dst and returns the
// extended slice — how a server writes a violation line into its reply
// buffer without building a string.
func (v Violation) AppendTo(dst []byte) []byte {
	dst = append(dst, v.Constraint...)
	dst = append(dst, " violated at state "...)
	dst = strconv.AppendInt(dst, int64(v.Index), 10)
	dst = append(dst, " (time "...)
	dst = strconv.AppendUint(dst, v.Time, 10)
	dst = append(dst, ')')
	for i, name := range v.Vars {
		if i == 0 {
			dst = append(dst, " by "...)
		} else {
			dst = append(dst, ", "...)
		}
		dst = append(dst, name...)
		dst = append(dst, '=')
		dst = v.Binding[i].AppendTo(dst)
	}
	return dst
}

// Columns returns the column of each of c's variables in rows aligned
// with vars — the sorted free variables of an answer of c's denial —
// or nil when those columns are c's variables in order, which
// check.Compile makes the case for every denial that can answer at all.
func (c *Constraint) Columns(vars []string) ([]int, error) {
	cols := make([]int, len(c.Vars))
	same := len(vars) == len(c.Vars)
	for i, v := range c.Vars {
		cols[i] = slices.Index(vars, v)
		if cols[i] < 0 {
			return nil, fmt.Errorf("check: denial binding misses constraint variable %q", v)
		}
		same = same && cols[i] == i
	}
	if same {
		return nil, nil
	}
	return cols, nil
}

// AppendViolations appends the violation each row of b witnesses, in b's
// iteration order; cols are c.Columns(b.Vars()). With cols nil the row
// itself is the violation's Binding, valid while b holds it: nothing is
// copied.
func AppendViolations(dst []Violation, c *Constraint, cols []int, index int, t uint64, b *fol.Bindings) []Violation {
	if b.Empty() {
		return dst
	}
	b.EachRow(func(row tuple.Tuple) bool {
		if cols != nil {
			row = row.Project(cols)
		}
		dst = append(dst, Violation{Constraint: c.Name, Index: index, Time: t, Vars: c.Vars, Binding: row})
		return true
	})
	return dst
}

// FromBindings converts the satisfying bindings of a constraint's denial
// into violation reports. The binding set must range over a superset of
// the constraint's variables (denial and constraint share free
// variables).
func FromBindings(c *Constraint, index int, t uint64, b *fol.Bindings) ([]Violation, error) {
	if b.Empty() {
		return nil, nil
	}
	cols, err := c.Columns(b.Vars())
	if err != nil {
		return nil, err
	}
	return AppendViolations(nil, c, cols, index, t, b), nil
}
