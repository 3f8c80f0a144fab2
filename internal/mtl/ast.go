package mtl

import (
	"rtic/internal/value"
)

// Term is an argument of an atom or comparison: a variable or a constant.
type Term interface {
	isTerm()
	String() string
	EqualTerm(Term) bool
}

// Var is a logical variable, bound by quantifiers or free in a constraint.
type Var struct{ Name string }

// Const is a literal value.
type Const struct{ Val value.Value }

func (Var) isTerm()   {}
func (Const) isTerm() {}

// EqualTerm reports structural equality.
func (v Var) EqualTerm(o Term) bool {
	w, ok := o.(Var)
	return ok && v.Name == w.Name
}

// EqualTerm reports structural equality.
func (c Const) EqualTerm(o Term) bool {
	d, ok := o.(Const)
	return ok && c.Val.Equal(d.Val)
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators of the surface language.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// Negate returns the complementary operator (= ↔ !=, < ↔ >=, ...).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	default:
		return OpLt
	}
}

// String renders the operator in surface syntax.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	default:
		return ">="
	}
}

// Apply evaluates the comparison on two values under the engine's total
// order (integers before strings).
func (op CmpOp) Apply(a, b value.Value) bool {
	c := a.Compare(b)
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// Formula is a node of the constraint language.
//
// The full surface language includes the sugar connectives Implies, Iff,
// Forall and Always; Normalize eliminates them (and pushes negation
// inward), so the evaluators only ever see the kernel:
// Truth, Atom, Cmp, Not, And, Or, Exists, Prev, Once, Since.
//
// Every pointer node carries a Pos: the 1-based byte offset of the
// node's first token in the source the parser read (0 when the node was
// built programmatically). Normalize and Simplify propagate positions,
// so diagnostics on rewritten formulas still point into the original
// source. Pos never participates in Equal.
type Formula interface {
	isFormula()
	String() string
}

// Truth is the constant true (Bool) or false (!Bool).
type Truth struct{ Bool bool }

// Atom is a relation membership test R(t1, …, tn).
type Atom struct {
	Rel  string
	Args []Term
	Pos  int
}

// Cmp compares two terms.
type Cmp struct {
	Op   CmpOp
	L, R Term
	Pos  int
}

// Not negates its argument.
type Not struct {
	F   Formula
	Pos int
}

// And is binary conjunction; chains are left-nested by the parser.
type And struct {
	L, R Formula
	Pos  int
}

// Or is binary disjunction.
type Or struct {
	L, R Formula
	Pos  int
}

// Implies is material implication (sugar).
type Implies struct {
	L, R Formula
	Pos  int
}

// Iff is biconditional (sugar).
type Iff struct {
	L, R Formula
	Pos  int
}

// Exists binds Vars existentially in F.
type Exists struct {
	Vars []string
	F    Formula
	Pos  int
}

// Forall binds Vars universally in F (sugar for ¬∃¬).
type Forall struct {
	Vars []string
	F    Formula
	Pos  int
}

// Prev holds when F held in the immediately preceding state and the
// elapsed real time lies in I.
type Prev struct {
	I   Interval
	F   Formula
	Pos int
}

// Once holds when F held at some past state whose distance lies in I
// ("sometime in the past"; reflexive: the current state qualifies when
// 0 ∈ I).
type Once struct {
	I   Interval
	F   Formula
	Pos int
}

// Always holds when F held at every past state whose distance lies in I
// ("always in the past"; sugar for ¬ once[I] ¬F).
type Always struct {
	I   Interval
	F   Formula
	Pos int
}

// Since holds when R held at some past state j within window I and L has
// held at every state strictly after j up to now.
type Since struct {
	I    Interval
	L, R Formula
	Pos  int
}

// LeadsTo is the deadline-obligation sugar "L leadsto[0,d] R": whenever
// L holds, R must hold within d time units. It is monitored in past
// form — the obligation is *violated* at a state exactly when
//
//	(not R) since[d+1,*] (L and not R)
//
// holds there, i.e. an unfulfilled L-event has aged past the deadline.
// A violation therefore surfaces at the first transaction committed
// after the deadline expires (the checker sees time only at commits).
// The interval must be bounded with Lo = 0; Normalize eliminates the
// node.
type LeadsTo struct {
	I    Interval
	L, R Formula
	Pos  int
}

func (Truth) isFormula()    {}
func (*Atom) isFormula()    {}
func (*Cmp) isFormula()     {}
func (*Not) isFormula()     {}
func (*And) isFormula()     {}
func (*Or) isFormula()      {}
func (*Implies) isFormula() {}
func (*Iff) isFormula()     {}
func (*Exists) isFormula()  {}
func (*Forall) isFormula()  {}
func (*Prev) isFormula()    {}
func (*Once) isFormula()    {}
func (*Always) isFormula()  {}
func (*Since) isFormula()   {}
func (*LeadsTo) isFormula() {}

// Conjuncts flattens nested conjunctions into a list; for any other node
// it returns the single-element list.
func Conjuncts(f Formula) []Formula {
	if a, ok := f.(*And); ok {
		return append(Conjuncts(a.L), Conjuncts(a.R)...)
	}
	return []Formula{f}
}

// Disjuncts flattens nested disjunctions into a list.
func Disjuncts(f Formula) []Formula {
	if o, ok := f.(*Or); ok {
		return append(Disjuncts(o.L), Disjuncts(o.R)...)
	}
	return []Formula{f}
}

// AndAll folds a non-empty list of formulas into a left-nested
// conjunction; the empty list yields true.
func AndAll(fs []Formula) Formula {
	if len(fs) == 0 {
		return Truth{Bool: true}
	}
	out := fs[0]
	for _, f := range fs[1:] {
		out = &And{L: out, R: f}
	}
	return out
}

// OrAll folds a non-empty list of formulas into a left-nested
// disjunction; the empty list yields false.
func OrAll(fs []Formula) Formula {
	if len(fs) == 0 {
		return Truth{Bool: false}
	}
	out := fs[0]
	for _, f := range fs[1:] {
		out = &Or{L: out, R: f}
	}
	return out
}
