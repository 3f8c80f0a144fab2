// Package formgen generates random *safe* constraints for the
// cross-checker equivalence fuzzers. Candidates are drawn from a grammar
// biased toward the interesting corners (nested temporal operators,
// negated views, metric windows of every shape, deadline obligations)
// and filtered through the real constraint compiler, so every returned
// constraint is installable on all three checking engines.
package formgen

import (
	"fmt"
	"math/rand"
	"strings"

	"rtic/internal/check"
	"rtic/internal/schema"
)

// Schema is the vocabulary generated constraints range over.
func Schema() *schema.Schema {
	return schema.NewBuilder().
		Relation("p", 1).
		Relation("q", 1).
		Relation("r", 2).
		MustBuild()
}

// Constraint returns a random safe constraint (surface syntax) over
// Schema(). It always terminates: after a bounded number of rejected
// candidates it falls back to a known-safe template.
func Constraint(r *rand.Rand) string {
	s := Schema()
	for attempt := 0; attempt < 32; attempt++ {
		src := candidate(r)
		if _, err := check.Parse("fuzz", src, s); err == nil {
			return src
		}
	}
	return "p(x) -> not once[0,3] q(x)"
}

func interval(r *rand.Rand) string {
	switch r.Intn(5) {
	case 0:
		return "" // [0,∞)
	case 1:
		return fmt.Sprintf("[%d,*]", 1+r.Intn(3))
	case 2:
		lo := r.Intn(3)
		return fmt.Sprintf("[%d,%d]", lo, lo+r.Intn(5))
	case 3:
		return fmt.Sprintf("[0,%d]", 1+r.Intn(6))
	default:
		return fmt.Sprintf("[%d]", r.Intn(4))
	}
}

// guard produces an enumerable positive antecedent and reports the
// variables it binds.
func guard(r *rand.Rand) (string, []string) {
	switch r.Intn(5) {
	case 0:
		return "p(x)", []string{"x"}
	case 1:
		return "q(x)", []string{"x"}
	case 2:
		return "r(x, y)", []string{"x", "y"}
	case 3:
		return "p(x) and q(x)", []string{"x"}
	default:
		return "r(x, y) and p(x)", []string{"x", "y"}
	}
}

// atom produces a (possibly negated) literal over the bound variables.
func atom(r *rand.Rand, vars []string, allowNeg bool) string {
	v := vars[r.Intn(len(vars))]
	var a string
	switch r.Intn(4) {
	case 0:
		a = "p(" + v + ")"
	case 1:
		a = "q(" + v + ")"
	case 2:
		if len(vars) >= 2 {
			a = "r(" + vars[0] + ", " + vars[1] + ")"
		} else {
			a = "r(" + v + ", " + v + ")"
		}
	default:
		a = fmt.Sprintf("%s = %d", v, r.Intn(3))
	}
	if allowNeg && r.Intn(3) == 0 {
		return "not " + a
	}
	return a
}

// anchor produces an enumerable formula binding exactly vars (so it can
// serve as a temporal argument or since right-hand side).
func anchor(r *rand.Rand, vars []string) string {
	var base string
	if len(vars) >= 2 {
		base = "r(" + vars[0] + ", " + vars[1] + ")"
	} else {
		switch r.Intn(2) {
		case 0:
			base = "p(" + vars[0] + ")"
		default:
			base = "q(" + vars[0] + ")"
		}
	}
	// Optionally conjoin a filter.
	if r.Intn(3) == 0 {
		base = "(" + base + " and " + atom(r, vars, true) + ")"
	}
	return base
}

// temporal produces a temporal subformula over vars.
func temporal(r *rand.Rand, vars []string, depth int) string {
	switch r.Intn(6) {
	case 0:
		return "once" + interval(r) + " " + operand(r, vars, depth)
	case 1:
		return "prev" + interval(r) + " " + operand(r, vars, depth)
	case 2:
		return "always" + interval(r) + " " + atom(r, vars, true)
	case 3:
		return "(" + atom(r, vars, true) + " since" + interval(r) + " " + operand(r, vars, depth) + ")"
	case 4:
		return "(" + anchor(r, vars) + " since" + interval(r) + " " + operand(r, vars, depth) + ")"
	default:
		return "not once" + interval(r) + " " + operand(r, vars, depth)
	}
}

// operand is an enumerable temporal argument: an anchor, or (below the
// depth limit) a nested temporal formula over an anchor.
func operand(r *rand.Rand, vars []string, depth int) string {
	if depth <= 0 || r.Intn(2) == 0 {
		return anchor(r, vars)
	}
	switch r.Intn(3) {
	case 0:
		return "once" + interval(r) + " " + operand(r, vars, depth-1)
	case 1:
		return "prev" + interval(r) + " " + operand(r, vars, depth-1)
	default:
		return "(" + anchor(r, vars) + " and " + temporal(r, vars, depth-1) + ")"
	}
}

// candidate builds one random constraint.
func candidate(r *rand.Rand) string {
	g, vars := guard(r)
	switch r.Intn(8) {
	case 0: // deadline obligation
		return fmt.Sprintf("%s leadsto[0,%d] %s", g, 1+r.Intn(5), anchor(r, vars))
	case 1: // closed constraint
		return fmt.Sprintf("not (exists x: p(x) and %s)", temporal(r, []string{"x"}, 1))
	case 2: // conjunction of temporal consequents
		return fmt.Sprintf("%s -> %s and %s", g, temporal(r, vars, 1), temporal(r, vars, 1))
	case 3: // disjunctive consequent
		return fmt.Sprintf("%s -> %s or %s", g, temporal(r, vars, 1), temporal(r, vars, 1))
	case 4: // guarded literal consequent (non-temporal)
		return fmt.Sprintf("%s -> %s", g, atom(r, vars, true))
	case 5: // nested consequent
		return fmt.Sprintf("%s -> %s", g, temporal(r, vars, 2))
	case 6: // negated guard chain
		return fmt.Sprintf("%s -> not %s", g, temporal(r, vars, 1))
	default:
		return fmt.Sprintf("%s -> %s", g, temporal(r, vars, 1))
	}
}

// familyWindows are the windows Family varies a literal over: [0,b] for
// b ∈ {0, 1, 2, 5, ∞}, which share one table and so one denial family,
// and [2,5] and [2,∞), which the newest-anchor rule does not cover and
// which stay families of one.
var familyWindows = []string{"[0,0]", "[0,1]", "[0,2]", "[0,5]", "", "[2,5]", "[2,*]"}

// Family returns constraints over Schema() whose denials differ only in
// the window of one once or since literal over the same operands — one
// per window, in the order [0,0] [0,1] [0,2] [0,5] [0,∞) [2,5] [2,∞):
// the first five are one denial family, the last two families of one.
// The literal is negated in the denial or positive, and the denial may
// carry a non-temporal conjunct beside the guard. Like Constraint it
// always terminates, falling back to a known-safe template.
func Family(r *rand.Rand) []string {
	for attempt := 0; attempt < 32; attempt++ {
		g, vars := guard(r)
		lit := "once%s " + anchor(r, vars)
		if r.Intn(3) == 0 {
			lit = "(" + atom(r, vars, true) + " since%s " + anchor(r, vars) + ")"
		}
		if r.Intn(2) == 0 {
			lit = "not " + lit // a positive literal in the denial
		}
		if r.Intn(2) == 0 {
			lit += " or " + atom(r, vars, true) // its negation joins the denial
		}
		if out, ok := family(g + " -> " + lit); ok {
			return out
		}
	}
	out, _ := family("p(x) -> once%s q(x)")
	return out
}

// family instantiates template at every window of familyWindows; ok
// reports that the compiler accepts each.
func family(template string) ([]string, bool) {
	out := make([]string, len(familyWindows))
	for i, w := range familyWindows {
		out[i] = strings.Replace(template, "%s", w, 1)
		if _, err := check.Parse("fuzz", out[i], Schema()); err != nil {
			return nil, false
		}
	}
	return out, true
}

// NearlySafe returns a constraint drawn from the edge of the safe
// fragment: a safe shape around a quantifier, a filter or a disjunction
// from which, about half the time, the one guard that made it safe has
// been removed — a quantified variable nothing inside its quantifier
// enumerates, a filter variable left unbound, disjuncts over different
// variables. Unlike Constraint it is not filtered through the compiler:
// callers check that every engine draws the line in the same place.
func NearlySafe(r *rand.Rand) string {
	g, vars := guard(r)
	// A quantified variable: usually fresh, sometimes one that shadows a
	// variable bound outside the quantifier.
	z := "z"
	if r.Intn(6) == 0 {
		z = pick(r, vars...)
	}
	body := quantBody(r, vars, z, 1)
	q := z + ": " + body
	other := pick(r, "x", "y", "w") // a variable the guard may not bind
	switch r.Intn(10) {
	case 0: // g ∧ ∃z ¬body
		return g + " -> forall " + q
	case 1: // g ∧ ∃z (body ∧ ¬lit)
		return fmt.Sprintf("%s -> forall %s: (%s -> %s)", g, z, body, quantLit(r, vars, z))
	case 2: // g ∧ ¬∃z body
		return g + " -> exists " + q
	case 3: // g ∧ ∃z body
		return g + " -> not exists " + q
	case 4: // a quantifier inside a temporal operand
		return fmt.Sprintf("%s -> %s%s (exists %s)", g, pick(r, "once", "not once", "prev", "always"), interval(r), q)
	case 5: // a quantifier on the left of since
		return fmt.Sprintf("%s -> not ((exists %s) since%s %s)", g, q, interval(r), anchor(r, vars))
	case 6: // and on its right
		return fmt.Sprintf("%s -> not (%s since%s (exists %s))", g, atom(r, vars, true), interval(r), q)
	case 7: // a filter over a variable the guard may not bind
		return g + " -> " + pick(r, other+" < 3", "not q("+other+")", other+" != "+vars[0], "not once"+interval(r)+" p("+other+")")
	case 8: // a disjunctive denial whose sides may bind different variables
		return fmt.Sprintf("not (%s or %s)", anchor(r, vars[:1]), anchor(r, []string{other}))
	default: // a disjunctive antecedent
		return fmt.Sprintf("(%s or %s) -> %s", g, anchor(r, []string{other}), atom(r, vars, true))
	}
}

func pick(r *rand.Rand, from ...string) string { return from[r.Intn(len(from))] }

// quantBody builds the parenthesized body of a quantifier over z inside
// a context that binds outer: a conjunction of something that
// enumerates z and filters over z and outer — or, with the guard
// removed, the filters alone.
func quantBody(r *rand.Rand, outer []string, z string, depth int) string {
	x := pick(r, outer...)
	var parts []string
	if r.Intn(2) == 0 {
		parts = append(parts, pick(r,
			"q("+z+")", "r("+x+", "+z+")", "r("+z+", "+x+")", z+" = 1",
			"once"+interval(r)+" q("+z+")",
			"(p("+z+") or r("+x+", "+z+"))", // both sides bind z
			"(p("+x+") or r("+x+", "+z+"))", // only one does
			"(p("+z+") since"+interval(r)+" r("+x+", "+z+"))"))
	}
	for n := 1 + r.Intn(2); n > 0; n-- {
		parts = append(parts, quantFilter(r, outer, z, depth))
	}
	r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	return "(" + strings.Join(parts, " and ") + ")"
}

// quantLit is one literal over z and the outer variables.
func quantLit(r *rand.Rand, outer []string, z string) string {
	x := pick(r, outer...)
	return pick(r, "p("+z+")", "r("+x+", "+z+")", z+" != "+x, x+" < "+z, z+" = "+x,
		"once"+interval(r)+" r("+z+", "+x+")")
}

// quantFilter is a conjunct that tests z without enumerating it: a
// literal, usually negated, a disjunction, or (below the depth limit) a
// quantifier of its own.
func quantFilter(r *rand.Rand, outer []string, z string, depth int) string {
	switch k := r.Intn(6); {
	case k == 0:
		return quantLit(r, outer, z)
	case k == 1:
		return "(" + quantLit(r, outer, z) + " or " + atom(r, outer, true) + ")"
	case k <= 3 && depth > 0:
		in := append(append([]string(nil), outer...), z)
		return pick(r, "", "not ") + "exists w: " + quantBody(r, in, "w", depth-1)
	default:
		return "not " + quantLit(r, outer, z)
	}
}
