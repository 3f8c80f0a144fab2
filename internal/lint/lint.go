// Package lint is the static analyzer for constraints: it walks the
// mtl AST against a schema and reports structured diagnostics before a
// constraint is installed on an engine. The passes are purely static —
// no history is consulted — and conservative: every Error-severity
// finding is a constraint that cannot work as written (unsatisfiable
// window, contradiction, schema mismatch, unsafe denial), while
// Warning findings flag constraints that are legal but almost
// certainly not what the author meant (vacuous, dead branches,
// excessive worst-case cost).
//
// The rule catalogue with triggering examples lives in docs/LINTING.md.
package lint

import (
	"errors"
	"fmt"

	"rtic/internal/check"
	"rtic/internal/mtl"
	"rtic/internal/schema"
	"rtic/internal/workload"
)

// Severity grades a finding: Info is advisory, Warning means the
// constraint is legal but suspicious, Error means it cannot behave as
// written. Strict lint mode rejects on Warning and above; default
// mode rejects on Error only.
type Severity int

const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// MarshalJSON renders the severity as its lowercase name, so JSON
// consumers never see the internal ordinal.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Diagnostic is one finding of the analyzer.
type Diagnostic struct {
	// Rule is the stable identifier of the check that fired
	// (e.g. "interval-unsatisfiable"); docs/LINTING.md indexes by it.
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	// Constraint names the constraint the finding is about; empty for
	// spec-level findings (e.g. an unused relation).
	Constraint string `json:"constraint,omitempty"`
	// Node renders the offending subformula; Pos is its 1-based byte
	// offset in the constraint source (0 when unknown), Line the spec
	// file line (0 when the source was not a spec file).
	Node string `json:"node,omitempty"`
	Pos  int    `json:"pos,omitempty"`
	Line int    `json:"line,omitempty"`
	// Message states the problem; Suggestion, when present, proposes
	// a concrete rewrite.
	Message    string `json:"message"`
	Suggestion string `json:"suggestion,omitempty"`
}

// String renders the diagnostic in the CLI's text format:
//
//	name:12:34: error: [rule] message (suggestion)
func (d Diagnostic) String() string {
	head := d.Constraint
	if head == "" {
		head = "spec"
	}
	if d.Line > 0 {
		head += fmt.Sprintf(":%d", d.Line)
	}
	if d.Pos > 0 {
		head += fmt.Sprintf(":%d", d.Pos)
	}
	out := fmt.Sprintf("%s: %s: [%s] %s", head, d.Severity, d.Rule, d.Message)
	if d.Suggestion != "" {
		out += " (" + d.Suggestion + ")"
	}
	return out
}

// Options tunes the analyzer.
type Options struct {
	// Written, when non-nil, is the set of relations observed written
	// (by a log or workload); constraints reading relations outside it
	// trigger the never-written-relation rule.
	Written map[string]bool
}

// MaxSeverity returns the highest severity among diags, or -1 when
// there are none.
func MaxSeverity(diags []Diagnostic) Severity {
	max := Severity(-1)
	for _, d := range diags {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max
}

// HasErrors reports whether any diagnostic is Error severity.
func HasErrors(diags []Diagnostic) bool { return MaxSeverity(diags) >= Error }

// Constraint runs every per-constraint pass over the parsed formula f.
func Constraint(name string, f mtl.Formula, s *schema.Schema, opts Options) []Diagnostic {
	var out []Diagnostic
	schemaOK := lintSchema(name, f, s, &out)
	lintIntervals(name, f, &out)
	lintVacuity(name, f, &out)
	if !schemaOK {
		return out // compilation below would only repeat the schema errors
	}
	if _, isConst := simpConst(&mtl.Not{F: f}); isConst {
		// The vacuity pass already classified the constraint; compiling
		// a constant denial only repeats that in a less useful form,
		// and it has no cost worth estimating.
		return out
	}
	con, err := check.Compile(name, f, s)
	if err != nil {
		out = append(out, unsafeDiag(name, err))
		return out
	}
	lintCost(name, con, s, &out)
	return out
}

// unsafeDiag converts a compile error into a diagnostic, pointing at
// the offending subformula when the failure is a safety violation.
func unsafeDiag(name string, err error) Diagnostic {
	d := Diagnostic{
		Rule:       "unsafe",
		Severity:   Error,
		Constraint: name,
		Message:    err.Error(),
		Suggestion: "bind every variable of the violation condition with a positive atom",
	}
	var se *mtl.SafetyError
	if errors.As(err, &se) {
		d.Pos = se.Pos
		d.Node = se.Node.String()
	}
	return d
}

// Source parses src and lints the result; a parse failure is itself
// reported as a diagnostic (rule "parse") rather than an error, so
// callers can lint a whole spec without stopping at the first bad
// constraint.
func Source(name, src string, s *schema.Schema, opts Options) []Diagnostic {
	f, err := mtl.Parse(src)
	if err != nil {
		return []Diagnostic{{
			Rule:       "parse",
			Severity:   Error,
			Constraint: name,
			Message:    err.Error(),
		}}
	}
	return Constraint(name, f, s, opts)
}

// Constraints lints every constraint of a spec and then runs the
// spec-level passes (relations never read, relations read but never
// written). Diagnostics come back grouped by constraint, in input
// order, spec-level findings last.
func Constraints(specs []workload.ConstraintSpec, s *schema.Schema, opts Options) []Diagnostic {
	var out []Diagnostic
	read := make(map[string]bool)
	for _, cs := range specs {
		diags := Source(cs.Name, cs.Source, s, opts)
		for i := range diags {
			if diags[i].Line == 0 {
				diags[i].Line = cs.Line
			}
		}
		out = append(out, diags...)
		if f, err := mtl.Parse(cs.Source); err == nil {
			mtl.Walk(f, func(g mtl.Formula) {
				if a, ok := g.(*mtl.Atom); ok {
					read[a.Rel] = true
				}
			})
		}
	}
	for _, rel := range s.Names() {
		if !read[rel] {
			out = append(out, Diagnostic{
				Rule:     "unused-relation",
				Severity: Info,
				Message:  fmt.Sprintf("relation %s is declared but no constraint reads it", rel),
			})
		}
	}
	if opts.Written != nil {
		for _, rel := range s.Names() {
			if read[rel] && !opts.Written[rel] {
				out = append(out, Diagnostic{
					Rule:     "never-written-relation",
					Severity: Warning,
					Message:  fmt.Sprintf("relation %s is read by constraints but never written by the observed workload; every check over it is trivially empty", rel),
				})
			}
		}
	}
	return out
}
