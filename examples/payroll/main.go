// Payroll: several constraints at once, including a since-chain
// ("salary must not drop while employed"), checked over one event stream.
package main

import (
	"fmt"
	"log"

	"rtic"
)

// buildChecker installs the payroll rules on a fresh checker.
func buildChecker() (*rtic.Checker, error) {
	s, err := rtic.NewSchema().
		Relation("hire", 1).     // hire(emp)       — event
		Relation("fire", 1).     // fire(emp)       — event
		Relation("salary", 2).   // salary(emp, n)  — state
		Relation("employed", 1). // employed(emp)   — state
		Build()
	if err != nil {
		return nil, err
	}
	c, err := rtic.NewChecker(s)
	if err != nil {
		return nil, err
	}
	// No rehire within 90 days of a firing.
	if err := c.AddConstraint("rehire_separation",
		"hire(e) -> not once[0,90] fire(e)"); err != nil {
		return nil, err
	}
	// A salary row may only exist for employees hired at some point.
	if err := c.AddConstraint("salary_needs_hire",
		"salary(e, n) -> once hire(e)"); err != nil {
		return nil, err
	}
	// Since the last hire, the employee record must have stayed marked
	// employed (no gaps in the employment chain).
	if err := c.AddConstraint("employment_chain",
		"salary(e, n) -> (employed(e) since hire(e))"); err != nil {
		return nil, err
	}
	return c, nil
}

type event struct {
	day  uint64
	what string
	ops  func(*rtic.Tx) *rtic.Tx
}

func events() []event {
	return []event{
		{1, "hire ann (#1), salary 100", func(t *rtic.Tx) *rtic.Tx {
			return t.Insert("hire", rtic.Int(1)).
				Insert("employed", rtic.Int(1)).
				Insert("salary", rtic.Int(1), rtic.Int(100))
		}},
		{2, "clear hire event", func(t *rtic.Tx) *rtic.Tx {
			return t.Delete("hire", rtic.Int(1))
		}},
		{30, "fire ann", func(t *rtic.Tx) *rtic.Tx {
			return t.Insert("fire", rtic.Int(1)).
				Delete("employed", rtic.Int(1)).
				Delete("salary", rtic.Int(1), rtic.Int(100))
		}},
		{31, "clear fire event", func(t *rtic.Tx) *rtic.Tx {
			return t.Delete("fire", rtic.Int(1))
		}},
		{60, "rehire ann too early (!)", func(t *rtic.Tx) *rtic.Tx {
			return t.Insert("hire", rtic.Int(1)).
				Insert("employed", rtic.Int(1))
		}},
		{61, "clear hire event", func(t *rtic.Tx) *rtic.Tx {
			return t.Delete("hire", rtic.Int(1))
		}},
		{62, "salary for bob, never hired (!)", func(t *rtic.Tx) *rtic.Tx {
			return t.Insert("salary", rtic.Int(2), rtic.Int(80))
		}},
		{63, "remove bob's salary", func(t *rtic.Tx) *rtic.Tx {
			return t.Delete("salary", rtic.Int(2), rtic.Int(80))
		}},
		{64, "employment gap for ann (!)", func(t *rtic.Tx) *rtic.Tx {
			// The employed marker is dropped while a salary row exists:
			// the since-chain from the last hire breaks.
			return t.Delete("employed", rtic.Int(1)).
				Insert("salary", rtic.Int(1), rtic.Int(120))
		}},
	}
}

func main() {
	c, err := buildChecker()
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, e := range events() {
		vs, err := e.ops(c.Begin()).Commit(e.day)
		if err != nil {
			log.Fatal(err)
		}
		marker := ""
		for _, v := range vs {
			marker += "  <- " + v.Constraint
		}
		fmt.Printf("day %2d  %-34s%s\n", e.day, e.what, marker)
		total += len(vs)
	}
	st := c.Stats()
	fmt.Printf("total violations: %d (auxiliary encoding: %d entries, %d timestamps)\n",
		total, st.Entries, st.Timestamps)
}
