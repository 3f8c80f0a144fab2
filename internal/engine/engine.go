// Package engine defines the contract every checking route implements
// and the commit-pipeline vocabulary shared by the public API, the
// monitor, the daemons and the bench harness.
//
// Three engines satisfy the contract today: the paper's incremental
// bounded-history checker (internal/core), the naive full-history
// evaluator (internal/naive) and the active-DBMS rule route
// (internal/active); the shard router (internal/shard) satisfies it
// over any of them. Everything above the engines — rtic.Checker, the
// network monitor, the CLIs, the experiment harness — programs against
// this interface and never asks which engine it holds. The contract
// carries what those callers use: install, commit, read the state,
// observe. What every engine would implement as the same lines —
// committing a batch, installing a spec's constraints — are functions
// over the contract (SerialBatch, Install), not methods each one copies.
//
// The engines also share one language: a constraint compiled by
// check.Compile is accepted, and planned, by every one of them
// (mtl.CheckSafe is the only safety rule).
package engine

import (
	"fmt"
	"strings"

	"rtic/internal/check"
	"rtic/internal/obs"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/workload"
)

// Engine is the interface all checking routes implement.
//
// The lifecycle is: install constraints, then commit transactions.
// Engines are not safe for concurrent use; callers that share one
// engine across goroutines (the monitor) serialize commits.
type Engine interface {
	// AddConstraint installs a compiled constraint. Engines may reject
	// installation after the first commit (the incremental encoding
	// summarizes the history from its start).
	AddConstraint(*check.Constraint) error
	// Step commits one transaction at the given timestamp (strictly
	// increasing across commits) and returns the violation witnesses of
	// the resulting state.
	Step(uint64, *storage.Transaction) ([]check.Violation, error)
	// State returns the current database: the base relations every
	// engine holds, plus whatever relations the engine manages beside
	// them. Callers must not mutate it.
	State() (*storage.State, error)
	// SetObserver attaches (or detaches, with nil) instrumentation.
	SetObserver(*obs.Observer)
}

// Install compiles each of specs over s and adds it to eng, in order,
// stopping at the first constraint that fails to parse or install.
func Install(eng Engine, s *schema.Schema, specs []workload.ConstraintSpec) error {
	for _, cs := range specs {
		con, err := check.Parse(cs.Name, cs.Source, s)
		if err != nil {
			return err
		}
		if err := eng.AddConstraint(con); err != nil {
			return err
		}
	}
	return nil
}

// Step is one transaction of a batch commit.
type Step struct {
	Time uint64
	Tx   *storage.Transaction
}

// SerialBatch commits a sequence of transactions in order through step
// and returns per-transaction violations. On error the committed prefix
// stays committed (the detection-oriented model never rolls back) and
// the violations of that prefix are returned with the error of the
// failing step.
func SerialBatch(step func(uint64, *storage.Transaction) ([]check.Violation, error), steps []Step) ([][]check.Violation, error) {
	out := make([][]check.Violation, 0, len(steps))
	for i, s := range steps {
		vs, err := step(s.Time, s.Tx)
		if err != nil {
			return out, fmt.Errorf("engine: batch step %d (t=%d): %w", i, s.Time, err)
		}
		out = append(out, vs)
	}
	return out, nil
}

// Mode selects a checking engine.
type Mode int

const (
	// Incremental is the paper's method: bounded history encoding, no
	// stored history. The default.
	Incremental Mode = iota
	// Naive stores the full history and evaluates the temporal
	// semantics directly; the baseline the paper improves on.
	Naive
	// ActiveRules compiles constraints to production rules maintaining
	// the encoding in ordinary relations (the active-DBMS route).
	ActiveRules
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Incremental:
		return "incremental"
	case Naive:
		return "naive"
	case ActiveRules:
		return "active-rules"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ModeNames lists the accepted ParseMode spellings, for usage strings.
func ModeNames() []string {
	return []string{"incremental", "naive", "active", "active-rules"}
}

// ParseMode resolves a mode name as accepted by the CLIs. "active" is
// an alias for "active-rules"; unknown names produce an error listing
// the valid ones.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "incremental":
		return Incremental, nil
	case "naive":
		return Naive, nil
	case "active", "active-rules":
		return ActiveRules, nil
	default:
		return 0, fmt.Errorf("engine: unknown mode %q (valid: %s)", s, strings.Join(ModeNames(), ", "))
	}
}
