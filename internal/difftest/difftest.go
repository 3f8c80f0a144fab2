// Package difftest is the cross-engine differential harness: it runs
// one history through every checking engine — naive, incremental at
// several pipeline widths, active rules, and the shard router at
// several shard counts — and asserts they report identical per-step
// violations and identical final base state. The naive checker is the
// executable specification (a direct transcription of the paper's
// semantics), so any divergence is a bug in one of the optimized
// engines, and the harness says which step and which engine.
//
// The harness is deliberately engine-agnostic: tests feed it
// hand-written traces, the five reconstructed workload scenarios, and
// (via the fuzzer) random constraints from internal/formgen over random
// traces from internal/workload.
package difftest

import (
	"fmt"
	"sort"

	"rtic/internal/active"
	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/naive"
	"rtic/internal/schema"
	"rtic/internal/shard"
	"rtic/internal/storage"
	"rtic/internal/workload"
)

// DefaultShardCounts are the router fan-outs the harness exercises when
// the caller does not choose: the degenerate single shard, a small
// split, and a split wider than most test domains (so some shards stay
// empty — the empty-shard bookkeeping is exactly where window bugs
// hide).
var DefaultShardCounts = []int{1, 2, 8}

// DefaultParallelism are the incremental pipeline widths compared.
var DefaultParallelism = []int{1, 4}

// Config tunes which engine variants a Run compares. Zero values mean
// the defaults above.
type Config struct {
	Parallelism []int // incremental pipeline widths
	ShardCounts []int // router fan-outs (incremental engine inside)
}

func (c Config) withDefaults() Config {
	if len(c.Parallelism) == 0 {
		c.Parallelism = DefaultParallelism
	}
	if len(c.ShardCounts) == 0 {
		c.ShardCounts = DefaultShardCounts
	}
	return c
}

// variant is one engine under comparison.
type variant struct {
	label string
	eng   engine.Engine
	// shardedCore marks routers running incremental engines inside —
	// the ones whose aux sums are compared against the unsharded
	// incremental checker.
	shardedCore bool
}

// build constructs every engine variant for the history's schema and
// installs the constraints on each.
func build(s *schema.Schema, specs []workload.ConstraintSpec, cfg Config) ([]variant, error) {
	var vars []variant
	add := func(label string, eng engine.Engine, err error) error {
		if err != nil {
			return fmt.Errorf("difftest: building %s: %w", label, err)
		}
		vars = append(vars, variant{label: label, eng: eng})
		return nil
	}
	if err := add("naive", naive.New(s), nil); err != nil {
		return nil, err
	}
	for _, par := range cfg.Parallelism {
		if err := add(fmt.Sprintf("core/par=%d", par), core.New(s, core.WithParallelism(par)), nil); err != nil {
			return nil, err
		}
	}
	if err := add("active", active.New(s), nil); err != nil {
		return nil, err
	}
	for _, n := range cfg.ShardCounts {
		rtr, err := shard.NewMode(s, n, engine.Incremental, 1)
		if err := add(fmt.Sprintf("core/shards=%d", n), rtr, err); err != nil {
			return nil, err
		}
		vars[len(vars)-1].shardedCore = true
	}
	// One sharded leg each for the baseline engines: the router must be
	// exact no matter what runs inside it.
	rtr, err := shard.NewMode(s, 2, engine.Naive, 1)
	if err := add("naive/shards=2", rtr, err); err != nil {
		return nil, err
	}
	rtr, err = shard.NewMode(s, 2, engine.ActiveRules, 1)
	if err := add("active/shards=2", rtr, err); err != nil {
		return nil, err
	}

	for _, v := range vars {
		for _, cs := range specs {
			con, err := check.Parse(cs.Name, cs.Source, s)
			if err != nil {
				return nil, fmt.Errorf("difftest: parsing %q: %w", cs.Source, err)
			}
			if err := v.eng.AddConstraint(con); err != nil {
				return nil, fmt.Errorf("difftest: installing %q on %s: %w", cs.Source, v.label, err)
			}
		}
	}
	return vars, nil
}

// canon flattens one step's violations into a canonical sorted form:
// engines are free to enumerate witnesses in any order, but the set
// must match.
func canon(vs []check.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Constraint + "|" + v.Binding.Key()
	}
	sort.Strings(out)
	return out
}

func sameCanon(a, b []string) bool {
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

// baseRels projects a state onto the schema's base relations as sorted
// tuple keys — the active engine's state also carries its generated aux
// relations, which are not part of the comparison.
func baseRels(st *storage.State, s *schema.Schema) (map[string][]string, error) {
	out := make(map[string][]string, len(s.Names()))
	for _, name := range s.Names() {
		rel, err := st.Relation(name)
		if err != nil {
			return nil, err
		}
		var keys []string
		for _, tup := range rel.Tuples() {
			keys = append(keys, tup.Key())
		}
		out[name] = keys
	}
	return out, nil
}

// finalState extracts an engine's current base state.
func finalState(v variant, s *schema.Schema) (map[string][]string, error) {
	st, err := v.eng.State()
	if err != nil {
		return nil, fmt.Errorf("difftest: %s state: %w", v.label, err)
	}
	return baseRels(st, s)
}

// Run drives the history through every engine variant and returns an
// error describing the first divergence: a step where some engine's
// violation set differs from the naive reference, an engine error the
// others did not report, a final-state mismatch, or a sharded
// incremental engine whose summed aux entry/timestamp counts differ
// from the unsharded incremental engine's.
func Run(h workload.History, cfg Config) error {
	cfg = cfg.withDefaults()
	vars, err := build(h.Schema, h.Constraints, cfg)
	if err != nil {
		return err
	}
	ref := vars[0] // naive, the executable specification

	for i, st := range h.Steps {
		want, refErr := ref.eng.Step(st.Time, st.Tx)
		wantCanon := canon(want)
		for _, v := range vars[1:] {
			got, gotErr := v.eng.Step(st.Time, st.Tx)
			if (refErr == nil) != (gotErr == nil) {
				return fmt.Errorf("difftest: step %d (t=%d): %s error %v, %s error %v",
					i, st.Time, ref.label, refErr, v.label, gotErr)
			}
			if refErr != nil {
				continue
			}
			if gotCanon := canon(got); !sameCanon(gotCanon, wantCanon) {
				return fmt.Errorf("difftest: step %d (t=%d): %s reports %v, %s reports %v",
					i, st.Time, v.label, gotCanon, ref.label, wantCanon)
			}
		}
		if refErr != nil {
			return fmt.Errorf("difftest: step %d (t=%d): reference rejected the step: %w", i, st.Time, refErr)
		}
	}

	// Final base state must agree everywhere.
	wantState, err := finalState(ref, h.Schema)
	if err != nil {
		return err
	}
	for _, v := range vars[1:] {
		gotState, err := finalState(v, h.Schema)
		if err != nil {
			return err
		}
		for _, name := range h.Schema.Names() {
			if !sameCanon(gotState[name], wantState[name]) {
				return fmt.Errorf("difftest: final state of %q: %s holds %v, %s holds %v",
					name, v.label, gotState[name], ref.label, wantState[name])
			}
		}
	}

	// The sharded incremental engines' aux entries and timestamps must
	// sum to the unsharded incremental engine's exactly: partitioning
	// splits the auxiliary history, it must never duplicate or drop any
	// of it. (Node and byte counts legitimately differ — every shard
	// compiles its own node tree.)
	var unsharded *core.Checker
	for _, v := range vars {
		if c, ok := v.eng.(*core.Checker); ok {
			unsharded = c
			break
		}
	}
	if unsharded != nil {
		want := unsharded.Stats()
		for _, v := range vars {
			if !v.shardedCore {
				continue
			}
			got := v.eng.(*shard.Router).Stats()
			if got.Entries != want.Entries || got.Timestamps != want.Timestamps {
				return fmt.Errorf("difftest: aux sums of %s = {entries=%d, timestamps=%d}, unsharded = {entries=%d, timestamps=%d}",
					v.label, got.Entries, got.Timestamps, want.Entries, want.Timestamps)
			}
		}
	}
	return nil
}
