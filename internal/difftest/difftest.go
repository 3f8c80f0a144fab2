// Package difftest is the cross-engine differential harness: it runs
// one history through every checking engine — naive, incremental (whole
// and behind the shard router at several shard counts) and active rules
// — and asserts they report identical per-step violations and identical
// final base state, and that every router over the incremental checker
// explains a violation as the whole one does. Config.Exhaustive adds the
// incremental checker with one checker per constraint, held to the same
// explanations, and a copy of every variant loaded from its snapshot of
// every step. The naive checker is the executable specification (a
// direct transcription of the paper's semantics), so any divergence is
// a bug in one of the optimized engines, and the harness says which
// step and which engine.
//
// The harness is deliberately engine-agnostic: tests feed it the five
// reconstructed workload scenarios, random constraints from
// internal/formgen over random traces from internal/workload, CDC feeds,
// and formgen's exhaustive enumeration of small kernels and histories.
package difftest

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"rtic/internal/active"
	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/naive"
	"rtic/internal/obs"
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

// Config tunes which engine variants a Run compares. Zero values mean
// the defaults above.
type Config struct {
	ShardCounts []int // router fan-outs (incremental engine inside)
	// Exhaustive is the configuration formgen's enumerator runs: it adds
	// the paper's checker with one checker per constraint, loads a copy
	// of every variant of the paper's checker from its snapshot after
	// every step — of the routers, the two-shard one: a one-shard
	// router's snapshot is core's in the same envelope, and a wider one
	// only adds shards empty on the enumerator's two values, whose loads
	// would be most of the cost — holding each copy to naive and to the
	// original's Stats to the end of the history, and drops the routers
	// over the baseline engines, which cannot snapshot.
	Exhaustive bool
}

func (c Config) withDefaults() Config {
	if len(c.ShardCounts) == 0 {
		c.ShardCounts = DefaultShardCounts
	}
	return c
}

// variant is one engine under comparison.
type variant struct {
	label string
	eng   engine.Engine
	// paper marks the variants of the paper's checker — whole, routed or
	// one per constraint — which explain their violations and snapshot.
	paper  bool
	shards int     // a router's; 0 for the rest
	twin   checker // what a loaded copy was saved from; nil for the rest
}

// checker is a variant of the paper's checker.
type checker interface {
	engine.Engine
	Stats() core.Stats
	Explain(check.Violation) (*core.Explanation, error)
}

// reload round-trips c, a variant of the paper's checker, through its
// snapshot.
func reload(s *schema.Schema, c checker) (checker, error) {
	var buf bytes.Buffer
	switch c := c.(type) {
	case *shard.Router:
		if err := c.SaveSnapshot(&buf); err != nil {
			return nil, err
		}
		return shard.LoadSnapshot(s, &buf, c.Shards())
	case *core.Checker:
		if err := c.SaveSnapshot(&buf); err != nil {
			return nil, err
		}
		return core.LoadSnapshot(s, &buf)
	}
	out := &solo{s: s}
	for _, one := range c.(*solo).alone {
		c, err := reload(s, one)
		if err != nil {
			return nil, err
		}
		out.alone = append(out.alone, c.(*core.Checker))
	}
	return out, nil
}

// build constructs every engine variant for the history's schema and
// installs the constraints on each.
func build(s *schema.Schema, specs []workload.ConstraintSpec, cfg Config) ([]variant, error) {
	vars := []variant{{label: "naive", eng: naive.New(s)}, {label: "core", eng: core.New(s), paper: true}, {label: "active", eng: active.New(s)}}
	router := func(label string, n int, mode engine.Mode) error {
		rtr, err := shard.NewMode(s, n, mode)
		if err != nil {
			return fmt.Errorf("difftest: building %s: %w", label, err)
		}
		vars = append(vars, variant{label: label, eng: rtr, paper: mode == engine.Incremental, shards: n})
		return nil
	}
	for _, n := range cfg.ShardCounts {
		if err := router(fmt.Sprintf("core/shards=%d", n), n, engine.Incremental); err != nil {
			return nil, err
		}
	}
	if cfg.Exhaustive {
		vars = append(vars, variant{label: "core/solo", eng: &solo{s: s}, paper: true})
	} else {
		// One sharded leg each for the baseline engines: the router must
		// be exact no matter what runs inside it.
		if err := router("naive/shards=2", 2, engine.Naive); err != nil {
			return nil, err
		}
		if err := router("active/shards=2", 2, engine.ActiveRules); err != nil {
			return nil, err
		}
	}

	for _, v := range vars {
		if err := engine.Install(v.eng, s, specs); err != nil {
			return nil, fmt.Errorf("difftest: installing on %s: %w", v.label, err)
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
// others did not report, a final-state mismatch, a variant of the
// paper's checker (routed, one checker per constraint) that explains a
// violation differently from the unsharded checker, a router whose
// summed aux entry/timestamp counts differ from it, an unsharded checker
// that breaks its invariants (core.Checker.CheckInvariants; without
// cfg.Exhaustive), or — with
// cfg.Exhaustive — a loaded copy that continues differently from the
// variant it was saved from.
func Run(h workload.History, cfg Config) error {
	cfg = cfg.withDefaults()
	vars, err := build(h.Schema, h.Constraints, cfg)
	if err != nil {
		return err
	}
	// build puts naive, the executable specification, first and the
	// unsharded paper's checker, labelled "core", second.
	ref, inc := vars[0], vars[1].eng.(*core.Checker)

	for i, st := range h.Steps {
		want, refErr := ref.eng.Step(st.Time, st.Tx)
		wantCanon := canon(want)
		var incVs []check.Violation
		for _, v := range vars[1:] {
			got, gotErr := v.eng.Step(st.Time, st.Tx)
			if v.label == "core" {
				incVs = got
			}
			if (refErr == nil) != (gotErr == nil) {
				return fmt.Errorf("difftest: step %d (t=%d): %s error %v, %s error %v",
					i, st.Time, ref.label, refErr, v.label, gotErr)
			}
			if refErr != nil {
				continue
			}
			if gotCanon := canon(got); !slices.Equal(gotCanon, wantCanon) {
				return fmt.Errorf("difftest: step %d (t=%d): %s reports %v, %s reports %v",
					i, st.Time, v.label, gotCanon, ref.label, wantCanon)
			}
		}
		if refErr != nil {
			return fmt.Errorf("difftest: step %d (t=%d): reference rejected the step: %w", i, st.Time, refErr)
		}
		if err := sameExplanations(vars, inc, incVs); err != nil {
			return fmt.Errorf("difftest: step %d (t=%d): %w", i, st.Time, err)
		}
		if !cfg.Exhaustive {
			// core's configuration of the enumerator holds the exhaustive
			// runs to the invariants already.
			if err := inc.CheckInvariants(); err != nil {
				return fmt.Errorf("difftest: step %d (t=%d): %w", i, st.Time, err)
			}
			continue
		}
		for _, v := range vars {
			if v.twin == nil {
				continue
			}
			if a, b := v.eng.(checker).Stats(), v.twin.Stats(); a.Entries != b.Entries || a.Timestamps != b.Timestamps || a.Bytes != b.Bytes {
				return fmt.Errorf("difftest: step %d (t=%d): %s holds %+v, the original %+v", i, st.Time, v.label, a, b)
			}
		}
		if i == len(h.Steps)-1 {
			continue // no step left to continue a copy with
		}
		for _, v := range vars {
			if v.paper && v.twin == nil && (v.shards == 0 || v.shards == 2) {
				eng, err := reload(h.Schema, v.eng.(checker))
				if err != nil {
					return fmt.Errorf("difftest: step %d (t=%d): %s snapshot: %w", i, st.Time, v.label, err)
				}
				vars = append(vars, variant{label: fmt.Sprintf("%s loaded after step %d", v.label, i), eng: eng, paper: true, shards: v.shards, twin: v.eng.(checker)})
			}
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
			if !slices.Equal(gotState[name], wantState[name]) {
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
	want := inc.Stats()
	for _, v := range vars {
		rtr, ok := v.eng.(*shard.Router)
		if !ok || !v.paper {
			continue
		}
		got := rtr.Stats()
		if got.Entries != want.Entries || got.Timestamps != want.Timestamps {
			return fmt.Errorf("difftest: aux sums of %s = {entries=%d, timestamps=%d}, unsharded = {entries=%d, timestamps=%d}",
				v.label, got.Entries, got.Timestamps, want.Entries, want.Timestamps)
		}
	}
	return nil
}

// sameExplanations holds the Explain of every other variant of the
// paper's checker to the unsharded checker inc's, for each violation
// inc reported at the step just taken. A router must answer from the
// shard that derived the witness, whose encoding restricted to the
// witness's key is the unsharded one; one checker per constraint shares
// no table and no denial family, so inc must explain each constraint as
// a checker that holds it alone does.
func sameExplanations(vars []variant, inc *core.Checker, vs []check.Violation) error {
	for _, viol := range vs {
		want, err := inc.Explain(viol)
		if err != nil {
			return fmt.Errorf("core cannot explain %s: %w", viol, err)
		}
		for _, v := range vars[2:] {
			if !v.paper || v.twin != nil {
				continue
			}
			got, err := v.eng.(checker).Explain(viol)
			if err != nil {
				return fmt.Errorf("%s cannot explain %s: %w", v.label, viol, err)
			}
			if got.String() != want.String() {
				return fmt.Errorf("%s explains\n%s, core explains\n%s", v.label, got, want)
			}
		}
	}
	return nil
}

// solo is the paper's checker with one core.Checker per constraint, so
// no constraint shares a table or a denial family with another: it
// answers and explains each constraint the way a checker holding it
// alone does. Its state is its first checker's: it needs a constraint.
type solo struct {
	s     *schema.Schema
	alone []*core.Checker
}

func (o *solo) AddConstraint(con *check.Constraint) error {
	c := core.New(o.s)
	if err := c.AddConstraint(con); err != nil {
		return err
	}
	o.alone = append(o.alone, c)
	return nil
}

func (o *solo) Step(t uint64, tx *storage.Transaction) ([]check.Violation, error) {
	var out []check.Violation
	for _, c := range o.alone {
		vs, err := c.Step(t, tx)
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	return out, nil
}

func (o *solo) State() (*storage.State, error) { return o.alone[0].State() }

func (o *solo) SetObserver(*obs.Observer) {}

// Stats sums the checkers' storage.
func (o *solo) Stats() core.Stats {
	var st core.Stats
	for _, c := range o.alone {
		cs := c.Stats()
		st.Entries += cs.Entries
		st.Timestamps += cs.Timestamps
		st.Bytes += cs.Bytes
	}
	return st
}

func (o *solo) Explain(v check.Violation) (*core.Explanation, error) {
	for _, c := range o.alone {
		if c.ConstraintNames()[0] == v.Constraint {
			return c.Explain(v)
		}
	}
	return nil, fmt.Errorf("no constraint %s", v.Constraint)
}
