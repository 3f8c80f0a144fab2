// Package shard partitions checking across independent states: a Router
// fronts N independent engines, hash-partitions relation state by a
// per-relation partition column inferred from constraint join keys, and
// commits each transaction's per-shard slices one shard after another.
//
// The results are exact, never approximate. A constraint is installed
// on every shard only when the static analysis in this file proves that
// each of its violation witnesses is derivable from one shard's slice
// of the database alone; every other constraint falls back to a
// designated global shard whose relations are never partitioned. The
// analysis (Analyze) is conservative: when in doubt, a constraint and
// the relations it reads go global, which costs throughput but never
// correctness.
//
// Partitionability rule. A constraint C with free variables Vars is
// partitionable by v ∈ Vars when
//
//  1. v appears as a direct argument of every relation atom in C's
//     denial kernel, and
//  2. v is free in every temporal subformula of the denial (read off
//     the compiled schedule via core.Checker.ScheduleCosts), and
//  3. every relation C reads can be assigned a single partition column
//     that carries v in all of C's atoms — consistently with the
//     columns other partitionable constraints already claimed.
//
// Why this is exact: the denial is range-restricted (check.Parse
// enforces safety), so in any witness binding every quantified variable
// is bound by a positive atom of the denial. Fix a witness with key
// value v*. By (1) every tuple the witness touches carries v* in its
// relation's partition column, so hash routing places all of them on
// the one shard owning v*. By (2) the auxiliary nodes tracking the
// witness's temporal history are keyed by bindings that include v, so
// that shard's aux state for v* is exactly the unsharded aux state
// restricted to v* — provided every shard steps at every commit
// timestamp (the Router commits an empty sub-transaction to shards the
// split leaves empty, so window arithmetic over timestamps agrees
// everywhere). Hence the owning shard reports the witness and no other
// shard can (its atoms over v* are empty there). Closed constraints
// (no free variables) are never partitionable: their empty witness
// binding would be reported once per shard.
//
// Global fallback closure. A global constraint evaluates against its
// relations in full, so those relations must live whole on the global
// shard; any partitionable constraint reading such a relation would
// then see no tuples on the other shards, so it is demoted too.
// Analyze iterates this demotion to a fixpoint (the global set only
// grows, so it terminates).
package shard

import (
	"fmt"
	"sort"

	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/mtl"
	"rtic/internal/schema"
)

// GlobalShard is the shard index that holds unpartitionable state:
// relations read by global constraints and zero-arity relations. It
// also owns partitioned tuples whose key hashes to it.
const GlobalShard = 0

// RelPlacement says where one relation's tuples live.
type RelPlacement struct {
	// Partitioned relations are hash-routed by Column; the rest are
	// pinned whole to the global shard.
	Partitioned bool
	Column      int
}

// ConPlacement says where one constraint is installed.
type ConPlacement struct {
	// Partitioned constraints run on every shard, keyed by KeyVar;
	// the rest run on the global shard only, with Reason recording why
	// the analysis demoted them.
	Partitioned bool
	KeyVar      string
	Reason      string
}

// Plan is the output of the static partitionability analysis: a
// placement for every relation in the schema and every installed
// constraint (in installation order).
type Plan struct {
	Rels map[string]RelPlacement
	Cons []ConPlacement
}

// conFacts caches what the analysis needs to know about one constraint:
// the relations its denial reads and its viable partition keys.
type conFacts struct {
	rels  []string // sorted, deduplicated
	cands []candidate
}

// candidate is one viable partition key for a constraint: the variable
// and, per relation, the columns that carry it in every atom of that
// relation (sorted ascending).
type candidate struct {
	v    string
	cols map[string][]int
}

// Analyze computes the shard plan for cons over s. Constraints that
// cannot be partitioned are placed on the global shard with a reason;
// Analyze itself only fails on inputs the engines would reject anyway.
func Analyze(s *schema.Schema, cons []*check.Constraint) (*Plan, error) {
	facts := make([]conFacts, len(cons))
	reasons := make([]string, len(cons)) // non-empty = forced global
	for i, con := range cons {
		f, reason, err := factsFor(s, con)
		if err != nil {
			return nil, err
		}
		facts[i] = f
		reasons[i] = reason
	}

	// Fixpoint: fit constraints greedily in installation order against
	// the columns already claimed; a constraint that cannot fit goes
	// global, its relations go global, and the pass restarts so earlier
	// fits are re-checked against the grown global set.
	globalRels := make(map[string]bool)
	var relCol map[string]int
	keys := make([]string, len(cons))
	for {
		relCol = make(map[string]int)
		for i := range keys {
			keys[i] = ""
		}
		for i := range cons {
			if reasons[i] != "" {
				for _, r := range facts[i].rels {
					globalRels[r] = true
				}
			}
		}
		demoted := false
		for i := range cons {
			if reasons[i] != "" {
				continue
			}
			key, ok := fit(facts[i], relCol, globalRels)
			if !ok {
				reasons[i] = "no partition column consistent with the other constraints"
				demoted = true
				break
			}
			keys[i] = key
		}
		if !demoted {
			break
		}
	}

	plan := &Plan{Rels: make(map[string]RelPlacement), Cons: make([]ConPlacement, len(cons))}
	for i := range cons {
		if reasons[i] != "" {
			plan.Cons[i] = ConPlacement{Reason: reasons[i]}
		} else {
			plan.Cons[i] = ConPlacement{Partitioned: true, KeyVar: keys[i]}
		}
	}
	for _, name := range s.Names() {
		def, _ := s.Lookup(name)
		switch col, claimed := relCol[name]; {
		case globalRels[name]:
			plan.Rels[name] = RelPlacement{}
		case claimed:
			plan.Rels[name] = RelPlacement{Partitioned: true, Column: col}
		case def.Arity >= 1:
			// Read by no installed constraint: spread it for write
			// throughput; column 0 is as good as any.
			plan.Rels[name] = RelPlacement{Partitioned: true, Column: 0}
		default:
			plan.Rels[name] = RelPlacement{}
		}
	}
	return plan, nil
}

// factsFor gathers one constraint's relations and candidate keys. A
// constraint with no candidates comes back with a demotion reason.
func factsFor(s *schema.Schema, con *check.Constraint) (conFacts, string, error) {
	atoms := collectAtoms(con.Denial)
	relSet := make(map[string]bool)
	for _, a := range atoms {
		relSet[a.Rel] = true
	}
	f := conFacts{rels: sortedKeys(relSet)}
	if len(con.Vars) == 0 {
		return f, "closed constraint: its single witness cannot be owned by one key", nil
	}
	if len(atoms) == 0 {
		return f, "denial reads no relations", nil
	}
	// Keys are matched to atom columns by name, so a quantifier reusing a
	// constraint variable's name would pass its own variable off as the key.
	rebound := ""
	mtl.Walk(con.Denial, func(n mtl.Formula) {
		if ex, ok := n.(*mtl.Exists); ok {
			for _, v := range ex.Vars {
				if containsString(con.Vars, v) {
					rebound = v
				}
			}
		}
	})
	if rebound != "" {
		return f, fmt.Sprintf("a quantifier rebinds the constraint variable %q", rebound), nil
	}

	// The compiled schedule tells us which temporal subformulas the
	// engine will track; a viable key must be free in all of them so
	// each shard's auxiliary state stays a clean restriction of the
	// unsharded one.
	probe := core.New(s)
	if err := probe.AddConstraint(con); err != nil {
		return f, fmt.Sprintf("engine rejects the denial: %v", err), nil
	}
	temporal := probe.ScheduleCosts()

vars:
	for _, v := range con.Vars {
		for _, nc := range temporal {
			if !containsString(mtl.FreeVars(nc.Node), v) {
				continue vars
			}
		}
		cols := make(map[string][]int)
		for _, a := range atoms {
			ps := argPositions(a, v)
			if len(ps) == 0 {
				continue vars
			}
			if prev, seen := cols[a.Rel]; seen {
				ps = intersectInts(prev, ps)
				if len(ps) == 0 {
					continue vars
				}
			}
			cols[a.Rel] = ps
		}
		f.cands = append(f.cands, candidate{v: v, cols: cols})
	}
	if len(f.cands) == 0 {
		return f, "no variable appears in every atom and every temporal subformula", nil
	}
	return f, "", nil
}

// fit tries each candidate key in order and claims partition columns
// for the constraint's relations, honouring columns already claimed by
// earlier constraints and refusing relations already forced global.
func fit(f conFacts, relCol map[string]int, globalRels map[string]bool) (string, bool) {
	for _, cand := range f.cands {
		claim := make(map[string]int, len(cand.cols))
		ok := true
		for _, rel := range sortedKeys2(cand.cols) {
			if globalRels[rel] {
				ok = false
				break
			}
			ps := cand.cols[rel]
			if c, claimed := relCol[rel]; claimed {
				if !containsInt(ps, c) {
					ok = false
					break
				}
				claim[rel] = c
			} else {
				claim[rel] = ps[0]
			}
		}
		if ok {
			for rel, c := range claim {
				relCol[rel] = c
			}
			return cand.v, true
		}
	}
	return "", false
}

// collectAtoms returns every relation atom in f.
func collectAtoms(f mtl.Formula) []*mtl.Atom {
	var out []*mtl.Atom
	mtl.Walk(f, func(n mtl.Formula) {
		if a, ok := n.(*mtl.Atom); ok {
			out = append(out, a)
		}
	})
	return out
}

// argPositions returns the argument positions of a that are the
// variable v, sorted ascending.
func argPositions(a *mtl.Atom, v string) []int {
	var out []int
	for i, t := range a.Args {
		if vr, ok := t.(mtl.Var); ok && vr.Name == v {
			out = append(out, i)
		}
	}
	return out
}

func containsString(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func intersectInts(a, b []int) []int {
	var out []int
	for _, x := range a {
		if containsInt(b, x) {
			out = append(out, x)
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeys2(m map[string][]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
