package difftest

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rtic/internal/active"
	"rtic/internal/cdcgen"
	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/formgen"
	"rtic/internal/naive"
	"rtic/internal/schema"
	"rtic/internal/shard"
	"rtic/internal/spec"
	"rtic/internal/workload"
)

// installOutcome runs one engine's whole install path for src — compile,
// AddConstraint, and a State call, which makes the active route build
// its rule programs (and so plan every condition) the way its first
// commit would — and returns the error text, "" for an accepted spec.
func installOutcome(eng engine.Engine, s *schema.Schema, src string) string {
	con, err := check.Parse("c", src, s)
	if err == nil {
		err = eng.AddConstraint(con)
	}
	if err == nil {
		_, err = eng.State()
	}
	if err != nil {
		return err.Error()
	}
	return ""
}

// TestInstallAgreement is the accept/reject leg: the engines must draw
// the edge of the language in the same place and describe it in the
// same words. Over 10,000 formulas from the edge of the safe fragment
// (formgen.NearlySafe), formgen's safe constraints, every enumerated
// kernel (formgen.Kernels, safe or not), the shipped spec files, the
// workloads, the cdcgen policies and the benchmark's wide policy set,
// naive, core, active and a two-shard router must return
// byte-identical install outcomes. Every accepted edge formula also goes
// through Run, so the shapes formgen.Constraint never draws —
// quantifiers under negation, inside temporal operands, beside since —
// are held to the specification on random histories too. (That is how
// the last clause of the quantifier rule was found: a tested quantifier
// whose variable only a temporal operator binds is decided by naive over
// the values the state still holds, and by a plan over everything the
// operator remembers.)
func TestInstallAgreement(t *testing.T) {
	t.Parallel()
	accepted, refused := map[string]int{}, map[string]int{}
	agree := func(corpus string, s *schema.Schema, src string) bool {
		t.Helper()
		rtr, err := shard.NewMode(s, 2, engine.Incremental)
		if err != nil {
			t.Fatal(err)
		}
		want := installOutcome(naive.New(s), s, src)
		for _, leg := range []struct {
			label string
			eng   engine.Engine
		}{
			{"core", core.New(s)},
			{"active", active.New(s)},
			{"core/shards=2", rtr},
		} {
			if got := installOutcome(leg.eng, s, src); got != want {
				t.Errorf("%s: %q:\n naive: %s\n %s: %s", corpus, src, orAccepted(want), leg.label, orAccepted(got))
			}
		}
		if want != "" {
			refused[corpus]++
			return false
		}
		accepted[corpus]++
		return true
	}

	r := rand.New(rand.NewSource(24))
	ran := 0
	for i := 0; i < 10000; i++ {
		src := formgen.NearlySafe(r)
		if !agree("nearly-safe", formgen.Schema(), src) || testing.Short() {
			continue
		}
		ran++
		h := workload.Uniform(workload.UniformConfig{
			Steps: 16, OpsPerTx: 1 + r.Intn(3), Domain: int64(3 + r.Intn(3)), GapMax: 1 + r.Intn(3), Seed: r.Int63(),
		})
		h.Constraints = []workload.ConstraintSpec{{Name: "edge", Source: src}}
		if err := Run(h, Config{ShardCounts: []int{2}}); err != nil {
			t.Errorf("nearly-safe %q: %v", src, err)
		}
	}
	for i := 0; i < 1000; i++ {
		agree("formgen", formgen.Schema(), formgen.Constraint(r))
	}
	for _, k := range formgen.Kernels() {
		agree("enumerated", formgen.SmallSchema(), k.Source())
	}

	paths, err := filepath.Glob("../../examples/specs/*.rtic")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no spec files found: %v", err)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spec.ParseSpec(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, cs := range sp.Constraints {
			// lintdemo.rtic seeds bad constraints on purpose.
			if !agree("specs", sp.Schema, cs.Source) && filepath.Base(path) != "lintdemo.rtic" {
				t.Errorf("%s: shipped constraint %q is refused", path, cs.Source)
			}
		}
	}
	cdc, _ := cdcgen.Generate(cdcgen.Config{Steps: 1})
	for _, h := range []workload.History{
		workload.Uniform(workload.UniformConfig{Steps: 1}),
		workload.Tickets(workload.TicketsConfig{Steps: 1}),
		workload.HR(workload.HRConfig{Steps: 1}),
		workload.Library(workload.LibraryConfig{Steps: 1}),
		workload.Alarms(workload.AlarmsConfig{Steps: 1}),
		cdc,
	} {
		for _, cs := range h.Constraints {
			if !agree("workloads", h.Schema, cs.Source) {
				t.Errorf("workload constraint %q is refused", cs.Source)
			}
		}
	}
	// benchmark/workloads.go widens cdcgen's three policies to 35 with
	// these two shapes (package main there, so restated here).
	for i := 0; i < 16; i++ {
		for _, src := range []string{
			fmt.Sprintf("serve(s) -> once[0,%d] reading(s)", 17+i),
			fmt.Sprintf("derived(d, s) -> once[0,%d] reading(s)", 25+i),
		} {
			if !agree("policy-wide", cdc.Schema, src) {
				t.Errorf("benchmark policy %q is refused", src)
			}
		}
	}

	// A generator that lands on one side only tests nothing.
	if accepted["nearly-safe"] < 2000 || refused["nearly-safe"] < 2000 {
		t.Errorf("nearly-safe: %d accepted, %d refused of 10000: want at least 2000 of each", accepted["nearly-safe"], refused["nearly-safe"])
	}
	t.Logf("accepted by every engine %v; refused by every engine, same message %v; %d accepted edge formulas run differentially", accepted, refused, ran)
}

func orAccepted(outcome string) string {
	if outcome == "" {
		return "accepted"
	}
	return outcome
}
