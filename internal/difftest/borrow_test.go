package difftest

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/naive"
	"rtic/internal/schema"
	"rtic/internal/shard"
	"rtic/internal/storage"
	"rtic/internal/value"
	"rtic/internal/workload"
)

// poison is what a reused transaction's values and relation names are
// overwritten with after every Step: a string no generator produces,
// so a row kept by reference shows up in a witness, a state or a count.
var poison = value.Str("\x00poisoned")

// TestBorrowedTransaction holds engine.Engine's borrowing contract: an
// engine reads a transaction during Step only. For core, the two-shard
// router over core and naive, one engine commits every history from
// fresh transactions and its twin commits it from one transaction,
// refilled before and scribbled over after every Step, as the server's
// sessions reuse theirs. The router's own parts are reused too — it
// empties and refills them at every commit — so the two-shard leg's
// fresh twin is core alone, which reads nothing the router reuses. The
// twins must report the same violation multiset at every step; the
// violations the reused twin returned, which stay valid until its next
// Step, must read the same after the transaction is scribbled over as
// when returned; and the final base state, and Stats where the engine
// has them, must agree. Core keeps rows and entries in slabs whose
// freed slots later rows take, so a slab that kept a reference to the
// transaction instead of copying the values in shows up three ways: in
// the violations read after the scribbling, in the violations of later
// steps, and in the final state. Histories: the CDC corpus and the first 50
// random legs of TestDifferentialGenerated.
func TestBorrowedTransaction(t *testing.T) {
	t.Parallel()
	var corpus []workload.History
	for _, tc := range cdcCorpus() {
		h, _ := cdcgen.Generate(tc.cfg)
		corpus = append(corpus, h)
	}
	for seed := int64(0); seed < 50; seed++ {
		corpus = append(corpus, generatedPair(seed))
	}
	mkCore := func(s *schema.Schema) (engine.Engine, error) { return core.New(s), nil }
	mkNaive := func(s *schema.Schema) (engine.Engine, error) { return naive.New(s), nil }
	engines := []struct {
		label         string
		fresh, reused func(*schema.Schema) (engine.Engine, error)
	}{
		{"core", mkCore, mkCore},
		{"core/shards=2", mkCore, func(s *schema.Schema) (engine.Engine, error) { return shard.Build(s, 2) }},
		{"naive", mkNaive, mkNaive},
	}
	for _, e := range engines {
		t.Run(e.label, func(t *testing.T) {
			t.Parallel()
			for i, h := range corpus {
				if err := borrowed(h, e.fresh, e.reused); err != nil {
					t.Fatalf("history %d (constraints %v): %v", i, h.Constraints, err)
				}
			}
		})
	}
}

// borrowed runs h through two engines, one from mkFresh on fresh
// transactions and one from mkReused on a single reused and poisoned
// transaction, and returns the first difference between them.
func borrowed(h workload.History, mkFresh, mkReused func(*schema.Schema) (engine.Engine, error)) error {
	var pair [2]engine.Engine
	for i, mk := range []func(*schema.Schema) (engine.Engine, error){mkFresh, mkReused} {
		eng, err := mk(h.Schema)
		if err != nil {
			return err
		}
		if err := engine.Install(eng, h.Schema, h.Constraints); err != nil {
			return err
		}
		pair[i] = eng
	}
	fresh, reused := pair[0], pair[1]
	tx := storage.NewTransaction()
	for i, st := range h.Steps {
		want, wantErr := fresh.Step(st.Time, st.Tx.Clone())
		tx.Reset()
		for _, op := range st.Tx.Ops() {
			if op.Insert {
				tx.Insert(op.Rel, op.Tuple)
			} else {
				tx.Delete(op.Rel, op.Tuple)
			}
		}
		got, gotErr := reused.Step(st.Time, tx)
		seen := canon(got)
		ops := tx.Ops()
		for j := range ops {
			ops[j].Rel = "poisoned"
			for k := range ops[j].Tuple {
				ops[j].Tuple[k] = poison
			}
		}
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			return fmt.Errorf("step %d (t=%d): fresh error %v, reused error %v", i, st.Time, wantErr, gotErr)
		}
		if a := canon(want); !slices.Equal(a, seen) {
			return fmt.Errorf("step %d (t=%d): fresh reports %v, reused %v", i, st.Time, a, seen)
		}
		if now := canon(got); !slices.Equal(now, seen) {
			return fmt.Errorf("violations of step %d read %v when returned, %v once the transaction was overwritten", i, seen, now)
		}
	}
	a, err := finalState(variant{label: "fresh", eng: fresh}, h.Schema)
	if err != nil {
		return err
	}
	b, err := finalState(variant{label: "reused", eng: reused}, h.Schema)
	if err != nil {
		return err
	}
	for _, name := range h.Schema.Names() {
		if !slices.Equal(a[name], b[name]) {
			return fmt.Errorf("final state of %q: fresh holds %v, reused %v", name, a[name], b[name])
		}
	}
	if f, ok := fresh.(checker); ok {
		a, b := f.Stats(), reused.(checker).Stats()
		if reflect.TypeOf(fresh) != reflect.TypeOf(reused) {
			// A router counts every shard's copy of a node and reports
			// no per-node figures; its entries and timestamps are exact.
			a = core.Stats{Entries: a.Entries, Timestamps: a.Timestamps}
			b = core.Stats{Entries: b.Entries, Timestamps: b.Timestamps}
		}
		if !reflect.DeepEqual(a, b) {
			return fmt.Errorf("final stats: fresh %+v, reused %+v", a, b)
		}
	}
	return nil
}
