package bench

import (
	"fmt"

	"rtic/internal/engine"
	"rtic/internal/workload"
)

// sweep returns the row keys of an experiment's length sweep: all of
// full, or in quick mode its first keep entries. Every row is built
// from the same input in both modes, so a quick run's rows are a subset
// of the full run's and compare with them cell for cell.
func sweep(full []int, quick bool, keep int) []int {
	if quick {
		return full[:keep]
	}
	return full
}

// histLengths is the history-length sweep of Table 1, Figure 1, Table 6
// and Figure 4.
func histLengths(quick bool) []int {
	return sweep([]int{500, 1000, 2000, 4000}, quick, 2)
}

// Table1HistoryLength — per-transaction checking cost as the history
// grows, for a constraint with an unbounded window (the case where the
// naive evaluator must walk the entire history). Expected shape:
// incremental flat, naive growing linearly with history length.
func Table1HistoryLength(quick bool) (Table, error) {
	t := Table{
		ID:      "Table 1",
		Title:   "per-transaction check cost vs history length (unbounded window)",
		Columns: []string{"history n", "incremental ns/tx", "naive ns/tx", "naive/incremental", "incremental allocs/tx", "naive allocs/tx"},
		Notes:   "constraint: p(x) -> not once q(x); steady-state cost and heap allocations over the final 10% of transactions",
	}
	for _, n := range histLengths(quick) {
		h := workload.Uniform(workload.UniformConfig{Steps: n, Seed: 42, OpsPerTx: 1, Domain: 8})
		h.Constraints = []workload.ConstraintSpec{
			{Name: "no_q_ever", Source: "p(x) -> not once q(x)"},
		}
		inc, _, err := best(h, incRepeats, runIncremental)
		if err != nil {
			return t, err
		}
		nv, _, err := best(h, repeats(quick), runNaive)
		if err != nil {
			return t, err
		}
		incAllocs, err := tailAllocs(h, func(h workload.History) (engine.Engine, error) { return newIncremental(h) })
		if err != nil {
			return t, err
		}
		nvAllocs, err := tailAllocs(h, func(h workload.History) (engine.Engine, error) { return newNaive(h) })
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			ns(inc.nsPerStepTail),
			ns(nv.nsPerStepTail),
			ratio(nv.nsPerStepTail, inc.nsPerStepTail),
			fmt.Sprintf("%.0f", incAllocs),
			fmt.Sprintf("%.0f", nvAllocs),
		})
	}
	return t, nil
}

// Figure1Space — space held by each checker as the history grows, for a
// bounded window. Expected shape: naive linear in history length (it
// stores every state), incremental bounded by the window.
func Figure1Space(quick bool) (Table, error) {
	t := Table{
		ID:      "Figure 1",
		Title:   "checker space vs history length (window [0,100])",
		Columns: []string{"history n", "incremental aux bytes", "naive history bytes", "naive/incremental"},
		Notes:   "constraint: p(x) -> not once[0,100] q(x); incremental space is the auxiliary encoding, naive space the stored snapshots",
	}
	for _, n := range histLengths(quick) {
		h := workload.Uniform(workload.UniformConfig{Steps: n, Seed: 43, OpsPerTx: 1, Domain: 8})
		h.Constraints = []workload.ConstraintSpec{
			{Name: "no_recent_q", Source: "p(x) -> not once[0,100] q(x)"},
		}
		_, stats, err := runIncremental(h)
		if err != nil {
			return t, err
		}
		_, histBytes, err := runNaive(h)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			bytesStr(stats.Bytes),
			bytesStr(histBytes),
			ratio(float64(histBytes), float64(stats.Bytes)),
		})
	}
	return t, nil
}

// Table2Window — effect of the metric window size on the incremental
// checker, for each of the three pruning rules. Expected shape: under a
// window [1,W] auxiliary size grows with W until it saturates at the
// history length (one timestamp per state inside the window); under
// [0,W] and under the unbounded window it is O(1) per binding — the
// newest anchor decides the one, the earliest the other. It runs the
// same in either mode.
func Table2Window(bool) (Table, error) {
	t := Table{
		ID:      "Table 2",
		Title:   "incremental cost and space vs metric window size",
		Columns: []string{"window", "ns/tx", "aux entries", "aux timestamps", "aux bytes"},
		Notes:   "constraint: p(x) -> not once[a,W] q(x); a = 0 keeps the newest timestamp per binding, W = inf the earliest, a = 1 every one inside the window",
	}
	windows := []string{"[1,10]", "[1,100]", "[1,1000]", "[1,10000]", "[0,10]", "[0,10000]", "[0,*]"}
	for _, w := range windows {
		h := workload.Uniform(workload.UniformConfig{Steps: 2000, Seed: 44, OpsPerTx: 1, Domain: 8})
		h.Constraints = []workload.ConstraintSpec{{Name: "c", Source: "p(x) -> not once" + w + " q(x)"}}
		res, stats, err := best(h, incRepeats, runIncremental)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			w,
			ns(res.nsPerStepTail),
			fmt.Sprintf("%d", stats.Entries),
			fmt.Sprintf("%d", stats.Timestamps),
			bytesStr(stats.Bytes),
		})
	}
	return t, nil
}

// Table3UpdateRate — effect of transaction size (tuples modified per
// commit). Both checkers scale with the update size; the gap between
// them stays roughly constant.
func Table3UpdateRate(quick bool) (Table, error) {
	t := Table{
		ID:      "Table 3",
		Title:   "per-transaction cost vs update size",
		Columns: []string{"ops/tx", "incremental ns/tx", "naive ns/tx", "naive/incremental"},
		Notes:   "constraint: p(x) -> not once[0,100] q(x); history length 1000",
	}
	for _, ops := range []int{1, 4, 16, 64} {
		h := workload.Uniform(workload.UniformConfig{Steps: 1000, Seed: 45, OpsPerTx: ops, Domain: 32})
		h.Constraints = []workload.ConstraintSpec{
			{Name: "c", Source: "p(x) -> not once[0,100] q(x)"},
		}
		inc, _, err := best(h, incRepeats, runIncremental)
		if err != nil {
			return t, err
		}
		nv, _, err := best(h, repeats(quick), runNaive)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", ops),
			ns(inc.nsPerStepTail),
			ns(nv.nsPerStepTail),
			ratio(nv.nsPerStepTail, inc.nsPerStepTail),
		})
	}
	return t, nil
}

// depthConstraints gives formulas of increasing temporal nesting depth.
var depthConstraints = []workload.ConstraintSpec{
	{Name: "d1", Source: "p(x) -> not once[0,50] q(x)"},
	{Name: "d2", Source: "p(x) -> not once[0,50] prev q(x)"},
	{Name: "d3", Source: "p(x) -> not once[0,50] prev once[0,50] q(x)"},
	{Name: "d4", Source: "p(x) -> not once[0,50] prev once[0,50] prev q(x)"},
}

// Table4Depth — effect of temporal nesting depth. Cost grows with the
// number of auxiliary nodes for the incremental checker and with the
// recursion depth for the naive one.
func Table4Depth(quick bool) (Table, error) {
	t := Table{
		ID:      "Table 4",
		Title:   "per-transaction cost vs temporal nesting depth",
		Columns: []string{"depth", "constraint", "incremental ns/tx", "naive ns/tx"},
		Notes:   "history length 800, uniform workload",
	}
	for d, cs := range depthConstraints {
		h := workload.Uniform(workload.UniformConfig{Steps: 800, Seed: 46, OpsPerTx: 1, Domain: 8})
		h.Constraints = []workload.ConstraintSpec{cs}
		inc, _, err := best(h, incRepeats, runIncremental)
		if err != nil {
			return t, err
		}
		nv, _, err := best(h, repeats(quick), runNaive)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", d+1),
			cs.Source,
			ns(inc.nsPerStepTail),
			ns(nv.nsPerStepTail),
		})
	}
	return t, nil
}

// crossoverRepeats is how many replays Figure 2 takes the fastest of,
// in either mode: its shortest histories total tens of µs, within what
// one preemption or page fault adds to a single timing.
const crossoverRepeats = 25

// Figure2Crossover — total checking cost on short histories. The naive
// checker is competitive only at the very beginning; the incremental
// checker's advantage compounds with history length.
func Figure2Crossover(quick bool) (Table, error) {
	t := Table{
		ID:      "Figure 2",
		Title:   "total checking cost on short histories (unbounded window)",
		Columns: []string{"history n", "incremental total", "naive total", "naive/incremental"},
		Notes:   "constraint: p(x) -> not once q(x)",
	}
	for _, n := range sweep([]int{1, 4, 16, 64, 256}, quick, 3) {
		h := workload.Uniform(workload.UniformConfig{Steps: n, Seed: 47, OpsPerTx: 1, Domain: 8})
		h.Constraints = []workload.ConstraintSpec{
			{Name: "c", Source: "p(x) -> not once q(x)"},
		}
		inc, _, err := best(h, crossoverRepeats, runIncremental)
		if err != nil {
			return t, err
		}
		nv, _, err := best(h, crossoverRepeats, runNaive)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			ns(float64(inc.totalNs)),
			ns(float64(nv.totalNs)),
			ratio(float64(nv.totalNs), float64(inc.totalNs)),
		})
	}
	return t, nil
}

// Table5Active — overhead of the active-DBMS route (constraints compiled
// to production rules over relation-stored encodings) relative to the
// direct incremental checker. Expected shape: same violations, a small
// constant-factor slowdown from rule dispatch and relation round-trips.
func Table5Active(quick bool) (Table, error) {
	t := Table{
		ID:      "Table 5",
		Title:   "direct incremental checker vs active-rule compilation",
		Columns: []string{"route", "ns/tx", "violations", "aux tuples / entries"},
		Notes:   "tickets workload (deadline 3, 1% late), 500 transactions",
	}
	h := workload.Tickets(workload.TicketsConfig{Steps: 500, Seed: 48, ViolationRate: 0.01})
	inc, stats, err := best(h, incRepeats, runIncremental)
	if err != nil {
		return t, err
	}
	act, auxTuples, err := best(h, repeats(quick), runActive)
	if err != nil {
		return t, err
	}
	if inc.violations != act.violations {
		return t, fmt.Errorf("bench: routes disagree: incremental %d violations, active %d", inc.violations, act.violations)
	}
	t.Rows = append(t.Rows,
		[]string{"incremental", ns(inc.nsPerStepAll), fmt.Sprintf("%d", inc.violations), fmt.Sprintf("%d", stats.Entries)},
		[]string{"active rules", ns(act.nsPerStepAll), fmt.Sprintf("%d", act.violations), fmt.Sprintf("%d", auxTuples)},
		[]string{"overhead", ratio(act.nsPerStepAll, inc.nsPerStepAll), "", ""},
	)
	return t, nil
}

// Figure3Violations — behaviour under injected violation rates: both
// checkers detect every violation in the transaction that creates it
// (same-transaction detection), and the violation rate barely affects
// checking cost.
func Figure3Violations(quick bool) (Table, error) {
	t := Table{
		ID:      "Figure 3",
		Title:   "detection under injected violation rates (tickets workload)",
		Columns: []string{"violation rate", "incremental ns/tx", "violations (incremental)", "violations (naive)"},
		Notes:   "every violation is reported in the transaction that commits it",
	}
	for _, rate := range []float64{0, 0.001, 0.01, 0.1} {
		h := workload.Tickets(workload.TicketsConfig{Steps: 600, Seed: 49, ViolationRate: rate})
		inc, _, err := best(h, incRepeats, runIncremental)
		if err != nil {
			return t, err
		}
		nv, _, err := best(h, repeats(quick), runNaive)
		if err != nil {
			return t, err
		}
		if inc.violations != nv.violations {
			return t, fmt.Errorf("bench: rate %g: incremental %d vs naive %d violations", rate, inc.violations, nv.violations)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f%%", rate*100),
			ns(inc.nsPerStepAll),
			fmt.Sprintf("%d", inc.violations),
			fmt.Sprintf("%d", nv.violations),
		})
	}
	return t, nil
}

// Experiments lists every experiment in report order.
func Experiments() []struct {
	ID  string
	Run func(bool) (Table, error)
} {
	return []struct {
		ID  string
		Run func(bool) (Table, error)
	}{
		{"Table 1", Table1HistoryLength},
		{"Figure 1", Figure1Space},
		{"Table 2", Table2Window},
		{"Table 3", Table3UpdateRate},
		{"Table 4", Table4Depth},
		{"Figure 2", Figure2Crossover},
		{"Table 5", Table5Active},
		{"Figure 3", Figure3Violations},
		{"Table 6", Table6Ablation},
		{"Figure 4", Figure4Storage},
		{"Table 7", Table7SinceChain},
		{"Table 10", Table10CDCFreshness},
		{"Table 11", Table11CommitPath},
		{"Table 12", Table12Checkpoint},
	}
}

// All runs every experiment in report order.
func All(quick bool) ([]Table, error) {
	exps := Experiments()
	out := make([]Table, 0, len(exps))
	for _, e := range exps {
		tbl, err := e.Run(quick)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, tbl)
	}
	return out, nil
}

// Table6Ablation — the pruning ablation: identical answers, but without
// the pruning rules the "bounded" encoding grows with history length.
// This isolates pruning as the mechanism behind the paper's space claim.
func Table6Ablation(quick bool) (Table, error) {
	t := Table{
		ID:      "Table 6",
		Title:   "ablation: window pruning on vs off (window [0,100])",
		Columns: []string{"history n", "pruned aux timestamps", "unpruned aux timestamps", "pruned bytes", "unpruned bytes"},
		Notes:   "constraint: p(x) -> not once[0,100] q(x); answers are identical in both configurations",
	}
	for _, n := range histLengths(quick) {
		h := workload.Uniform(workload.UniformConfig{Steps: n, Seed: 50, OpsPerTx: 1, Domain: 8})
		h.Constraints = []workload.ConstraintSpec{
			{Name: "c", Source: "p(x) -> not once[0,100] q(x)"},
		}
		_, pruned, err := runIncremental(h)
		if err != nil {
			return t, err
		}
		unpruned, err := runUnpruned(h)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", pruned.Timestamps),
			fmt.Sprintf("%d", unpruned.Timestamps),
			bytesStr(pruned.Bytes),
			bytesStr(unpruned.Bytes),
		})
	}
	return t, nil
}

// Figure4Storage — three-way storage comparison: the incremental
// encoding vs the naive checker on full snapshots vs the naive checker
// on a checkpointed delta log (snapshot every 64 commits). The
// checkpointed variant narrows the gap by a constant factor but remains
// Θ(history); only the encoding is bounded.
func Figure4Storage(quick bool) (Table, error) {
	t := Table{
		ID:      "Figure 4",
		Title:   "storage: bounded encoding vs snapshot history vs checkpointed history",
		Columns: []string{"history n", "incremental", "naive (snapshots)", "naive (checkpointed)"},
		Notes:   "constraint: p(x) -> not once[0,100] q(x); checkpoint interval 64",
	}
	for _, n := range histLengths(quick) {
		h := workload.Uniform(workload.UniformConfig{Steps: n, Seed: 51, OpsPerTx: 1, Domain: 8})
		h.Constraints = []workload.ConstraintSpec{
			{Name: "c", Source: "p(x) -> not once[0,100] q(x)"},
		}
		_, stats, err := runIncremental(h)
		if err != nil {
			return t, err
		}
		_, snapBytes, err := runNaive(h)
		if err != nil {
			return t, err
		}
		cpBytes, err := runCheckpointedNaive(h, 64)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			bytesStr(stats.Bytes),
			bytesStr(snapBytes),
			bytesStr(cpBytes),
		})
	}
	return t, nil
}

// Table7SinceChain — the since-chain workload (alarm/ack/clear): the
// operator with the most intricate auxiliary update. Both checkers see
// identical violations; the incremental advantage persists on chain
// constraints.
func Table7SinceChain(quick bool) (Table, error) {
	t := Table{
		ID:      "Table 7",
		Title:   "since-chain workload (alarm acknowledgement protocol)",
		Columns: []string{"history n", "incremental ns/tx", "naive ns/tx", "violations"},
		Notes:   "constraint: clear(a) -> (ack(a) since[0,50] raisd(a)); 2% broken chains",
	}
	for _, n := range sweep([]int{200, 400, 800}, quick, 2) {
		h := workload.Alarms(workload.AlarmsConfig{Steps: n, Seed: 52, ViolationRate: 0.02})
		// Bound the chain window so the naive baseline terminates its
		// backward scan; alarms in this workload clear within 50 ticks.
		h.Constraints = []workload.ConstraintSpec{
			{Name: "ack_before_clear", Source: "clear(a) -> (ack(a) since[0,50] raisd(a))"},
		}
		inc, _, err := best(h, incRepeats, runIncremental)
		if err != nil {
			return t, err
		}
		nv, _, err := best(h, repeats(quick), runNaive)
		if err != nil {
			return t, err
		}
		if inc.violations != nv.violations {
			return t, fmt.Errorf("bench: since-chain checkers disagree: %d vs %d", inc.violations, nv.violations)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			ns(inc.nsPerStepTail),
			ns(nv.nsPerStepTail),
			fmt.Sprintf("%d", inc.violations),
		})
	}
	return t, nil
}
