package bench

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"strconv"

	"rtic/internal/cdcgen"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/workload"
)

// quietMallocs returns the allocations fn makes in a quiet window.
func quietMallocs(fn func() error) (uint64, error) {
	var w quietWindow
	w.open()
	err := fn()
	n, werr := w.close()
	return n, cmp.Or(err, werr)
}

// Table12Checkpoint — the checkpoint's counts, on the policy-wide feed
// and on cdc-stream's: a checker steps the feed's first commits, saves a
// snapshot, and a checker loaded from it takes the next commit beside
// the one that saved it. Every cell is exact. It runs the same in
// either mode.
func Table12Checkpoint(bool) (Table, error) {
	t := Table{
		ID:    "Table 12",
		Title: "the checkpoint's counts",
		Columns: []string{
			"feed", "commits", "snapshot bytes", "save allocs", "load allocs",
			"first step visits", "first step plan execs", "steady step visits", "steady step plan execs",
		},
		Notes: "cdcgen seed 7, bursts of 8 every 20 commits, late arrivals up to 3, 2% planned violations: policy-wide its 35 policies over 1,024 sensors, feed=cdc cdc-stream's 3 over 24; " +
			"save allocs is a save into a kept buffer after one save of the same state; load allocs builds the checker from the snapshot's bytes, constraints compiled; " +
			"the first step is the next commit on the loaded checker, the steady step that commit on the checker that saved",
	}
	for _, leg := range []struct {
		name    string
		sensors int
		specs   func(cdcgen.Config) []workload.ConstraintSpec
	}{
		{"policy-wide", 1024, cdcgen.WidePolicies},
		{"feed=cdc", 24, cdcgen.Constraints},
	} {
		const at = 6000
		cfg := cdcgen.Config{Steps: at + 1, Seed: 7, Sensors: leg.sensors, BurstLen: 8, BurstEvery: 20, MaxReorder: 3, ViolationRate: 0.02}
		row, err := checkpointRow(cfg, leg.specs(cfg), at)
		if err != nil {
			return t, fmt.Errorf("%s: %w", leg.name, err)
		}
		t.Rows = append(t.Rows, append([]string{leg.name, strconv.Itoa(at)}, row...))
	}
	return t, nil
}

// checkpointRow steps cfg's feed to commit at, saves and loads, and
// counts.
func checkpointRow(cfg cdcgen.Config, specs []workload.ConstraintSpec, at int) ([]string, error) {
	h, _ := cdcgen.Generate(cfg)
	c := core.New(h.Schema)
	if err := engine.Install(c, h.Schema, specs); err != nil {
		return nil, err
	}
	for _, st := range h.Steps[:at] {
		if _, err := c.Step(st.Time, st.Tx); err != nil {
			return nil, err
		}
	}
	var snap bytes.Buffer
	if err := c.SaveSnapshot(&snap); err != nil {
		return nil, err
	}
	saves, err := quietMallocs(func() error { return c.SaveSnapshot(io.Discard) })
	if err != nil {
		return nil, err
	}
	var loaded *core.Checker
	loads, err := quietMallocs(func() (err error) {
		loaded, err = core.LoadSnapshot(h.Schema, bytes.NewReader(snap.Bytes()))
		return err
	})
	if err != nil {
		return nil, err
	}
	next := h.Steps[at]
	work := func(c *core.Checker) (core.Work, error) {
		w0 := c.Work()
		_, err := c.Step(next.Time, next.Tx.Clone())
		w1 := c.Work()
		return core.Work{Visited: w1.Visited - w0.Visited, PlanExecs: w1.PlanExecs - w0.PlanExecs}, err
	}
	first, err := work(loaded)
	if err != nil {
		return nil, err
	}
	steady, err := work(c)
	if err != nil {
		return nil, err
	}
	return []string{
		fmt.Sprintf("%d B", snap.Len()), strconv.FormatUint(saves, 10), strconv.FormatUint(loads, 10),
		strconv.Itoa(first.Visited), strconv.Itoa(first.PlanExecs), strconv.Itoa(steady.Visited), strconv.Itoa(steady.PlanExecs),
	}, nil
}
