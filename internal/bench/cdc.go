package bench

import (
	"fmt"
	"runtime"
	"time"

	"rtic/internal/cdcgen"
	"rtic/internal/core"
)

// phaseStats accumulates one phase's share of a CDC replay: commit
// timings, heap allocations, and the delta-driven check path's
// per-constraint action decisions.
type phaseStats struct {
	commits int
	ns      int64
	mallocs uint64
	actions map[core.SkipAction]int
}

func (p *phaseStats) row(name string) []string {
	total := 0
	for _, n := range p.actions {
		total += n
	}
	share := func(a core.SkipAction) string {
		if total == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(p.actions[a])/float64(total))
	}
	return []string{
		name,
		fmt.Sprintf("%d", p.commits),
		ns(float64(p.ns) / float64(p.commits)),
		fmt.Sprintf("%.0f", float64(p.mallocs)/float64(p.commits)),
		share(core.ActionSkipped),
		share(core.ActionSeeded),
		share(core.ActionPlanned),
	}
}

// Table10CDCFreshness — the CDC freshness workload (internal/cdcgen,
// ROADMAP item 5): burst trains of source captures against steady
// mixed traffic, checked under the validity-window, derived-lifetime,
// and staleness-chain constraints. The table attributes cost,
// allocations, and the LastSkips action distribution to each phase:
// steady traffic should ride the skipped/seeded paths, while bursts
// concentrate writes on few relations and show where the skip rule's
// coverage ends. It replays the feed once in either mode.
func Table10CDCFreshness(bool) (Table, error) {
	t := Table{
		ID:    "Table 10",
		Title: "CDC freshness workload: burst vs steady phases",
		Columns: []string{
			"phase", "commits", "ns/tx", "allocs/tx",
			"skipped", "seeded", "planned",
		},
		Notes: "cdcgen feed: 3 freshness constraints, burst trains of 8 every 20 commits, late arrivals up to 3 commits (25%), 2% planned violations; action columns are each phase's share of LastSkips decisions; the feed row builds the feed (cdcgen.Generate, then Render) once in a window that does not collect",
	}
	cfg := cdcgen.Config{
		Steps: 1000, Seed: 60,
		BurstLen: 8, BurstEvery: 20,
		MaxReorder:    3,
		ViolationRate: 0.02,
	}
	h, meta := cdcgen.Generate(cfg)

	c, err := newIncremental(h)
	if err != nil {
		return t, err
	}
	steady := phaseStats{actions: map[core.SkipAction]int{}}
	burst := phaseStats{actions: map[core.SkipAction]int{}}
	phases := [2]*phaseStats{&steady, &burst}

	// Attribute heap allocations per phase by reading the malloc counter
	// at every phase transition, outside the timed region. Trains are
	// BurstLen commits long, so this is ~2n/(BurstEvery+BurstLen) reads.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cur := 0
	for i, st := range h.Steps {
		ph := 0
		if meta.Burst[i] {
			ph = 1
		}
		if ph != cur {
			runtime.ReadMemStats(&m1)
			phases[cur].mallocs += m1.Mallocs - m0.Mallocs
			m0 = m1
			cur = ph
		}
		t0 := time.Now()
		_, err := c.Step(st.Time, st.Tx)
		d := time.Since(t0).Nanoseconds()
		if err != nil {
			return t, fmt.Errorf("step %d: %w", i, err)
		}
		phases[ph].commits++
		phases[ph].ns += d
		for _, si := range c.LastSkips() {
			phases[ph].actions[si.Action]++
		}
	}
	runtime.ReadMemStats(&m1)
	phases[cur].mallocs += m1.Mallocs - m0.Mallocs

	if steady.commits == 0 || burst.commits == 0 {
		return t, fmt.Errorf("bench: degenerate phase split: %d steady, %d burst commits", steady.commits, burst.commits)
	}
	feed, err := feedRow(cfg)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, steady.row("steady"), burst.row("burst"), feed)
	return t, nil
}

// feedRow times and counts building the feed itself, cdcgen.Generate
// then Render of cfg, per generated commit. Its window must not
// collect: after a collection the runtime's own cleanup allocates, and
// the count would move from process to process.
func feedRow(cfg cdcgen.Config) ([]string, error) {
	build := func(n int) error {
		for i := 0; i < n; i++ {
			h, _ := cdcgen.Generate(cfg)
			_ = cdcgen.Render(h)
		}
		return nil
	}
	r0, r1, err := counted(1, 1, build, nil, nil)
	if err != nil {
		return nil, err
	}
	if gcs := r1.gcs - r0.gcs; gcs != 0 {
		return nil, fmt.Errorf("bench: the feed window ran %d collections", gcs)
	}
	n := float64(cfg.Steps)
	return []string{
		"feed",
		fmt.Sprintf("%d", cfg.Steps),
		ns(float64(r1.at.Sub(r0.at).Nanoseconds()) / n),
		fmt.Sprintf("%.2f", float64(r1.mallocs-r0.mallocs)/n),
		"-", "-", "-",
	}, nil
}
