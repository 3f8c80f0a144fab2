package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"rtic/internal/cdcgen"
	"rtic/internal/workload"
)

// warmupCommits are sent closed-loop before any phase is timed, so lazy
// set-up (router seal, first allocations, page-cache warm-up of the
// journal) is paid in setup_s and not in a latency percentile.
const warmupCommits = 2000

// pacedTick is the period of the open-loop schedule: every tick a train
// of wl.batch commits falls due at the same instant, the way a CDC
// connector delivers a poll's worth of changes at once. The daemon is
// idle between trains, so each train pays one wake-up and then shows how
// the daemon works through a backlog.
const pacedTick = 4 * time.Millisecond

// windowTicks is the length of one window of the paced phase: a quarter
// of a second.
const windowTicks = 64

// wl is one benchmark workload: a daemon configuration, a feed shape
// and the fixed load that is put on it. Rates are constants sized on the
// two-core reference host — paced at about a quarter of the seed's
// saturation speed, so that a train is long done when the next falls due
// even while the host is slow, satPerSec at about all of it — so counts
// repeat exactly and both sides of a comparison do the same work.
type wl struct {
	name string
	why  string

	sensors int  // cdcgen key universe
	wide    bool // 35 constraints instead of cdcgen's 3

	shards     int    // -shards (1 = unsharded)
	walSync    string // -wal-sync policy; "" runs without a journal
	checkpoint bool   // -snapshot with -checkpoint-interval 2s
	observed   bool   // an operator's connection reads beside the writer

	batch     int // commits per pacedTick in the open-loop phase
	satPerSec int // closed-loop commits per second of measurement
	traceN    int // commits replayed per rung of the traced run, per second of measurement
}

var workloads = []wl{
	{
		name:    "cdc-stream",
		why:     "cheap commits, no journal: line parsing and the per-line reply dominate, so protocol and server work shows here and durability work must not",
		sensors: 24, shards: 1,
		batch: 12, satPerSec: 13000, traceN: 1500,
	},
	{
		name:    "cdc-durable",
		why:     "one fsync under the commit lock per commit plus 2s checkpoints: wal and vfs are most of each commit, so group commit shows here and nowhere else",
		sensors: 24, shards: 1, walSync: "always", checkpoint: true,
		batch: 2, satPerSec: 2000, traceN: 400,
	},
	{
		name:    "policy-wide",
		why:     "35 freshness policies over 1024 sensors: core and plan are most of each commit, so planner, skip/seed and parallelism work shows here and protocol work barely does",
		sensors: 1024, wide: true, shards: 1,
		batch: 3, satPerSec: 3000, traceN: 400,
	},
	{
		name:    "shard-recover",
		why:     "two shards, batched journals, no checkpoints, an operator reading beside the writer: router fan-out, batch appends, reads under the commit lock and a restart that replays the whole history",
		sensors: 24, shards: 2, walSync: "batch", observed: true,
		batch: 10, satPerSec: 6000, traceN: 1500,
	},
}

func findWorkload(name string) (wl, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return wl{}, false
}

// pacedCommits and satCommits split the measured time seven to one
// between the open-loop phase, a whole number of windows which the gated
// metrics come from, and the closed-loop phase.
func (w wl) pacedCommits(measure time.Duration) int {
	ticks := int(measure * 7 / 8 / pacedTick)
	if ticks > windowTicks {
		ticks -= ticks % windowTicks
	}
	return ticks * w.batch
}

func (w wl) satCommits(measure time.Duration) int {
	return int(float64(w.satPerSec) * (measure / 8).Seconds())
}

// feedConfig is the cdcgen shape every workload shares: burst trains of
// 8 every 20 commits, late arrivals displaced by up to 3 commits, 2% of
// flows planned to violate.
func (w wl) feedConfig(seed int64, steps int) cdcgen.Config {
	return cdcgen.Config{
		Steps: steps, Seed: seed, Sensors: w.sensors,
		BurstLen: 8, BurstEvery: 20,
		MaxReorder:    3,
		ViolationRate: 0.02,
	}
}

// constraints returns the policies the daemon is started with: cdcgen's
// three, and on the wide workload 16 more validity windows and 16 more
// derived-row lifetimes over the same relations.
func (w wl) constraints(cfg cdcgen.Config) []workload.ConstraintSpec {
	cons := cdcgen.Constraints(cfg)
	if !w.wide {
		return cons
	}
	for i := 0; i < 16; i++ {
		cons = append(cons,
			workload.ConstraintSpec{
				Name:   fmt.Sprintf("fresh_serve_%d", 17+i),
				Source: fmt.Sprintf("serve(s) -> once[0,%d] reading(s)", 17+i),
			},
			workload.ConstraintSpec{
				Name:   fmt.Sprintf("derived_lineage_%d", 25+i),
				Source: fmt.Sprintf("derived(d, s) -> once[0,%d] reading(s)", 25+i),
			})
	}
	return cons
}

// daemonArgs are the rticd flags of the workload; every path lies in
// dir, the run's private directory. -metrics is on only so the harness
// can read the recovered state count from /healthz after the crash.
func (w wl) daemonArgs(dir string) []string {
	args := []string{
		"-spec", filepath.Join(dir, "spec.rtic"),
		"-listen", "127.0.0.1:0",
		"-metrics", "127.0.0.1:0",
	}
	if w.shards > 1 {
		args = append(args, "-shards", fmt.Sprint(w.shards))
	}
	if w.walSync != "" {
		args = append(args, "-wal", filepath.Join(dir, "data", "journal.wal"), "-wal-sync", w.walSync)
	}
	if w.checkpoint {
		args = append(args, "-snapshot", filepath.Join(dir, "data", "state.snap"), "-checkpoint-interval", "2s")
	}
	return args
}

// renderSpec writes the spec file text for a feed's schema and policies.
func renderSpec(h workload.History) string {
	var b strings.Builder
	for _, rel := range h.Schema.Names() {
		arity, _ := h.Schema.Arity(rel) // Names lists declared relations only
		fmt.Fprintf(&b, "relation %s/%d\n", rel, arity)
	}
	for _, c := range h.Constraints {
		fmt.Fprintf(&b, "constraint %s: %s\n", c.Name, c.Source)
	}
	return b.String()
}
