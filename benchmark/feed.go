package main

import (
	"fmt"
	"strings"

	"rtic/internal/cdcgen"
	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/naive"
	"rtic/internal/workload"
)

// naiveCommits is how much of the feed the executable specification
// (internal/naive, whose cost grows with the history) is replayed over.
const naiveCommits = 2000

// feed is one generated input: the history, its protocol lines (each
// with its newline) and the spec file the daemon is started with. The
// daemon only ever sees spec and lines.
type feed struct {
	h     workload.History
	lines []string
	spec  string
}

func (w wl) makeFeed(seed int64, steps int) feed {
	cfg := w.feedConfig(seed, steps)
	h, _ := cdcgen.Generate(cfg)
	h.Constraints = w.constraints(cfg)
	lines := strings.SplitAfter(cdcgen.Render(h), "\n")
	return feed{h: h, lines: lines[:len(h.Steps)], spec: renderSpec(h)}
}

// install compiles the feed's policies into a fresh engine.
func install(eng engine.Engine, h workload.History) error {
	for _, cs := range h.Constraints {
		con, err := check.Parse(cs.Name, cs.Source, h.Schema)
		if err != nil {
			return err
		}
		if err := eng.AddConstraint(con); err != nil {
			return err
		}
	}
	return nil
}

// violationCounts replays the first n commits in-process and returns the
// number of violations each one reports.
func violationCounts(eng engine.Engine, h workload.History, n int) ([]int, error) {
	if err := install(eng, h); err != nil {
		return nil, err
	}
	counts := make([]int, n)
	for i, st := range h.Steps[:n] {
		vs, err := eng.Step(st.Time, st.Tx)
		if err != nil {
			return nil, fmt.Errorf("reference step %d: %w", i, err)
		}
		counts[i] = len(vs)
	}
	return counts, nil
}

// verify compares the violation count of every acknowledged commit with
// the incremental engine replayed in-process over the same feed, and the
// first naiveCommits of those with the naive specification. It returns
// the number of commits whose count differs.
func verify(f feed, got []int32) (mismatches int, err error) {
	want, err := violationCounts(core.New(f.h.Schema), f.h, len(got))
	if err != nil {
		return 0, err
	}
	spec, err := violationCounts(naive.New(f.h.Schema), f.h, min(naiveCommits, len(got)))
	if err != nil {
		return 0, err
	}
	for i := range got {
		if int(got[i]) != want[i] || (i < len(spec) && spec[i] != want[i]) {
			mismatches++
		}
	}
	return mismatches, nil
}
