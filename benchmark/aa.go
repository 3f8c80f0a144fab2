package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// manifest is the part of BENCHMARK.json the harness itself reads: the
// metric names it must print, and the bound on each end-to-end one.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// aaRuns is how many runs make one side of an A/A comparison. On a host
// where one run in five meets a stall, single runs cannot be compared.
const aaRuns = 3

// runAA measures every selected workload as two sets of aaRuns runs of
// the same daemon binary — the sets take turns, run by run, with the same
// seeds — and prints, per end-to-end metric, how far the medians of the
// two sets are apart beside the bound BENCHMARK.json puts on it. Two sets
// of runs of the same code that differ by more than a bound mean the
// bound cannot tell a regression from noise on this host: that is an
// error.
func runAA(ctx context.Context, ws []wl, seed int64, measure time.Duration) error {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, def := range man.EndToEnd {
		bounds[def.Name] = def.Bound
	}
	gated := map[string]bool{} // a workload the manifest leaves out is compared, never judged
	for _, w := range man.Workloads {
		gated[w.Name] = true
	}
	bin, err := buildDaemon(ctx)
	if err != nil {
		return err
	}
	exceeded := 0
	fmt.Printf("\n%-14s %-26s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range ws {
		var sides [2]map[string][]float64
		var names []string
		for side := range sides {
			sides[side] = map[string][]float64{}
		}
		for run := 0; run < aaRuns; run++ {
			for side := range sides {
				rep, err := bounded(ctx, w, func(ctx context.Context, w wl) (report, error) {
					return runWorkload(ctx, w, seed+int64(run), measure, bin)
				})
				if err != nil {
					return err
				}
				if rep.failed > 0 {
					return fmt.Errorf("%s: %d of %d operations failed", w.name, rep.failed, rep.attempted)
				}
				names = names[:0]
				for _, m := range rep.all() {
					names = append(names, m.name)
					sides[side][m.name] = append(sides[side][m.name], m.value)
				}
			}
		}
		for _, name := range names {
			a, b := median(sides[0][name]), median(sides[1][name])
			diff := 0.0
			if a != 0 {
				diff = math.Abs(b-a) / a
			}
			verdict := "      -" // not gated
			if bound, ok := bounds[name]; ok && gated[w.name] {
				verdict = fmt.Sprintf("%6.0f%%", 100*bound)
				if diff > bound {
					verdict += "  EXCEEDS"
					exceeded++
				}
			}
			fmt.Printf("%-14s %-26s %14.4f %14.4f %8.1f%% %s\n", w.name, name, a, b, 100*diff, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metrics differ between two sets of runs of the same code by more than their bound", exceeded)
	}
	return nil
}
