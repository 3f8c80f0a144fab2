// "rtic trace" replays a transaction log with commit-span recording
// and writes the span trees as a Chrome trace-event file, optionally
// capturing CPU and heap profiles of the replay. It is the offline
// counterpart of `rticd -trace-out`: same spec and log formats as
// plain rtic, but the output is attribution (where commit time went)
// rather than violations. See docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"time"

	"rtic/internal/engine"
	"rtic/internal/obs"
	"rtic/internal/shard"
	"rtic/internal/storage"
)

func runTrace(args []string, out io.Writer) error {
	// A bad flag is a usage error, exit 2, as for rtic and rticd.
	fs := flag.NewFlagSet("rtic trace", flag.ExitOnError)
	specPath := fs.String("spec", "", "spec file with relations and constraints (required)")
	outPath := fs.String("out", "trace.json", "Chrome trace-event output file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the replay to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the replay to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return err
	}

	// Span tracing decomposes the paper's commit pipeline.
	rec := obs.NewSpanRecorder(0)
	eng, err := shard.Build(sp.Schema, 1)
	if err != nil {
		return err
	}
	eng.SetObserver(&obs.Observer{Spans: rec})
	if err := engine.Install(eng, sp.Schema, sp.Constraints); err != nil {
		return err
	}

	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}

	states, violations := 0, 0
	err = replay(fs.Args(), sp.Schema, func(t uint64, tx *storage.Transaction) error {
		vs, err := eng.Step(t, tx)
		if err != nil {
			return err
		}
		states++
		violations += len(vs)
		return nil
	})
	if err != nil {
		return err
	}

	if *memProfile != "" {
		mf, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		if err := pprof.WriteHeapProfile(mf); err != nil {
			mf.Close()
			return err
		}
		if err := mf.Close(); err != nil {
			return err
		}
	}

	roots := rec.Snapshot()
	tf, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(tf, roots); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}

	fmt.Fprintf(out, "replayed %d transactions (%d violations): %d commit spans -> %s\n",
		states, violations, len(roots), *outPath)
	printSpanSummary(out, roots)
	return nil
}

// printSpanSummary aggregates the recorded trees by span name: total
// wall time, count, and share of the summed commit time.
func printSpanSummary(out io.Writer, roots []*obs.Span) {
	type agg struct {
		name  string
		total time.Duration
		count int
	}
	var commit time.Duration
	byName := map[string]*agg{}
	for _, r := range roots {
		commit += r.Dur
		r.Walk(func(s *obs.Span) {
			if s == r {
				return
			}
			a := byName[s.Name]
			if a == nil {
				a = &agg{name: s.Name}
				byName[s.Name] = a
			}
			a.total += s.Dur
			a.count += s.Ops
			if s.Ops == 0 {
				a.count++
			}
		})
	}
	if commit <= 0 {
		return
	}
	var aggs []*agg
	for _, a := range byName {
		aggs = append(aggs, a)
	}
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].total > aggs[j].total })
	fmt.Fprintf(out, "commit time %v across %d spans; by phase:\n", commit, len(roots))
	for _, a := range aggs {
		fmt.Fprintf(out, "  %-14s %10v  %5.1f%%  ops=%d\n",
			a.name, a.total, 100*float64(a.total)/float64(commit), a.count)
	}
}
