// Command benchmark measures rticd from a client socket: it builds the
// daemon, drives the real binary over its line protocol with generated
// CDC feeds, kills and restarts it, checks every reply against
// in-process references, and prints each metric by name. With -trace 1
// it instead replays the same feeds in-process through a ladder of layer
// compositions and prints the per-layer metrics. See README.md.
//
// Run it from the repository root:
//
//	go run ./benchmark -seed 7                      every workload
//	go run ./benchmark -workload cdc-durable -seed 7
//	go run ./benchmark -trace 1 -seed 7             per-layer metrics
//	go run ./benchmark -aa                          calibrate the bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runTimeout bounds one workload run, set-up and recovery included; the
// contract allows 180s.
const runTimeout = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all)")
		seed    = flag.Int64("seed", 1, "feed generator seed")
		seconds = flag.Int("seconds", 30, "seconds of timed load per workload")
		trace   = flag.Int("trace", 0, "1: in-process traced run printing the per-layer metrics")
		aa      = flag.Bool("aa", false, "run everything twice and compare the two sets against the bounds in BENCHMARK.json")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []wl{w}
	}
	measure := time.Duration(*seconds) * time.Second
	printHostFacts()

	var err error
	switch {
	case *aa:
		err = runAA(ctx, selected, *seed, measure)
	case *trace == 1:
		err = each(ctx, selected, func(ctx context.Context, w wl) (report, error) {
			return traceWorkload(ctx, w, *seed, measure)
		})
	default:
		var bin string
		if bin, err = buildDaemon(ctx); err == nil {
			err = each(ctx, selected, func(ctx context.Context, w wl) (report, error) {
				return runWorkload(ctx, w, *seed, measure, bin)
			})
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// each runs one report-producing function per workload, each under its
// own timeout, and prints the reports. A run with failed operations is
// still printed — the caller reads "correct" — but an error ends the
// process without a result line.
func each(ctx context.Context, ws []wl, run func(context.Context, wl) (report, error)) error {
	for _, w := range ws {
		rep, err := bounded(ctx, w, run)
		if err != nil {
			return err
		}
		rep.print()
	}
	return nil
}

// bounded is one run under runTimeout; timings the run itself declared
// untrustworthy are an error.
func bounded(ctx context.Context, w wl, run func(context.Context, wl) (report, error)) (report, error) {
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	rep, err := run(ctx, w)
	if err == nil && rep.invalid != "" {
		err = errors.New(rep.invalid)
	}
	if err != nil {
		return rep, fmt.Errorf("%s: %w", w.name, err)
	}
	return rep, nil
}

// print writes the human-readable table and, as the last line, the JSON
// object the driver parses.
func (r report) print() {
	fmt.Printf("\n== %s: %d operations, %d failed\n", r.workload, r.attempted, r.failed)
	for _, m := range r.all() {
		fmt.Printf("%-32s %16.4f %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only NaN or Inf can fail here, which is a bug in the metric
	}
	fmt.Printf("%s\n", b)
}

// printHostFacts records what the numbers were taken on, so a device
// difference is never read as a code difference.
func printHostFacts() {
	rev := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s git=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
}
