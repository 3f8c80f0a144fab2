// Command rticbench regenerates every table and figure of the
// reconstructed evaluation (see DESIGN.md and EXPERIMENTS.md).
//
// Usage:
//
//	rticbench [-quick] [-only "Table 1"] [-json out.json] [-trace-out trace.json]
//	rticbench -compare old.json new.json
//
// -quick shortens the length sweeps to their leading rows and replays
// each naive and active-rules timing cell once instead of taking the
// best of three; every row it keeps is built from the same input as in
// a full run. -only runs a
// single experiment by its id. -json additionally writes the run as a
// schema'd BENCH_<date>.json (see docs/OBSERVABILITY.md). -trace-out
// records every commit's span tree and writes a Chrome trace-event file
// loadable in chrome://tracing or Perfetto. -compare validates two
// result files, matches their cells and exits 1 when a count, byte or
// percent cell differs at all or a duration cell got more than
// bench.DurationFactor times slower; it refuses files written under
// different Go versions. Table 11 makes -compare the repository's one
// count gate for the commit path: its allocations and GC cycles per
// window, socket and journal writes, fsyncs, journal bytes, entries
// visited and plan executions per commit are count cells, held exactly
// (no go test benchmark asserts a count).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rtic/internal/bench"
	"rtic/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced sweeps")
	only := flag.String("only", "", "run a single experiment by id (e.g. \"Table 1\")")
	jsonOut := flag.String("json", "", "also write results as schema'd JSON to this file")
	traceOut := flag.String("trace-out", "", "write commit span trees as Chrome trace-event JSON to this file")
	compare := flag.Bool("compare", false, "compare two result files: rticbench -compare old.json new.json")
	flag.Parse()

	if *compare {
		runCompare(flag.Args())
		return
	}

	var rec *obs.SpanRecorder
	if *traceOut != "" {
		rec = obs.NewSpanRecorder(0)
		bench.SetTraceSink(rec)
		defer bench.SetTraceSink(nil)
	}

	var tables []bench.Table
	if *only != "" {
		found := false
		for _, e := range bench.Experiments() {
			if e.ID != *only {
				continue
			}
			found = true
			tbl, err := e.Run(*quick)
			if err != nil {
				fatal(err)
			}
			tables = append(tables, tbl)
		}
		if !found {
			fmt.Fprintf(os.Stderr, "rticbench: unknown experiment %q\n", *only)
			os.Exit(1)
		}
	} else {
		var err error
		tables, err = bench.All(*quick)
		if err != nil {
			fatal(err)
		}
	}
	for i := range tables {
		tables[i].Render(os.Stdout)
	}

	if *jsonOut != "" {
		res := bench.NewResult(tables, *quick, time.Now().Unix())
		if err := writeJSON(*jsonOut, res); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rticbench: wrote %s (%d tables, rev %s)\n", *jsonOut, len(res.Tables), res.GitRev)
	}
	if rec != nil {
		if err := writeTrace(*traceOut, rec); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rticbench: wrote %s (%d commit spans)\n", *traceOut, rec.Len())
	}
}

func runCompare(args []string) {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "rticbench: -compare needs exactly two files: old.json new.json")
		os.Exit(2)
	}
	old, err := readResult(args[0])
	if err != nil {
		fatal(err)
	}
	cur, err := readResult(args[1])
	if err != nil {
		fatal(err)
	}
	rep, err := bench.Compare(old, cur)
	if err != nil {
		fatal(err)
	}
	rep.Render(os.Stdout)
	if !rep.OK() {
		os.Exit(1)
	}
}

func readResult(path string) (bench.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return bench.Result{}, err
	}
	defer f.Close()
	return bench.ReadResult(f)
}

func writeJSON(path string, res bench.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteResult(f, res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTrace(path string, rec *obs.SpanRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, rec.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rticbench:", err)
	os.Exit(1)
}
