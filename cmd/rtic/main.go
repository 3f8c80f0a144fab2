// Command rtic checks a transaction log against real-time integrity
// constraints.
//
// Usage:
//
//	rtic -spec constraints.rtic [-mode incremental|naive|active]
//	     [-parallelism N] [-trace] [log...]
//	rtic lint -spec constraints.rtic [-json] [-strict]
//	     [-cost-threshold N] [log...]
//	rtic trace -spec constraints.rtic [-out trace.json]
//	     [-parallelism N] [-shards N]
//	     [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [log...]
//
// The spec file declares relations and constraints (see package
// internal/spec). Transaction logs are read from the given files, or
// from stdin when none are given; each line is "@time ±rel(args) …".
// Violations are printed to stdout as they are detected; the exit code
// is 2 when any violation occurred, 1 on errors, 0 otherwise. With
// -trace every span of every commit (the commit, its phases, each
// auxiliary node's update, each constraint's check) is logged as a
// structured line on stderr.
//
// "rtic lint" statically analyzes the spec without replaying a log;
// see lint.go and docs/LINTING.md.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"rtic"
	"rtic/internal/active"
	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/naive"
	"rtic/internal/obs"
	"rtic/internal/spec"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "lint" {
		if err := runLint(os.Args[2:], os.Stdout); err != nil {
			if err == errLintFindings {
				os.Exit(2)
			}
			fmt.Fprintln(os.Stderr, "rtic:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		if err := runTrace(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "rtic:", err)
			os.Exit(1)
		}
		return
	}

	specPath := flag.String("spec", "", "spec file with relations and constraints (required)")
	mode := flag.String("mode", "incremental",
		"checking engine ("+strings.Join(rtic.ModeNames(), ", ")+")")
	parallelism := flag.Int("parallelism", 0,
		"commit-pipeline worker-pool width (<=1 = inline on the committing goroutine, the default; N>=2 = explicit fan-out over N workers; incremental engine only)")
	quiet := flag.Bool("quiet", false, "suppress per-violation output; print only the summary")
	explain := flag.Bool("explain", false, "print evidence trails for violations (incremental mode only)")
	trace := flag.Bool("trace", false, "log every commit's span tree (structured, stderr)")
	flag.Parse()

	if err := run4(*specPath, *mode, *parallelism, *quiet, *explain, *trace, flag.Args(), os.Stdout); err != nil {
		if err == errViolations {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "rtic:", err)
		os.Exit(1)
	}
}

var errViolations = fmt.Errorf("violations detected")

// run keeps the original signature for tests; run2 adds -explain,
// run3 adds -trace, run4 adds -parallelism.
func run(specPath, mode string, quiet bool, logs []string, out io.Writer) error {
	return run4(specPath, mode, 0, quiet, false, false, logs, out)
}

func run2(specPath, mode string, quiet, explain bool, logs []string, out io.Writer) error {
	return run4(specPath, mode, 0, quiet, explain, false, logs, out)
}

func run3(specPath, mode string, quiet, explain, trace bool, logs []string, out io.Writer) error {
	return run4(specPath, mode, 0, quiet, explain, trace, logs, out)
}

func run4(specPath, mode string, parallelism int, quiet, explain, trace bool, logs []string, out io.Writer) error {
	if specPath == "" {
		return fmt.Errorf("-spec is required")
	}
	f, err := os.Open(specPath)
	if err != nil {
		return err
	}
	sp, err := spec.ParseSpec(f)
	f.Close()
	if err != nil {
		return err
	}

	m, err := rtic.ParseMode(mode)
	if err != nil {
		return err
	}
	var eng engine.Engine
	var inc *core.Checker
	switch m {
	case rtic.Incremental:
		inc = core.New(sp.Schema, core.WithParallelism(parallelism))
		eng = inc
	case rtic.Naive:
		eng = naive.New(sp.Schema)
	case rtic.ActiveRules:
		eng = active.New(sp.Schema)
	}
	if explain && inc == nil {
		return fmt.Errorf("-explain requires -mode incremental")
	}
	if trace {
		eng.SetObserver(&obs.Observer{Spans: obs.NewSlogSink(slog.New(
			slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug}),
		))})
	}
	for _, cs := range sp.Constraints {
		con, err := check.Parse(cs.Name, cs.Source, sp.Schema)
		if err != nil {
			return err
		}
		if err := eng.AddConstraint(con); err != nil {
			return err
		}
	}

	total, states := 0, 0
	process := func(r io.Reader, name string) error {
		sc := bufio.NewScanner(r)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			t, tx, ok, err := spec.ParseLogLine(sc.Text())
			if err != nil {
				return fmt.Errorf("%s:%d: %w", name, lineNo, err)
			}
			if !ok {
				continue
			}
			vs, err := eng.Step(t, tx)
			if err != nil {
				return fmt.Errorf("%s:%d: %w", name, lineNo, err)
			}
			states++
			total += len(vs)
			if !quiet {
				for _, v := range vs {
					if explain && inc != nil {
						ex, err := inc.Explain(v)
						if err != nil {
							return err
						}
						fmt.Fprint(out, ex.String())
					} else {
						fmt.Fprintln(out, v.String())
					}
				}
			}
		}
		return sc.Err()
	}

	if len(logs) == 0 {
		if err := process(os.Stdin, "stdin"); err != nil {
			return err
		}
	}
	for _, path := range logs {
		lf, err := os.Open(path)
		if err != nil {
			return err
		}
		err = process(lf, path)
		lf.Close()
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "checked %d transactions: %d violations\n", states, total)
	if total > 0 {
		return errViolations
	}
	return nil
}
