// Command rtic checks a transaction log against real-time integrity
// constraints.
//
// Usage:
//
//	rtic -spec constraints.rtic [-quiet] [-explain] [-trace] [log...]
//	rtic lint -spec constraints.rtic [-json] [-strict] [log...]
//	rtic trace -spec constraints.rtic [-out trace.json]
//	     [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [log...]
//
// The spec file declares relations and constraints (see package
// internal/spec). Transaction logs are read from the given files, or
// from stdin when none are given; each line is "@time ±rel(args) …",
// at most spec.MaxLineBytes long, as rticd accepts it. The paper's
// incremental checker checks the log. Violations are printed to stdout
// as they are detected; the exit code is 2 when any violation occurred,
// 1 on errors, 0 otherwise. With -trace every span of every commit
// (the commit, its phases, each auxiliary node's update, each
// constraint's check) is logged as a structured line on stderr.
//
// "rtic lint" statically analyzes the spec without replaying a log;
// see lint.go and docs/LINTING.md.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"rtic/internal/engine"
	"rtic/internal/obs"
	"rtic/internal/schema"
	"rtic/internal/shard"
	"rtic/internal/spec"
	"rtic/internal/storage"
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

	var o options
	flag.StringVar(&o.spec, "spec", "", "spec file with relations and constraints (required)")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress per-violation output; print only the summary")
	flag.BoolVar(&o.explain, "explain", false, "print evidence trails for violations")
	flag.BoolVar(&o.trace, "trace", false, "log every commit's span tree (structured, stderr)")
	flag.Parse()
	o.logs = flag.Args()

	if err := run(o, os.Stdout); err != nil {
		if err == errViolations {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "rtic:", err)
		os.Exit(1)
	}
}

var errViolations = fmt.Errorf("violations detected")

// options are the check command's flags and arguments.
type options struct {
	spec                  string
	quiet, explain, trace bool
	logs                  []string // transaction logs; none means stdin
}

func run(o options, out io.Writer) error {
	sp, err := loadSpec(o.spec)
	if err != nil {
		return err
	}
	eng, err := shard.Build(sp.Schema, 1)
	if err != nil {
		return err
	}
	if o.trace {
		eng.SetObserver(&obs.Observer{Spans: obs.NewSlogSink(slog.New(
			slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug}),
		))})
	}
	if err := engine.Install(eng, sp.Schema, sp.Constraints); err != nil {
		return err
	}

	total, states := 0, 0
	err = replay(o.logs, sp.Schema, func(t uint64, tx *storage.Transaction) error {
		vs, err := eng.Step(t, tx)
		if err != nil {
			return err
		}
		states++
		total += len(vs)
		for _, v := range vs {
			switch {
			case o.quiet:
			case o.explain:
				ex, err := eng.Explain(v)
				if err != nil {
					return err
				}
				fmt.Fprint(out, ex.String())
			default:
				fmt.Fprintln(out, v.String())
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "checked %d transactions: %d violations\n", states, total)
	if total > 0 {
		return errViolations
	}
	return nil
}

// loadSpec reads the spec file every subcommand takes.
func loadSpec(path string) (*spec.Spec, error) {
	if path == "" {
		return nil, fmt.Errorf("-spec is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return spec.ParseSpec(f)
}

// replay reads the transaction logs (stdin when none is named) and
// calls commit for every line that holds a transaction; errors carry
// the file and line. Every line is parsed into one transaction, as the
// server's sessions do, so commit borrows it until it returns; a line
// over spec.MaxLineBytes is an error, as it is on the server.
func replay(logs []string, s *schema.Schema, commit func(uint64, *storage.Transaction) error) error {
	tx := storage.NewTransaction()
	process := func(r io.Reader, name string) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(nil, spec.MaxLineBytes)
		lineNo := 1
		for ; sc.Scan(); lineNo++ {
			t, ok, err := spec.ParseLogLineInto(sc.Bytes(), s, tx)
			if err == nil && ok {
				err = commit(t, tx)
			}
			if err != nil {
				return fmt.Errorf("%s:%d: %w", name, lineNo, err)
			}
		}
		if err := sc.Err(); err != nil {
			if errors.Is(err, bufio.ErrTooLong) {
				err = fmt.Errorf("line exceeds %d bytes", spec.MaxLineBytes)
			}
			return fmt.Errorf("%s:%d: %w", name, lineNo, err)
		}
		return nil
	}
	if len(logs) == 0 {
		return process(os.Stdin, "stdin")
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
	return nil
}
