package main

// The lint subcommand:
//
//	rtic lint -spec constraints.rtic [-json] [-strict] [log...]
//
// runs the static analyzer over every constraint of the spec and
// prints the findings, one per line (or as one JSON document with
// -json). When transaction logs are given they are scanned — not
// replayed — for the set of relations the workload actually writes,
// which arms the never-written-relation rule.
//
// Exit code 2 when any Error-severity finding fired (any
// Warning-or-worse with -strict), 1 on operational errors, 0 otherwise.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"rtic/internal/lint"
	"rtic/internal/storage"
)

var errLintFindings = fmt.Errorf("lint findings at failing severity")

func runLint(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rtic lint", flag.ContinueOnError)
	specPath := fs.String("spec", "", "spec file with relations and constraints (required)")
	asJSON := fs.Bool("json", false, "emit findings as one JSON document")
	strict := fs.Bool("strict", false, "fail (exit 2) on warnings, not just errors")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return err
	}

	var opts lint.Options
	if logs := fs.Args(); len(logs) > 0 {
		written, err := writtenRelations(logs)
		if err != nil {
			return err
		}
		opts.Written = written
	}

	diags := lint.Constraints(sp.Constraints, sp.Schema, opts)
	counts := map[lint.Severity]int{}
	for _, d := range diags {
		counts[d.Severity]++
	}

	if *asJSON {
		doc := struct {
			Spec        string            `json:"spec"`
			Constraints int               `json:"constraints"`
			Errors      int               `json:"errors"`
			Warnings    int               `json:"warnings"`
			Infos       int               `json:"infos"`
			Diagnostics []lint.Diagnostic `json:"diagnostics"`
		}{
			Spec:        *specPath,
			Constraints: len(sp.Constraints),
			Errors:      counts[lint.Error],
			Warnings:    counts[lint.Warning],
			Infos:       counts[lint.Info],
			Diagnostics: diags,
		}
		if doc.Diagnostics == nil {
			doc.Diagnostics = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d.String())
		}
		fmt.Fprintf(out, "linted %d constraints: %d errors, %d warnings, %d infos\n",
			len(sp.Constraints), counts[lint.Error], counts[lint.Warning], counts[lint.Info])
	}

	failAt := lint.Error
	if *strict {
		failAt = lint.Warning
	}
	if lint.MaxSeverity(diags) >= failAt {
		return errLintFindings
	}
	return nil
}

// writtenRelations scans transaction logs for the relations the
// workload touches (insertions and deletions both count as writes).
func writtenRelations(logs []string) (map[string]bool, error) {
	written := make(map[string]bool)
	err := replay(logs, func(_ uint64, tx *storage.Transaction) error {
		for _, op := range tx.Ops() {
			written[op.Rel] = true
		}
		return nil
	})
	return written, err
}
