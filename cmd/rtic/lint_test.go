package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the lint golden files")

// golden compares got against testdata/name, rewriting the file under
// -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (run go test ./cmd/rtic -run TestLintGolden -update):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestLintGoldenText pins the text output of rtic lint over the seeded
// bad spec: the unsatisfiable window, the vacuous constraint and the
// over-threshold cost estimate must all be flagged, and the run must
// fail.
func TestLintGoldenText(t *testing.T) {
	var out bytes.Buffer
	err := runLint([]string{"-spec", "../../examples/specs/lintdemo.rtic"}, &out)
	if err != errLintFindings {
		t.Fatalf("err = %v, want errLintFindings", err)
	}
	s := out.String()
	for _, rule := range []string{"interval-unsatisfiable", "vacuous-constraint", "cost", "contradiction", "dead-branch"} {
		if !strings.Contains(s, "["+rule+"]") {
			t.Errorf("output missing rule %s:\n%s", rule, s)
		}
	}
	golden(t, "lint_lintdemo.txt", s)
}

// TestLintGoldenJSON pins the -json document shape.
func TestLintGoldenJSON(t *testing.T) {
	var out bytes.Buffer
	err := runLint([]string{"-json", "-spec", "../../examples/specs/lintdemo.rtic"}, &out)
	if err != errLintFindings {
		t.Fatalf("err = %v, want errLintFindings", err)
	}
	var doc struct {
		Constraints int `json:"constraints"`
		Errors      int `json:"errors"`
		Diagnostics []struct {
			Rule     string `json:"rule"`
			Severity string `json:"severity"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if doc.Constraints != 5 || doc.Errors == 0 || len(doc.Diagnostics) == 0 {
		t.Errorf("doc = %+v", doc)
	}
	// The golden stores the canonical relative path; normalize.
	s := strings.Replace(out.String(),
		`"spec": "../../examples/specs/lintdemo.rtic"`,
		`"spec": "examples/specs/lintdemo.rtic"`, 1)
	golden(t, "lint_lintdemo.json", s)
}

// TestLintGoldenClean: a clean example spec passes with empty findings.
func TestLintGoldenClean(t *testing.T) {
	for _, name := range []string{"hr", "tickets"} {
		var out bytes.Buffer
		if err := runLint([]string{"-spec", "../../examples/specs/" + name + ".rtic"}, &out); err != nil {
			t.Fatalf("%s: err = %v, want nil", name, err)
		}
		if !strings.Contains(out.String(), "0 errors, 0 warnings") {
			t.Errorf("%s:\n%s", name, out.String())
		}
	}
	var out bytes.Buffer
	if err := runLint([]string{"-spec", "../../examples/specs/hr.rtic"}, &out); err != nil {
		t.Fatal(err)
	}
	golden(t, "lint_hr.txt", out.String())
}

// TestLintStrictFlag: -strict fails on warnings.
func TestLintStrictFlag(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "warn.rtic", `
relation p/1
constraint w: p(x) or not p(x)
`)
	var out bytes.Buffer
	if err := runLint([]string{"-spec", spec}, &out); err != nil {
		t.Fatalf("warnings alone failed the default run: %v", err)
	}
	out.Reset()
	if err := runLint([]string{"-strict", "-spec", spec}, &out); err != errLintFindings {
		t.Fatalf("err = %v, want errLintFindings under -strict", err)
	}
}

// TestLintUsageErrorExitsTwo: a flag rtic lint does not define is a
// usage error, and it exits 2 as it does for rtic, rtic trace and rticd.
// The test runs itself again with the bad flag, since the flag set
// exits the process.
func TestLintUsageErrorExitsTwo(t *testing.T) {
	if os.Getenv("RTIC_LINT_BAD_FLAG") == "1" {
		runLint([]string{"-cost-threshold", "1", "-spec", "../../examples/specs/hr.rtic"}, io.Discard)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestLintUsageErrorExitsTwo$")
	cmd.Env = append(os.Environ(), "RTIC_LINT_BAD_FLAG=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: -cost-threshold") {
		t.Fatalf("rtic lint -cost-threshold: %v, want exit status 2 naming the flag:\n%s", err, out)
	}
}

// TestLintWrittenRelations: giving a log arms never-written-relation.
func TestLintWrittenRelations(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "s.rtic", `
relation hire/1
relation fire/1
constraint c: hire(e) -> not once[0,365] fire(e)
`)
	log := writeFile(t, dir, "log.txt", "@0 +hire(7)\n@5 +hire(8)\n")
	var out bytes.Buffer
	if err := runLint([]string{"-spec", spec, log}, &out); err != nil {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(out.String(), "[never-written-relation]") ||
		!strings.Contains(out.String(), "relation fire") {
		t.Errorf("never-written-relation not reported for fire:\n%s", out.String())
	}
	// Without a log the rule stays silent.
	out.Reset()
	if err := runLint([]string{"-spec", spec}, &out); err != nil {
		t.Fatalf("err = %v", err)
	}
	if strings.Contains(out.String(), "never-written-relation") {
		t.Errorf("rule fired without a log:\n%s", out.String())
	}
}
