package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtic/internal/spec"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const hrSpec = `
relation hire/1
relation fire/1
constraint no_quick_rehire: hire(e) -> not once[0,365] fire(e)
`

func TestRunDetectsViolations(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "hr.rtic", hrSpec)
	log := writeFile(t, dir, "log.txt", "@0 +fire(7)\n@100 -fire(7) +hire(7)\n@500 +hire(8)\n")

	var out bytes.Buffer
	err := run(options{spec: spec, logs: []string{log}}, &out)
	if err != errViolations {
		t.Fatalf("err = %v, want errViolations", err)
	}
	s := out.String()
	if !strings.Contains(s, "no_quick_rehire violated") || !strings.Contains(s, "e=7") {
		t.Fatalf("output missing violation:\n%s", s)
	}
	if !strings.Contains(s, "checked 3 transactions: 1 violations") {
		t.Fatalf("summary wrong:\n%s", s)
	}
}

func TestRunCleanLog(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "hr.rtic", hrSpec)
	log := writeFile(t, dir, "log.txt", "@0 +fire(7)\n@400 -fire(7)\n")
	var out bytes.Buffer
	if err := run(options{spec: spec, logs: []string{log}}, &out); err != nil {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(out.String(), "0 violations") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunQuiet(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "hr.rtic", hrSpec)
	log := writeFile(t, dir, "log.txt", "@0 +fire(7)\n@1 +hire(7)\n")
	var out bytes.Buffer
	err := run(options{spec: spec, quiet: true, logs: []string{log}}, &out)
	if err != errViolations {
		t.Fatalf("err = %v", err)
	}
	if strings.Contains(out.String(), "violated at state") {
		t.Fatalf("quiet mode printed violations:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "hr.rtic", hrSpec)
	badLog := writeFile(t, dir, "bad.txt", "@1 +nosuch(1)\n")
	var out bytes.Buffer

	if err := run(options{}, &out); err == nil {
		t.Fatal("missing -spec accepted")
	}
	if err := run(options{spec: filepath.Join(dir, "nope.rtic")}, &out); err == nil {
		t.Fatal("missing spec file accepted")
	}
	if err := run(options{spec: spec, logs: []string{badLog}}, &out); err == nil {
		t.Fatal("log referencing unknown relation accepted")
	}
	if err := run(options{spec: spec, logs: []string{filepath.Join(dir, "nope.txt")}}, &out); err == nil {
		t.Fatal("missing log file accepted")
	}

	badSpec := writeFile(t, dir, "bad.rtic", "relation hire/1\nconstraint c: not hire(e)\n")
	goodLog := writeFile(t, dir, "ok.txt", "@1 +hire(1)\n")
	// Denial of "not hire(e)" is hire(e): actually safe. Use an unsafe one.
	_ = badSpec
	unsafeSpec := writeFile(t, dir, "unsafe.rtic", "relation hire/1\nconstraint c: hire(e)\n")
	if err := run(options{spec: unsafeSpec, logs: []string{goodLog}}, &out); err == nil {
		t.Fatal("unsafe constraint accepted")
	}
}

func TestRunExplain(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "hr.rtic", hrSpec)
	log := writeFile(t, dir, "log.txt", "@0 +fire(7)\n@100 -fire(7) +hire(7)\n")
	var out bytes.Buffer
	err := run(options{spec: spec, explain: true, logs: []string{log}}, &out)
	if err != errViolations {
		t.Fatalf("err = %v", err)
	}
	s := out.String()
	for _, frag := range []string{"required: once[0,365] fire(e)", "witnessed at t=[0]"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("explain output missing %q:\n%s", frag, s)
		}
	}
}

// TestUnsafeQuantifierRefusedEverywhere: a quantified variable nothing
// inside its quantifier enumerates is outside the language — not outside
// one engine. rtic refuses the spec with a positioned reason (exit
// status 1: an error, not a violation), and rtic lint reports that
// reason as its [unsafe] finding at the quantifier. (TestInstallAgreement
// in internal/difftest holds every engine to the same refusal.)
func TestUnsafeQuantifierRefusedEverywhere(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "q.rtic", "relation p/1\nrelation r/2\nconstraint c: p(x) -> forall y: r(x, y)\n")
	log := writeFile(t, dir, "log.txt", "@1 +p(1)\n")
	const reason = `mtl: unsafe formula "exists y: not r(x, y)" (at position 9): ` +
		`quantified variables [y] must be bound by an enumerable conjunct inside their quantifier`

	var out bytes.Buffer
	err := run(options{spec: spec, logs: []string{log}}, &out)
	if err == nil || err == errViolations {
		t.Fatalf("err = %v, want the spec refused (exit status 1)", err)
	}
	if want := "check: constraint c: denial is not range-restricted: " + reason; err.Error() != want {
		t.Errorf("\n got %s\nwant %s", err, want)
	}
	if out.Len() != 0 {
		t.Errorf("checked a log against a refused spec:\n%s", out.String())
	}

	out.Reset()
	if err := runLint([]string{"-spec", spec}, &out); err != errLintFindings {
		t.Fatalf("lint: err = %v, want errLintFindings", err)
	}
	if s := out.String(); !strings.Contains(s, "c:3:9: error: [unsafe] ") || !strings.Contains(s, reason) {
		t.Errorf("lint does not report the engines' reason at the quantifier:\n%s", s)
	}
}

// capLine returns a transaction line of exactly n bytes, newline
// included: hire insertions padded with blanks to the length.
func capLine(n int) string {
	var b strings.Builder
	b.WriteString("@1")
	for i := 0; b.Len()+len(" +hire()")+8 < n-1; i++ {
		fmt.Fprintf(&b, " +hire(%d)", i)
	}
	b.WriteString(strings.Repeat(" ", n-1-b.Len()))
	b.WriteByte('\n')
	return b.String()
}

// TestReplayLineCap: rtic and rtic trace read the lines rticd accepts —
// up to spec.MaxLineBytes, newline included — and refuse a longer one
// with its file and line, as every other replay error.
func TestReplayLineCap(t *testing.T) {
	dir := t.TempDir()
	specPath := writeFile(t, dir, "hr.rtic", hrSpec)
	under := writeFile(t, dir, "under.log", capLine(spec.MaxLineBytes)+"@2 -hire(0)\n")
	var out bytes.Buffer
	if err := run(options{spec: specPath, logs: []string{under}}, &out); err != nil ||
		!strings.Contains(out.String(), "checked 2 transactions: 0 violations") {
		t.Fatalf("line of %d bytes: err = %v, output:\n%s", spec.MaxLineBytes, err, out.String())
	}
	out.Reset()
	if err := runTrace([]string{"-spec", specPath, "-out", filepath.Join(dir, "trace.json"), under}, &out); err != nil ||
		!strings.Contains(out.String(), "replayed 2 transactions") {
		t.Fatalf("trace of a line of %d bytes: err = %v, output:\n%s", spec.MaxLineBytes, err, out.String())
	}

	over := writeFile(t, dir, "over.log", "@0 +fire(1)\n"+capLine(spec.MaxLineBytes+1))
	want := fmt.Sprintf("%s:2: line exceeds %d bytes", over, spec.MaxLineBytes)
	if err := run(options{spec: specPath, logs: []string{over}}, &out); err == nil || err.Error() != want {
		t.Fatalf("line of %d bytes: err = %v, want %q", spec.MaxLineBytes+1, err, want)
	}
	if err := runTrace([]string{"-spec", specPath, "-out", filepath.Join(dir, "trace.json"), over}, &out); err == nil || err.Error() != want {
		t.Fatalf("trace of a line of %d bytes: err = %v, want %q", spec.MaxLineBytes+1, err, want)
	}
}
