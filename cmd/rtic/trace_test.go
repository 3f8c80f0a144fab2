package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTraceFixtures(t *testing.T) (specPath, logPath string) {
	t.Helper()
	dir := t.TempDir()
	specPath = filepath.Join(dir, "s.rtic")
	if err := os.WriteFile(specPath, []byte("relation p/1\nconstraint c: p(x) -> not once p(x)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	for i := 1; i <= 20; i++ {
		fmt.Fprintf(&log, "@%d +p(%d)\n", i, i%5)
	}
	logPath = filepath.Join(dir, "log.txt")
	if err := os.WriteFile(logPath, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return specPath, logPath
}

func TestRunTrace(t *testing.T) {
	specPath, logPath := writeTraceFixtures(t)
	dir := filepath.Dir(specPath)
	outPath := filepath.Join(dir, "trace.json")
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")

	var out bytes.Buffer
	err := runTrace([]string{
		"-spec", specPath, "-out", outPath,
		"-cpuprofile", cpuPath, "-memprofile", memPath,
		logPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"replayed 20 transactions", "20 commit spans", "phase.check"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	commits := 0
	for _, ev := range trace.TraceEvents {
		if ev.Name == "commit" {
			commits++
		}
	}
	if commits != 20 {
		t.Errorf("trace has %d commit events, want 20", commits)
	}
	for _, p := range []string{cpuPath, memPath} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", p, err)
		}
	}
}

func TestRunTraceRequiresSpec(t *testing.T) {
	if err := runTrace(nil, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "-spec") {
		t.Fatalf("err = %v, want -spec requirement", err)
	}
}
