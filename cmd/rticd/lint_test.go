package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// suspectSpec draws three findings: an unsatisfiable window, a vacuous
// constraint and an unused relation.
const suspectSpec = `
relation p/1
relation ghost/1
constraint dead_window: p(x) -> prev[0,0] p(x)
constraint tautology: p(x) or not p(x)
`

// TestDaemonStartupLint: a suspicious (but installable) spec starts
// fine, and the findings surface through every channel — the lint
// metrics, the /healthz lint section, and the line protocol's "lint"
// command.
func TestDaemonStartupLint(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, "suspect.rtic", suspectSpec)
	d, err := start(options{
		specPath:    spec,
		listen:      "127.0.0.1:0",
		metricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.shutdown()

	base := "http://" + d.hl.Addr().String()
	body := httpGet(t, base+"/metrics")
	for _, want := range []string{
		"rtic_lint_warnings_total 2", // the error + the warning
		`rtic_lint_findings_total{rule="interval-unsatisfiable"} 1`,
		`rtic_lint_findings_total{rule="vacuous-constraint"} 1`,
		`rtic_lint_findings_total{rule="unused-relation"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	health := httpGet(t, base+"/healthz")
	for _, want := range []string{`"lint":`, `"errors":1`, `"warnings":1`, `"interval-unsatisfiable":1`} {
		if !strings.Contains(health, want) {
			t.Errorf("/healthz missing %q: %s", want, health)
		}
	}

	// The line protocol serves the findings too.
	conn, err := net.Dial("tcp", d.l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	fmt.Fprintln(conn, "lint")
	var diags, count int
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "diag ") {
			diags++
			continue
		}
		if _, err := fmt.Sscanf(line, "ok %d", &count); err != nil {
			t.Fatalf("unexpected reply %q", line)
		}
		break
	}
	if diags == 0 || count != diags {
		t.Fatalf("lint command returned %d diag lines, count %d", diags, count)
	}
}

// TestDaemonCleanSpecLint: a clean spec reports zero findings on
// /healthz and leaves the warning counter at zero.
func TestDaemonCleanSpecLint(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, "hr.rtic",
		"relation hire/1\nrelation fire/1\nconstraint no_quick_rehire: hire(e) -> not once[0,365] fire(e)\n")
	d, err := start(options{
		specPath:    spec,
		listen:      "127.0.0.1:0",
		metricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.shutdown()

	base := "http://" + d.hl.Addr().String()
	if body := httpGet(t, base+"/metrics"); !strings.Contains(body, "rtic_lint_warnings_total 0") {
		t.Errorf("/metrics warning counter not zero:\n%s", body)
	}
	if health := httpGet(t, base+"/healthz"); !strings.Contains(health, `"findings":0`) {
		t.Errorf("/healthz lint section not clean: %s", health)
	}
}

// TestDaemonRestartedLint: a daemon restarted from the checkpoint its
// shutdown wrote serves the spec's findings as the fresh start did — on
// the line protocol, in /healthz and in the lint counters — from the one
// lint of each start.
func TestDaemonRestartedLint(t *testing.T) {
	dir := t.TempDir()
	opts := options{
		specPath:    writeSpec(t, dir, "suspect.rtic", suspectSpec),
		listen:      "127.0.0.1:0",
		metricsAddr: "127.0.0.1:0",
		snapPath:    filepath.Join(dir, "state.snap"),
	}
	var seen [2]string
	for run := range seen {
		d, err := start(opts)
		if err != nil {
			t.Fatal(err)
		}
		reply := dialLine(t, d).commit(t, "lint")
		base := "http://" + d.hl.Addr().String()
		var health struct{ Lint map[string]any }
		if err := json.Unmarshal([]byte(httpGet(t, base+"/healthz")), &health); err != nil {
			t.Fatal(err)
		}
		var counters []string
		for _, line := range strings.Split(httpGet(t, base+"/metrics"), "\n") {
			if strings.HasPrefix(line, "rtic_lint_") {
				counters = append(counters, line)
			}
		}
		seen[run] = fmt.Sprintf("lint replies %q\n/healthz lint %v\n%s", reply, health.Lint, strings.Join(counters, "\n"))
		if len(reply) != 4 || reply[3] != "ok 3" {
			t.Errorf("run %d: lint replies %q, want three diag lines", run, reply)
		}
		if err := d.shutdown(); err != nil {
			t.Fatal(err)
		}
	}
	if seen[0] != seen[1] {
		t.Fatalf("fresh start:\n%s\nrestarted from its checkpoint:\n%s", seen[0], seen[1])
	}
}
