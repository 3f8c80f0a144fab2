package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeSpec(t *testing.T, dir, name, contents string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStartArgValidation(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, "s.rtic", "relation p/1\nconstraint c: p(x) -> not once p(x)\n")

	cases := []struct {
		name string
		opts options
		want string // substring of the error, "" for any
	}{
		{"missing spec", options{listen: "127.0.0.1:0"}, "-spec"},
		{"missing spec file", options{specPath: filepath.Join(dir, "nope.rtic"), listen: "127.0.0.1:0"}, ""},
		{"bad listen address", options{specPath: spec, listen: "500.500.500.500:99999"}, ""},
		{"bad metrics address", options{specPath: spec, listen: "127.0.0.1:0", metricsAddr: "500.500.500.500:99999"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := start(tc.opts)
			if err == nil {
				d.shutdown()
				t.Fatal("start accepted bad options")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}

	// Bad spec contents fail fast.
	bad := writeSpec(t, dir, "bad.rtic", "bogus\n")
	if _, err := start(options{specPath: bad, listen: "127.0.0.1:0"}); err == nil {
		t.Fatal("bad spec accepted")
	}
	// Unsafe constraint fails fast.
	unsafe := writeSpec(t, dir, "unsafe.rtic", "relation p/1\nconstraint c: p(x)\n")
	if _, err := start(options{specPath: unsafe, listen: "127.0.0.1:0"}); err == nil {
		t.Fatal("unsafe constraint accepted")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, "hr.rtic",
		"relation hire/1\nrelation fire/1\nconstraint no_quick_rehire: hire(e) -> not once[0,365] fire(e)\n")
	snap := filepath.Join(dir, "state.snap")

	d, err := start(options{
		specPath:    spec,
		listen:      "127.0.0.1:0",
		snapPath:    snap,
		metricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}

	// Drive the line protocol: one clean commit, one violating commit.
	conn, err := net.Dial("tcp", d.l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	send := func(line string) {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() string {
		t.Helper()
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(line)
	}
	send("@0 +fire(7)")
	if got := recv(); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}
	send("@100 -fire(7) +hire(7)")
	if got := recv(); !strings.HasPrefix(got, "violation no_quick_rehire") {
		t.Fatalf("reply = %q", got)
	}
	if got := recv(); got != "ok 1" {
		t.Fatalf("reply = %q", got)
	}

	// /metrics serves the acceptance-criteria set.
	base := "http://" + d.hl.Addr().String()
	body := httpGet(t, base+"/metrics")
	for _, want := range []string{
		"rtic_commits_total 2",
		`rtic_violations_total{constraint="no_quick_rehire"} 1`,
		"rtic_commit_duration_seconds_count 2",
		"rtic_aux_nodes 1",
		"rtic_aux_entries",
		"rtic_aux_timestamps",
		"rtic_aux_bytes",
		"rtic_monitor_connections_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	// Aux gauges agree with the stats reply.
	send("stats")
	stats := recv()
	var nodes, entries, timestamps, bytes int
	if _, err := fmt.Sscanf(stats, "stats nodes=%d entries=%d timestamps=%d bytes=%d",
		&nodes, &entries, &timestamps, &bytes); err != nil {
		t.Fatalf("stats reply %q: %v", stats, err)
	}
	for metric, want := range map[string]int{
		"rtic_aux_nodes":      nodes,
		"rtic_aux_entries":    entries,
		"rtic_aux_timestamps": timestamps,
		"rtic_aux_bytes":      bytes,
	} {
		if !strings.Contains(body, fmt.Sprintf("%s %d", metric, want)) {
			t.Errorf("/metrics %s does not match stats value %d", metric, want)
		}
	}

	// /healthz reports the committed states.
	health := httpGet(t, base+"/healthz")
	for _, want := range []string{`"status":"ok"`, `"states":2`, `"now":100`} {
		if !strings.Contains(health, want) {
			t.Errorf("/healthz missing %q: %s", want, health)
		}
	}

	// The line protocol scrapes without HTTP too.
	send("metrics")
	sawCommits := false
	for {
		line := recv()
		if line == "# EOF" {
			break
		}
		if strings.HasPrefix(line, "rtic_commits_total ") {
			sawCommits = true
		}
	}
	if !sawCommits {
		t.Error("line-protocol metrics reply missing rtic_commits_total")
	}

	// Shutdown writes the checkpoint; a daemon started over it continues.
	conn.Close()
	if err := d.shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	d2, err := start(options{specPath: spec, listen: "127.0.0.1:0", snapPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.shutdown()
	if got := d2.m.Len(); got != 2 {
		t.Fatalf("restored states = %d, want 2", got)
	}
}
