package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// buildDir holds everything a run writes: the daemon binary and the
// per-run private directories. It is relative to the working directory
// (the checkout root) and listed in .gitignore.
const buildDir = ".bench_build"

// buildDaemon compiles ./cmd/rticd into buildDir and returns its path.
// The go tool leaves an up-to-date binary alone, so only the first run
// in a checkout pays for the build.
func buildDaemon(ctx context.Context) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "rticd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/rticd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building rticd: %w", err)
	}
	return bin, nil
}

// daemon is one running rticd subprocess.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // line-protocol address
	health  string // /healthz URL
	drained chan struct{}
}

// startDaemon spawns the binary and waits for its "listening" line. The
// context kills the child when the run is cancelled or times out.
func startDaemon(ctx context.Context, bin string, args []string) (*daemon, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r := bufio.NewReader(out)
	for d.addr == "" {
		line, err := r.ReadString('\n')
		if err != nil {
			d.kill()
			return nil, fmt.Errorf("rticd exited before listening: %w", err)
		}
		d.parseStartupLine(line)
	}
	go func() {
		// Keep the pipe empty so a chatty daemon never blocks on stdout.
		_, _ = io.Copy(io.Discard, r) // the pipe closing is the expected end
		close(d.drained)
	}()
	return d, nil
}

// parseStartupLine picks the two addresses out of the daemon's startup
// log: "rticd metrics on http://ADDR/metrics" and "rticd listening on
// ADDR (N constraints)".
func (d *daemon) parseStartupLine(line string) {
	if rest, ok := strings.CutPrefix(line, "rticd metrics on "); ok {
		d.health = strings.TrimSuffix(strings.TrimSpace(rest), "/metrics") + "/healthz"
	}
	if rest, ok := strings.CutPrefix(line, "rticd listening on "); ok {
		d.addr, _, _ = strings.Cut(rest, " ")
	}
}

// kill sends SIGKILL — the crash the durability layer must survive — and
// reaps the child.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	if d.addr != "" {
		<-d.drained
	}
	_ = d.cmd.Wait() // a killed child always reports an error
}

// health is the part of /healthz the harness reads.
type health struct {
	States     int `json:"states"`
	Durability struct {
		LastCheckpointAge float64 `json:"last_checkpoint_age_seconds"`
	} `json:"durability"`
}

func (d *daemon) healthz(ctx context.Context) (health, error) {
	var h health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.health, nil)
	if err != nil {
		return h, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("healthz: %w", err)
	}
	return h, nil
}

// awaitCheckpoint returns right after the idle daemon's next background
// checkpoint: the moment its checkpoint age drops instead of growing.
func (d *daemon) awaitCheckpoint(ctx context.Context) error {
	prev := -1.0
	for {
		h, err := d.healthz(ctx)
		if err != nil {
			return err
		}
		if age := h.Durability.LastCheckpointAge; age >= 0 && age < prev {
			return nil
		} else {
			prev = age
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// cpuTime returns the time the daemon's threads have spent on a CPU,
// summed from /proc/<pid>/task/*/schedstat, which the scheduler keeps to
// the nanosecond. The utime and stime of /proc/<pid>/stat will not do:
// this kernel fills them by sampling at its 4ms tick, and a daemon that
// wakes on the generator's 2ms schedule is in step with the sampler, so
// the same work reads as anything from half to twice its cost.
func (d *daemon) cpuTime() (time.Duration, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		ns, err := parseSchedstat(string(b))
		if err != nil {
			return 0, err
		}
		total += ns
	}
	if total == 0 {
		return 0, fmt.Errorf("no schedstat readable for pid %d", d.cmd.Process.Pid)
	}
	return total, nil
}

// parseSchedstat reads the first field of a schedstat line: nanoseconds
// spent running on a CPU.
func parseSchedstat(s string) (time.Duration, error) {
	first, _, _ := strings.Cut(strings.TrimSpace(s), " ")
	ns, err := strconv.ParseInt(first, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat: bad run time in %q", s)
	}
	return time.Duration(ns), nil
}

// peakRSS returns the daemon's resident-set high-water mark in bytes.
func (d *daemon) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// parseVmHWM reads the "VmHWM:   1234 kB" line of /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("proc status: bad VmHWM %q", line)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// dirBytes sums the sizes of the regular files in dir (the journals and
// checkpoints a killed daemon left behind).
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
