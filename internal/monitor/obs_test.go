package monitor

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/obs"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/workload"

	rschema "rtic/internal/schema"
)

func observedMonitor(t *testing.T) (*Monitor, *obs.Metrics) {
	t.Helper()
	s := rschema.NewBuilder().Relation("hire", 1).Relation("fire", 1).MustBuild()
	m, err := New(s, []workload.ConstraintSpec{
		{Name: "no_quick_rehire", Source: "hire(e) -> not once[0,365] fire(e)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewMetrics(obs.NewRegistry())
	m.SetObserver(&obs.Observer{Metrics: metrics})
	return m, metrics
}

func TestMonitorCountersAdvance(t *testing.T) {
	m, metrics := observedMonitor(t)
	if _, err := m.Apply(0, ins("fire", 7)); err != nil {
		t.Fatal(err)
	}
	vs, err := m.Apply(100, ins("hire", 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %d", len(vs))
	}
	if got := metrics.Commits.Value(); got != 2 {
		t.Errorf("commits = %d, want 2", got)
	}
	if got := metrics.Violations.With("no_quick_rehire").Value(); got != 1 {
		t.Errorf("violations = %d, want 1", got)
	}
	if got := metrics.CommitSeconds.Count(); got != 2 {
		t.Errorf("latency observations = %d, want 2", got)
	}
	// Stale timestamp: counted as an error, not a commit.
	if _, err := m.Apply(50, ins("fire", 1)); err == nil {
		t.Fatal("stale timestamp accepted")
	}
	if got := metrics.CommitErrors.Value(); got != 1 {
		t.Errorf("commit errors = %d, want 1", got)
	}
	// Aux gauges mirror Stats().
	st := m.Stats()
	if got := metrics.AuxNodes.Value(); got != int64(st.Nodes) {
		t.Errorf("aux nodes gauge = %d, Stats says %d", got, st.Nodes)
	}
	if got := metrics.AuxBytes.Value(); got != int64(st.Bytes) {
		t.Errorf("aux bytes gauge = %d, Stats says %d", got, st.Bytes)
	}
}

// TestAuxGaugesExactEveryStep replays the five workload traces and one
// CDC history through an unsharded and a two-shard monitor and holds
// the exposed rtic_aux_* gauges — kept from running accounts, not from a
// walk — to a fresh full-walk Stats() after every commit.
func TestAuxGaugesExactEveryStep(t *testing.T) {
	cdc, _ := cdcgen.Generate(cdcgen.Config{Steps: 150, Seed: 31, BurstLen: 6, BurstEvery: 8, MaxReorder: 2, Sensors: 12, ViolationRate: 0.15})
	traces := map[string]workload.History{
		"uniform": workload.Uniform(workload.UniformConfig{Steps: 150, Seed: 7, OpsPerTx: 2, Domain: 8}),
		"tickets": workload.Tickets(workload.TicketsConfig{Steps: 150, Seed: 8, ViolationRate: 0.05}),
		"hr":      workload.HR(workload.HRConfig{Steps: 150, Seed: 9, ViolationRate: 0.05}),
		"library": workload.Library(workload.LibraryConfig{Steps: 150, Seed: 10, ViolationRate: 0.05}),
		"alarms":  workload.Alarms(workload.AlarmsConfig{Steps: 150, Seed: 11, ViolationRate: 0.05}),
		"cdc":     cdc,
	}
	for name, h := range traces {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				m, err := New(h.Schema, h.Constraints, WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				metrics := obs.NewMetrics(obs.NewRegistry())
				m.SetObserver(&obs.Observer{Metrics: metrics})
				for i, s := range h.Steps {
					if _, err := m.Apply(s.Time, s.Tx); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					st := m.Stats()
					got := [4]int64{metrics.AuxNodes.Value(), metrics.AuxEntries.Value(), metrics.AuxTimestamps.Value(), metrics.AuxBytes.Value()}
					want := [4]int64{int64(st.Nodes), int64(st.Entries), int64(st.Timestamps), int64(st.Bytes)}
					if got != want {
						t.Fatalf("step %d: gauges nodes/entries/timestamps/bytes = %v, full walk = %v", i, got, want)
					}
				}
			})
		}
	}
}

func TestMonitorDroppedViolationsCounter(t *testing.T) {
	m, metrics := observedMonitor(t)
	ch, cancel := m.Subscribe(1)
	defer cancel()
	fireBoth := storage.NewTransaction().
		Insert("fire", tuple.Ints(7)).
		Insert("fire", tuple.Ints(8))
	if _, err := m.Apply(0, fireBoth); err != nil {
		t.Fatal(err)
	}
	// Two violating commits against an unread buffer of one: the first
	// violation fills it, the second drops.
	if _, err := m.Apply(10, ins("hire", 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(20, ins("hire", 8)); err != nil {
		t.Fatal(err)
	}
	_ = ch
	if m.Dropped() == 0 {
		t.Fatal("expected drops with a full subscriber buffer")
	}
	if got := metrics.DroppedViolations.Value(); got != uint64(m.Dropped()) {
		t.Errorf("dropped counter = %d, Dropped() = %d", got, m.Dropped())
	}
}

func startObservedServer(t *testing.T) (net.Addr, *obs.Metrics) {
	t.Helper()
	m, metrics := observedMonitor(t)
	srv := NewServer(m)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck — returns when the listener closes
	t.Cleanup(func() {
		l.Close()
		srv.Close()
	})
	return l.Addr(), metrics
}

func TestServerMetricsCommand(t *testing.T) {
	addr, _ := startObservedServer(t)
	c := dial(t, addr)
	c.send(t, "@0 +fire(7)")
	if got := c.recv(t); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}
	c.send(t, "@100 +hire(7)")
	if got := c.recv(t); !strings.HasPrefix(got, "violation") {
		t.Fatalf("reply = %q", got)
	}
	if got := c.recv(t); got != "ok 1" {
		t.Fatalf("reply = %q", got)
	}

	c.send(t, "metrics")
	var lines []string
	for {
		line := c.recv(t)
		if line == "# EOF" {
			break
		}
		lines = append(lines, line)
	}
	body := strings.Join(lines, "\n")
	for _, want := range []string{
		"rtic_commits_total 2",
		`rtic_violations_total{constraint="no_quick_rehire"} 1`,
		"rtic_commit_duration_seconds_count 2",
		"rtic_monitor_connections_active 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics reply missing %q", want)
		}
	}

	// The connection still speaks the protocol after a scrape.
	c.send(t, "stats")
	if got := c.recv(t); !strings.HasPrefix(got, "stats nodes=") {
		t.Fatalf("stats after metrics = %q", got)
	}
}

func TestServerMetricsCommandWithoutObserver(t *testing.T) {
	_, addr := startServer(t) // plain server, no observer
	c := dial(t, addr)
	c.send(t, "metrics")
	if got := c.recv(t); !strings.HasPrefix(got, "error metrics not enabled") {
		t.Fatalf("reply = %q", got)
	}
}

func TestServerConnectionCounters(t *testing.T) {
	addr, metrics := startObservedServer(t)
	a := dial(t, addr)
	a.send(t, "@1 +fire(1)")
	if got := a.recv(t); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}
	if got := metrics.Connections.Value(); got != 1 {
		t.Errorf("connections = %d, want 1", got)
	}
	if got := metrics.ConnectionsActive.Value(); got != 1 {
		t.Errorf("active = %d, want 1", got)
	}
	a.send(t, "@bogus")
	if got := a.recv(t); !strings.HasPrefix(got, "error") {
		t.Fatalf("reply = %q", got)
	}
	if got := metrics.ProtocolErrors.Value(); got != 1 {
		t.Errorf("protocol errors = %d, want 1", got)
	}
}

func TestServerLongLine(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	// A legitimate transaction far beyond the old 64 KiB scanner limit:
	// ~50k tuples, roughly 600 KiB on one line.
	var b strings.Builder
	b.WriteString("@1")
	for i := 0; i < 50_000; i++ {
		fmt.Fprintf(&b, " +fire(%d)", i)
	}
	c.send(t, b.String())
	if got := c.recv(t); got != "ok 0" {
		t.Fatalf("long line reply = %q", got)
	}

	// A line over the 1 MiB cap earns an error reply instead of a
	// silent disconnect.
	b.Reset()
	b.WriteString("@2")
	for i := 0; i < 200_000; i++ {
		fmt.Fprintf(&b, " +fire(%d)", i)
	}
	// The server may reply and hang up before the client has finished
	// writing the line, so a write error here is not a failure.
	c.conn.Write([]byte(b.String() + "\n"))
	if got := c.recv(t); !strings.HasPrefix(got, "error line exceeds") {
		t.Fatalf("oversized line reply = %q", got)
	}
	// The connection closes after a scan error.
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("connection still open after oversized line")
	}
}
