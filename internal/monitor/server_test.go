package monitor

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"rtic/internal/obs"
)

func startServer(t *testing.T) (*Server, net.Addr) {
	t.Helper()
	m, _ := hrMonitor(t)
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
	return srv, l.Addr()
}

type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr net.Addr) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

func (c *client) send(t *testing.T, line string) {
	t.Helper()
	if _, err := c.conn.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
}

func (c *client) recv(t *testing.T) string {
	t.Helper()
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(line)
}

func TestServerProtocol(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	c.send(t, "@0 +fire(7)")
	if got := c.recv(t); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}

	c.send(t, "@100 -fire(7) +hire(7)")
	if got := c.recv(t); !strings.HasPrefix(got, "violation no_quick_rehire") {
		t.Fatalf("reply = %q", got)
	}
	if got := c.recv(t); got != "ok 1" {
		t.Fatalf("reply = %q", got)
	}

	c.send(t, "stats")
	if got := c.recv(t); !strings.HasPrefix(got, "stats nodes=1") {
		t.Fatalf("reply = %q", got)
	}
}

func TestServerErrors(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	c.send(t, "@5 +nosuch(1)")
	if got := c.recv(t); !strings.HasPrefix(got, "error") {
		t.Fatalf("reply = %q", got)
	}
	// Connection survives errors.
	c.send(t, "@5 +fire(1)")
	if got := c.recv(t); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}
	// Stale timestamp.
	c.send(t, "@5 +fire(2)")
	if got := c.recv(t); !strings.HasPrefix(got, "error") {
		t.Fatalf("reply = %q", got)
	}
	// Malformed line.
	c.send(t, "bogus")
	if got := c.recv(t); !strings.HasPrefix(got, "error") {
		t.Fatalf("reply = %q", got)
	}
}

func TestServerMultipleClients(t *testing.T) {
	_, addr := startServer(t)
	a := dial(t, addr)
	b := dial(t, addr)

	a.send(t, "@1 +fire(1)")
	if got := a.recv(t); got != "ok 0" {
		t.Fatalf("a reply = %q", got)
	}
	// Client b shares the same monitor and clock.
	b.send(t, "@2 +hire(1)")
	if got := b.recv(t); !strings.HasPrefix(got, "violation") {
		t.Fatalf("b reply = %q", got)
	}
	if got := b.recv(t); got != "ok 1" {
		t.Fatalf("b reply = %q", got)
	}
}

func TestServerQuitAndComments(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	c.send(t, "-- a comment, no reply expected")
	c.send(t, "@1 +fire(9)")
	if got := c.recv(t); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}
	c.send(t, "quit")
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("connection still open after quit")
	}
}

func TestServerRecentCommand(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	c.send(t, "@0 +fire(7)")
	if got := c.recv(t); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}
	c.send(t, "@10 +hire(7)")
	if got := c.recv(t); !strings.HasPrefix(got, "violation") {
		t.Fatalf("reply = %q", got)
	}
	if got := c.recv(t); got != "ok 1" {
		t.Fatalf("reply = %q", got)
	}
	c.send(t, "recent")
	if got := c.recv(t); !strings.HasPrefix(got, "violation no_quick_rehire") {
		t.Fatalf("recent reply = %q", got)
	}
	if got := c.recv(t); got != "ok 1" {
		t.Fatalf("recent count = %q", got)
	}
	c.send(t, "recent 0")
	if got := c.recv(t); !strings.HasPrefix(got, "error") {
		t.Fatalf("recent 0 reply = %q", got)
	}
	c.send(t, "recent xyz")
	if got := c.recv(t); !strings.HasPrefix(got, "error") {
		t.Fatalf("recent xyz reply = %q", got)
	}
}

// scriptConn feeds a session its whole input up front and records every
// Write the server issues, so a test can count socket writes per
// command without a socket's timing.
type scriptConn struct {
	net.Conn // unused methods panic: the session must not call them
	in       *strings.Reader
	writes   [][]byte
}

func (c *scriptConn) Read(p []byte) (int, error) { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}
func (c *scriptConn) Close() error { return nil }

// TestServerOneWritePerCommand: every command's reply — however many
// violation, diag or exposition lines it carries — reaches the
// connection as exactly one Write, and the bytes are the line protocol
// unchanged: each line newline-terminated, the terminator last.
func TestServerOneWritePerCommand(t *testing.T) {
	m := suspectMonitor(t) // p(x) -> prev[0,0] p(x): every inserted p violates, and lint has findings
	metrics := obs.NewMetrics(obs.NewRegistry())
	m.SetObserver(&obs.Observer{Metrics: metrics})
	srv := NewServer(m)

	conn := &scriptConn{in: strings.NewReader(strings.Join([]string{
		"@1 +p(1) +p(2) +p(3)", // k = 3 violations
		"-- comment: no reply, no write",
		"@2 -p(1) -p(2) -p(3)", // k = 0
		"recent",
		"recent 2",
		"lint",
		"stats",
		"@2 +p(9)", // stale timestamp: one error line
		"metrics",
	}, "\n") + "\n")}
	srv.handle(conn)

	recent := m.Recent(10)
	if len(recent) != 3 {
		t.Fatalf("fixture drifted: %d violations, want 3", len(recent))
	}
	var commit, recent2, lintReply bytes.Buffer
	for _, v := range recent {
		fmt.Fprintf(&commit, "violation %s\n", v.String())
	}
	commit.WriteString("ok 3\n")
	for _, v := range recent[1:] {
		fmt.Fprintf(&recent2, "violation %s\n", v.String())
	}
	recent2.WriteString("ok 2\n")
	for _, d := range m.Diagnostics() {
		fmt.Fprintf(&lintReply, "diag %s %s %s %s\n", d.Severity, d.Rule, d.Constraint, d.Message)
	}
	fmt.Fprintf(&lintReply, "ok %d\n", len(m.Diagnostics()))
	st := m.Stats()

	want := []string{
		commit.String(),
		"ok 0\n",
		commit.String(), // recent: the same three violations, oldest first
		recent2.String(),
		lintReply.String(),
		fmt.Sprintf("stats nodes=%d entries=%d timestamps=%d bytes=%d\n", st.Nodes, st.Entries, st.Timestamps, st.Bytes),
		"error core: non-increasing timestamp 2 after 2\n",
	}
	if len(conn.writes) != len(want)+1 {
		t.Fatalf("%d writes for %d replying commands", len(conn.writes), len(want)+1)
	}
	for i, w := range want {
		if got := string(conn.writes[i]); got != w {
			t.Errorf("write %d = %q, want %q", i, got, w)
		}
	}
	// The exposition is one write too: the registry's text, then # EOF.
	// Only the active-connections sample can differ from a scrape taken
	// now (the session has ended), so compare around it.
	expo := string(conn.writes[len(want)])
	var now bytes.Buffer
	if err := metrics.Registry().WritePrometheus(&now); err != nil {
		t.Fatal(err)
	}
	mask := func(s string) string {
		return strings.Replace(s, "rtic_monitor_connections_active 1\n", "rtic_monitor_connections_active 0\n", 1)
	}
	if mask(expo) != now.String()+"# EOF\n" {
		t.Errorf("metrics reply (%d bytes) is not the registry exposition (%d bytes) followed by # EOF", len(expo), now.Len())
	}
}
