package monitor

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"rtic/internal/obs"
)

// serveOn serves m on l, with an observer attached, and returns the
// server and its metrics.
func serveOn(t *testing.T, m *Monitor, l net.Listener) (*Server, *obs.Metrics) {
	t.Helper()
	metrics := obs.NewMetrics(obs.NewRegistry())
	m.SetObserver(&obs.Observer{Metrics: metrics})
	srv := NewServer(m)
	go srv.Serve(l) //nolint:errcheck — returns when the listener closes
	t.Cleanup(func() {
		l.Close()
		srv.Close()
	})
	return srv, metrics
}

// listenTCP listens on a loopback port.
func listenTCP(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// waitSessionsDone waits for every session to have run its teardown.
func waitSessionsDone(t *testing.T, metrics *obs.Metrics) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for metrics.ConnectionsActive.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still running", metrics.ConnectionsActive.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerHalfCloseDeliversHeldReplies: a batch sent in one write and
// followed by a half-close is answered in full — the replies held for
// the read that meets EOF leave on the way out.
func TestServerHalfCloseDeliversHeldReplies(t *testing.T) {
	m, _ := hrMonitor(t)
	l := listenTCP(t)
	serveOn(t, m, l)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte("@1 +fire(7)\n@2 +fire(8)\n@3 -fire(7) +hire(7)\nstats\n")); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	out, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	vs := m.Recent(1)
	st := m.Stats()
	want := "ok 0\nok 0\nviolation " + vs[0].String() + "\nok 1\n" +
		fmt.Sprintf("stats nodes=%d entries=%d timestamps=%d bytes=%d\n", st.Nodes, st.Entries, st.Timestamps, st.Bytes)
	if string(out) != want {
		t.Fatalf("replies after half-close:\n got %q\nwant %q", out, want)
	}
}

// TestServerCloseWhileReading: Server.Close ends sessions parked in a
// read of their socket promptly.
func TestServerCloseWhileReading(t *testing.T) {
	m, _ := hrMonitor(t)
	l := listenTCP(t)
	srv, metrics := serveOn(t, m, l)
	c := dial(t, l.Addr())
	c.send(t, "@1 +fire(1)")
	if got := c.recv(t); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}
	srv.Close()
	waitSessionsDone(t, metrics)
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("connection still open after Server.Close")
	}
}

// TestServerPeerReset: a client that resets its connection ends its
// session — no panic, no leaked session — and the server serves on.
func TestServerPeerReset(t *testing.T) {
	m, _ := hrMonitor(t)
	l := listenTCP(t)
	_, metrics := serveOn(t, m, l)
	addr := l.Addr()
	c := dial(t, addr)
	c.send(t, "@1 +fire(1)")
	if got := c.recv(t); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}
	c.conn.(*net.TCPConn).SetLinger(0)
	c.conn.Close()
	waitSessionsDone(t, metrics)

	next := dial(t, addr)
	next.send(t, "@2 +fire(2)")
	if got := next.recv(t); got != "ok 0" {
		t.Fatalf("reply after a peer reset = %q", got)
	}
}

// TestSessionIOAllocationFree: a session's reads and writes — the idle
// deadline refreshed before each socket read, the scanner, the held
// reply flushed before the next wait — allocate nothing per command.
func TestSessionIOAllocationFree(t *testing.T) {
	m, _ := hrMonitor(t)
	srv := NewServer(m, WithIdleTimeout(time.Minute))
	l := listenTCP(t)
	go srv.Serve(l) //nolint:errcheck — returns when the listener closes
	t.Cleanup(func() {
		l.Close()
		srv.Close()
	})
	c := dial(t, l.Addr())
	c.send(t, "@1 +fire(7)")
	if got := c.recv(t); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}
	cmd := []byte("stats\n")
	var failed []byte // the first unexpected reply line, copied
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.conn.Write(cmd); err != nil {
			t.Fatal(err)
		}
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(line, []byte("stats nodes=")) && failed == nil {
			failed = append(failed, line...)
		}
	})
	if failed != nil {
		t.Fatalf("unexpected reply %q", failed)
	}
	// The client's own net.Conn calls allocate nothing either; anything
	// counted here is the session's.
	if allocs != 0 {
		t.Errorf("%.1f allocations per command, want 0", allocs)
	}
}
