package monitor

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"rtic/internal/obs"
)

// rawPath reports whether sessionIO gave conn the raw socket path.
func rawPath(conn net.Conn) bool {
	r, w := sessionIO(conn)
	_, rConn := r.(net.Conn)
	_, wConn := w.(net.Conn)
	return !rConn && !wConn
}

// tcpPair returns both ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	if server == nil {
		t.FailNow()
	}
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server
}

// TestSessionIOFallback: sockets take the raw path on Linux; net.Pipe,
// and a wrapper that does not forward SyscallConn, keep the conn's own
// methods everywhere.
func TestSessionIOFallback(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if r, w := sessionIO(a); r != io.Reader(a) || w != io.Writer(a) {
		t.Error("net.Pipe conn did not take the fallback")
	}
	_, server := tcpPair(t)
	if rawPath(struct{ net.Conn }{server}) {
		t.Error("a wrapper without SyscallConn took the raw path")
	}
	linux := runtime.GOOS == "linux"
	if got := rawPath(server); got != linux {
		t.Errorf("TCP conn on %s: raw path = %v, want %v", runtime.GOOS, got, linux)
	}
}

// TestSessionIOErrorsMatchNetConn holds the session's reader and writer
// to net.Conn's own errors — text, errors.Is and io.EOF — for a passed
// deadline, a deadline that fires during the wait, end of stream, a
// closed conn and a peer reset.
func TestSessionIOErrorsMatchNetConn(t *testing.T) {
	client, server := tcpPair(t)
	rd, wr := sessionIO(server)
	buf := make([]byte, 64)
	same := func(what string, got, want error) {
		t.Helper()
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Fatalf("%s: session error %v, net.Conn error %v", what, got, want)
		}
		if strings.Contains(got.Error(), "raw-") {
			t.Fatalf("%s: RawConn's op name leaked: %v", what, got)
		}
	}

	// A deadline already passed.
	server.SetReadDeadline(time.Now().Add(-time.Second))
	_, want := server.Read(buf)
	_, got := rd.Read(buf)
	same("passed deadline", got, want)
	if !errors.Is(got, os.ErrDeadlineExceeded) {
		t.Fatalf("passed deadline: %v is not os.ErrDeadlineExceeded", got)
	}
	// A deadline that fires while the read waits in the netpoller.
	server.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	if _, err := rd.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("deadline during the wait: %v", err)
	} else if waited := time.Since(start); waited < 40*time.Millisecond {
		t.Fatalf("deadline during the wait fired after %v", waited)
	}
	server.SetReadDeadline(time.Time{})

	// Bytes, then end of stream after a half-close.
	if _, err := client.Write([]byte("ping\n")); err != nil {
		t.Fatal(err)
	}
	if n, err := io.ReadFull(rd, buf[:5]); err != nil || string(buf[:n]) != "ping\n" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	if n, err := wr.Write([]byte("pong\n")); n != 5 || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	if n, err := io.ReadFull(client, buf[:5]); err != nil || string(buf[:n]) != "pong\n" {
		t.Fatalf("client read %q, %v", buf[:n], err)
	}
	client.(*net.TCPConn).CloseWrite()
	if n, err := rd.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("after half-close: %d, %v; want 0, io.EOF", n, err)
	}

	// A closed conn.
	server.Close()
	_, want = server.Read(buf)
	_, got = rd.Read(buf)
	same("closed conn read", got, want)
	if !errors.Is(got, net.ErrClosed) {
		t.Fatalf("closed conn read: %v is not net.ErrClosed", got)
	}
	_, want = server.Write(buf)
	_, got = wr.Write(buf)
	same("closed conn write", got, want)

	// A peer reset, taken while the read waits.
	client, server = tcpPair(t)
	rd, _ = sessionIO(server)
	errc := make(chan error, 1)
	go func() {
		_, err := rd.Read(buf)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	client.(*net.TCPConn).SetLinger(0)
	client.Close()
	got = <-errc
	if !errors.Is(got, syscall.ECONNRESET) {
		t.Fatalf("peer reset: %v is not ECONNRESET", got)
	}
	wantText := fmt.Sprintf("read tcp %s->%s: read: connection reset by peer", server.LocalAddr(), server.RemoteAddr())
	if got.Error() != wantText {
		t.Fatalf("peer reset: %q, want %q", got, wantText)
	}
}

// TestSessionIOAllocationFree: a read and a write on the raw path
// allocate nothing.
func TestSessionIOAllocationFree(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the raw path is Linux-only")
	}
	client, server := tcpPair(t)
	rd, wr := sessionIO(server)
	msg := []byte("x\n")
	buf := make([]byte, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := wr.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, buf[:len(msg)]); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(rd, buf[:len(msg)]); err != nil {
			t.Fatal(err)
		}
	})
	// The client's own net.Conn calls allocate nothing either; anything
	// counted here is the session's.
	if allocs != 0 {
		t.Errorf("%.1f allocations per round trip, want 0", allocs)
	}
}

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
