package monitor

import (
	"errors"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
	"time"

	"rtic/internal/sock"
)

// sockPair returns a net client and the daemon's own socket type
// (internal/sock) accepted from it.
func sockPair(t *testing.T) (client net.Conn, server *sock.Conn, l *sock.Listener) {
	t.Helper()
	l, err := sock.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if server, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server, l
}

// TestSockConnTakesRawPath: the daemon's sockets take the raw path, and
// a read and a write on it allocate nothing.
func TestSockConnTakesRawPath(t *testing.T) {
	client, server, l := sockPair(t)
	rd, wr := sessionIO(server)
	_, rawR := rd.(*rawReader)
	_, rawW := wr.(*rawWriter)
	if !rawR || !rawW {
		t.Fatalf("sock.Conn took the fallback: %T, %T", rd, wr)
	}
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
	if allocs != 0 {
		t.Errorf("%.1f allocations per round trip, want 0", allocs)
	}

	// Its errors are its own, os.File's, named after the listener's
	// address (a net.Conn's name both ends: TestSessionIOErrorsMatchNetConn):
	// a passed deadline, then a closed socket.
	name := l.Addr().String()
	server.SetReadDeadline(time.Now().Add(-time.Second))
	_, want := server.Read(buf)
	if _, got := rd.Read(buf); got == nil || got.Error() != want.Error() || got.Error() != "read "+name+": i/o timeout" ||
		!errors.Is(got, os.ErrDeadlineExceeded) {
		t.Fatalf("passed deadline: session error %v, conn error %v", got, want)
	}
	server.Close()
	_, want = server.Write(buf)
	if _, got := wr.Write(buf); got == nil || got.Error() != want.Error() || got.Error() != "write "+name+": file already closed" ||
		!errors.Is(got, os.ErrClosed) {
		t.Fatalf("closed socket: session error %v, conn error %v", got, want)
	}
}

// TestSockConnPeerResetText: an errno on the daemon's socket reads as
// the bare system call error, since a sock.Conn reports no addresses.
func TestSockConnPeerResetText(t *testing.T) {
	client, server, _ := sockPair(t)
	rd, _ := sessionIO(server)
	client.(*net.TCPConn).SetLinger(0) // Close sends a reset
	client.Close()
	server.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	if _, err := rd.Read(buf); err == nil || err.Error() != "read: connection reset by peer" || !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("read after a peer reset: %v", err)
	}
}

// TestServeSockListener: Serve takes the daemon's listener as it is —
// its Accept returns *sock.Conn — serves a commit, and returns once
// the listener closes.
func TestServeSockListener(t *testing.T) {
	m, _ := hrMonitor(t)
	l, err := sock.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(srv.Close)
	addr, err := net.ResolveTCPAddr("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	c.send(t, "@1 +fire(7)")
	if got := c.recv(t); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}
	l.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Serve returned nil after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the listener closed")
	}
}
