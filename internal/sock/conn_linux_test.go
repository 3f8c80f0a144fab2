package sock

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"rtic/internal/monitor"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/workload"
)

// connPair returns a net client and the Conn accepted from it, and the
// listener's address, which names the Conn's os.File errors.
func connPair(t *testing.T) (client *net.TCPConn, server *Conn, name string) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if server, err = l.Accept(); err != nil {
		nc.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		nc.Close()
		server.Close()
	})
	return nc.(*net.TCPConn), server, l.Addr().String()
}

// TestSockConnTakesRawPath: a read and a write on the daemon's socket,
// issued as raw system calls, allocate nothing.
func TestSockConnTakesRawPath(t *testing.T) {
	client, server, _ := connPair(t)
	msg := []byte("x\n")
	buf := make([]byte, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := server.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, buf[:len(msg)]); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(server, buf[:len(msg)]); err != nil {
			t.Fatal(err)
		}
	})
	// The client's own net.Conn calls allocate nothing either; anything
	// counted here is the Conn's.
	if allocs != 0 {
		t.Errorf("%.1f allocations per round trip, want 0", allocs)
	}
}

// TestSockConnErrors holds the Conn's errors to os.File's — text,
// errors.Is and io.EOF — for a passed deadline, a deadline that fires
// during the wait, end of stream after a half-close, and a closed
// socket.
func TestSockConnErrors(t *testing.T) {
	client, server, name := connPair(t)
	buf := make([]byte, 64)
	check := func(what string, err error, text string, target error) {
		t.Helper()
		if err == nil || err.Error() != text || !errors.Is(err, target) {
			t.Fatalf("%s: %v, want %q (%v)", what, err, text, target)
		}
	}

	server.SetReadDeadline(time.Now().Add(-time.Second))
	_, err := server.Read(buf)
	check("passed deadline", err, "read "+name+": i/o timeout", os.ErrDeadlineExceeded)

	server.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err = server.Read(buf)
	check("deadline during the wait", err, "read "+name+": i/o timeout", os.ErrDeadlineExceeded)
	if waited := time.Since(start); waited < 40*time.Millisecond {
		t.Fatalf("deadline during the wait fired after %v", waited)
	}
	server.SetReadDeadline(time.Time{})

	if _, err := client.Write([]byte("ping\n")); err != nil {
		t.Fatal(err)
	}
	if n, err := io.ReadFull(server, buf[:5]); err != nil || string(buf[:n]) != "ping\n" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	if n, err := server.Write([]byte("pong\n")); n != 5 || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	if n, err := io.ReadFull(client, buf[:5]); err != nil || string(buf[:n]) != "pong\n" {
		t.Fatalf("client read %q, %v", buf[:n], err)
	}
	client.CloseWrite()
	if n, err := server.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("after half-close: %d, %v; want 0, io.EOF", n, err)
	}

	server.Close()
	_, err = server.Read(buf)
	check("closed socket read", err, "read "+name+": file already closed", os.ErrClosed)
	_, err = server.Write(buf)
	check("closed socket write", err, "write "+name+": file already closed", os.ErrClosed)
}

// TestSockConnPeerResetText: a peer reset taken while a read waits in
// the poller reads as the bare system call error, since the socket
// reports no addresses.
func TestSockConnPeerResetText(t *testing.T) {
	client, server, _ := connPair(t)
	errc := make(chan error, 1)
	go func() {
		_, err := server.Read(make([]byte, 64))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	client.SetLinger(0) // Close sends a reset
	client.Close()
	if err := <-errc; err == nil || err.Error() != "read: connection reset by peer" || !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("read after a peer reset: %v", err)
	}
}

// TestSockConnCloseWhileParked: Close returns a read parked in the
// poller at once, with os.File's closed-file error.
func TestSockConnCloseWhileParked(t *testing.T) {
	_, server, name := connPair(t)
	errc := make(chan error, 1)
	go func() {
		_, err := server.Read(make([]byte, 64))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	server.Close()
	select {
	case err := <-errc:
		if err == nil || err.Error() != "read "+name+": file already closed" || !errors.Is(err, os.ErrClosed) {
			t.Fatalf("read parked across Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read still parked after Close")
	}
}

// sockBuf sets one socket buffer size to 4 KiB.
func sockBuf(rc syscall.RawConn, opt int) error {
	var err error
	if cerr := rc.Control(func(fd uintptr) {
		err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, opt, 4096)
	}); cerr != nil {
		return cerr
	}
	return err
}

// waitCountingListener shrinks the send buffer of every socket it
// accepts and counts the times a Write found it full and waited for
// writability.
type waitCountingListener struct {
	*Listener
	waits *atomic.Int64
}

func (l waitCountingListener) Accept() (*Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if err := sockBuf(c.rc, syscall.SO_SNDBUF); err != nil {
		c.Close()
		return nil, err
	}
	try := c.wr.fn
	c.wr.fn = func(fd uintptr) bool {
		done := try(fd)
		if !done {
			l.waits.Add(1)
		}
		return done
	}
	return c, nil
}

// TestServerReplyLargerThanSendBuffer: a reply several times larger
// than what the socket pair can hold, to a client that reads late,
// arrives complete and byte-identical — Write waits for writability
// after a partial write rather than dropping or repeating bytes.
func TestServerReplyLargerThanSendBuffer(t *testing.T) {
	// Every p fact of the first commit violates, and the monitor keeps
	// the last n violations for "recent n".
	const n = 128
	s := schema.NewBuilder().Relation("p", 1).MustBuild()
	m, err := monitor.New(s, []workload.ConstraintSpec{{Name: "dead_window", Source: "p(x) -> prev[0,0] p(x)"}})
	if err != nil {
		t.Fatal(err)
	}
	tx := storage.NewTransaction()
	for i := 0; i < n; i++ {
		tx.Insert("p", tuple.Strs(fmt.Sprintf("%04d-%s", i, strings.Repeat("x", 200))))
	}
	if vs, err := m.Apply(1, tx); err != nil || len(vs) != n {
		t.Fatalf("fixture: %d violations, %v", len(vs), err)
	}
	var want strings.Builder
	for _, v := range m.Recent(n) {
		fmt.Fprintf(&want, "violation %s\n", v.String())
	}
	fmt.Fprintf(&want, "ok %d\n", n)

	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var waits atomic.Int64
	srv := monitor.NewServer(m)
	go srv.Serve(waitCountingListener{l, &waits}) //nolint:errcheck — returns when the listener closes
	t.Cleanup(func() {
		l.Close()
		srv.Close()
	})
	d := net.Dialer{Control: func(_, _ string, rc syscall.RawConn) error { return sockBuf(rc, syscall.SO_RCVBUF) }}
	conn, err := d.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintf(conn, "recent %d\n", n); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // the server fills the socket and waits
	r := bufio.NewReader(conn)
	var got strings.Builder
	for !strings.HasSuffix(got.String(), fmt.Sprintf("ok %d\n", n)) {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("after %d bytes: %v", got.Len(), err)
		}
		got.WriteString(line)
	}
	if got.String() != want.String() {
		t.Fatalf("reply of %d bytes differs from the %d expected", got.Len(), want.Len())
	}
	if waits.Load() == 0 {
		t.Errorf("a %d-byte reply never filled the socket: the test did not exercise the wait", want.Len())
	}
}

// TestServeSockListener: Serve takes the daemon's listener as it is —
// its Accept returns *Conn — serves a commit, and returns once the
// listener closes.
func TestServeSockListener(t *testing.T) {
	s := schema.NewBuilder().Relation("hire", 1).Relation("fire", 1).MustBuild()
	m, err := monitor.New(s, []workload.ConstraintSpec{{Name: "no_quick_rehire", Source: "hire(e) -> not once[0,365] fire(e)"}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := monitor.NewServer(m)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(srv.Close)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte("@1 +fire(7)\n")); err != nil {
		t.Fatal(err)
	}
	if reply, err := bufio.NewReader(conn).ReadString('\n'); err != nil || reply != "ok 0\n" {
		t.Fatalf("reply %q, %v", reply, err)
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
