package monitor

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"rtic/internal/storage"
	"rtic/internal/tuple"
)

// waitCountingConn counts the times the raw write path found the socket
// full and waited for writability.
type waitCountingConn struct {
	net.Conn
	waits *atomic.Int64
}

func (c waitCountingConn) SyscallConn() (syscall.RawConn, error) {
	rc, err := c.Conn.(syscall.Conn).SyscallConn()
	return waitCountingRawConn{rc, c.waits}, err
}

type waitCountingRawConn struct {
	syscall.RawConn
	waits *atomic.Int64
}

func (c waitCountingRawConn) Write(f func(fd uintptr) bool) error {
	return c.RawConn.Write(func(fd uintptr) bool {
		done := f(fd)
		if !done {
			c.waits.Add(1)
		}
		return done
	})
}

// sockBuf sets one socket buffer size before the socket connects, so
// the advertised window starts small.
func sockBuf(opt int) func(network, address string, c syscall.RawConn) error {
	return func(_, _ string, c syscall.RawConn) error {
		var err error
		if cerr := c.Control(func(fd uintptr) {
			err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, opt, 4096)
		}); cerr != nil {
			return cerr
		}
		return err
	}
}

// TestServerReplyLargerThanSendBuffer: a reply several times larger
// than what the socket pair can hold, to a client that reads late,
// arrives complete and byte-identical — the raw writer waits for
// writability after a partial write rather than dropping or repeating
// bytes.
func TestServerReplyLargerThanSendBuffer(t *testing.T) {
	m := suspectMonitor(t)
	tx := storage.NewTransaction()
	for i := 0; i < recentCapacity; i++ {
		tx.Insert("p", tuple.Strs(fmt.Sprintf("%04d-%s", i, strings.Repeat("x", 200))))
	}
	if vs, err := m.Apply(1, tx); err != nil || len(vs) != recentCapacity {
		t.Fatalf("fixture: %d violations, %v", len(vs), err)
	}
	var want strings.Builder
	for _, v := range m.Recent(recentCapacity) {
		fmt.Fprintf(&want, "violation %s\n", v.String())
	}
	fmt.Fprintf(&want, "ok %d\n", recentCapacity)

	lc := net.ListenConfig{Control: sockBuf(syscall.SO_SNDBUF)}
	l, err := lc.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var waits atomic.Int64
	serveOn(t, m, wrapListener{l, func(c net.Conn) net.Conn { return waitCountingConn{c, &waits} }})
	d := net.Dialer{Control: sockBuf(syscall.SO_RCVBUF)}
	conn, err := d.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintf(conn, "recent %d\n", recentCapacity); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // the server fills the socket and waits
	r := bufio.NewReader(conn)
	var got strings.Builder
	for !strings.HasSuffix(got.String(), fmt.Sprintf("ok %d\n", recentCapacity)) {
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

// wrapListener passes every accepted conn through wrap.
type wrapListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l wrapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
}
