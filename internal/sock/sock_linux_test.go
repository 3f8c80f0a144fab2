package sock

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"rtic/internal/monitor"
	"rtic/internal/schema"
	"rtic/internal/workload"
)

// roundTrip dials l at dial, accepts, and passes one line each way.
func roundTrip(t *testing.T, l *Listener, dial string) {
	t.Helper()
	client, err := net.Dial("tcp", dial)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	c, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Write([]byte("ping\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "ping\n" {
		t.Fatalf("read %q, %v", buf, err)
	}
	if _, err := c.Write([]byte("pong\n")); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(client, buf); err != nil || string(buf) != "pong\n" {
		t.Fatalf("client read %q, %v", buf, err)
	}
}

// boundPort is the port l reports, which must not be 0.
func boundPort(t *testing.T, l *Listener) int {
	t.Helper()
	if l.Addr().Port() == 0 {
		t.Fatalf("%s: port 0 reported", l.Addr())
	}
	return int(l.Addr().Port())
}

// TestListenReportsBoundPort: port 0 on an IPv4 or IPv6 literal binds a
// free port, which Addr reports and a client reaches. An IPv4-mapped
// literal binds and prints as its IPv4 address, as net's does.
func TestListenReportsBoundPort(t *testing.T) {
	for _, tc := range []struct{ addr, host string }{
		{"127.0.0.1:0", "127.0.0.1"}, {"[::1]:0", "[::1]"}, {"[::ffff:127.0.0.1]:0", "127.0.0.1"},
	} {
		l, err := Listen(tc.addr)
		if err != nil {
			if tc.host == "[::1]" && (errors.Is(err, syscall.EAFNOSUPPORT) || errors.Is(err, syscall.EADDRNOTAVAIL)) {
				t.Logf("no IPv6 loopback here: %v", err)
				continue
			}
			t.Fatal(err)
		}
		port := boundPort(t, l)
		if got, want := l.Addr().String(), tc.host+":"+strconv.Itoa(port); got != want {
			t.Errorf("Addr() = %s, want %s", got, want)
		}
		roundTrip(t, l, l.Addr().String())
		l.Close()
	}
}

// TestListenEmptyHost: ":PORT", "0.0.0.0:PORT" and "[::]:PORT" listen
// on every interface, as net.Listen does — IPv4 loopback included, and
// IPv6 where the host has it — and print what was bound, as net does:
// "[::]:PORT" on a dual-stack socket (a host with no IPv6 at all gets
// "0.0.0.0:PORT", as TestListenEveryInterfaceWithoutIPv6 checks).
func TestListenEmptyHost(t *testing.T) {
	probe, err := net.Listen("tcp", "[::1]:0")
	v6 := err == nil
	if v6 {
		probe.Close()
	}
	for _, in := range []string{":0", "0.0.0.0:0", "[::]:0"} {
		l, err := Listen(in)
		if err != nil {
			t.Fatal(err)
		}
		port := strconv.Itoa(boundPort(t, l))
		if got := l.Addr().String(); got != "[::]:"+port && (v6 || got != "0.0.0.0:"+port) {
			t.Errorf("%s: Addr() = %s, want [::]:%s", in, got, port)
		}
		roundTrip(t, l, "127.0.0.1:"+port)
		if v6 {
			roundTrip(t, l, "[::1]:"+port)
		}
		l.Close()
	}
}

// TestListenEveryInterfaceWithoutIPv6: where IPv6 sockets are refused,
// every interface falls back to an IPv4 socket and prints as one.
func TestListenEveryInterfaceWithoutIPv6(t *testing.T) {
	real := socket
	socket = func(family, typ, proto int) (int, error) {
		if family == syscall.AF_INET6 {
			return -1, syscall.EAFNOSUPPORT
		}
		return real(family, typ, proto)
	}
	t.Cleanup(func() { socket = real })
	for _, in := range []string{":0", "0.0.0.0:0", "[::]:0"} {
		l, err := Listen(in)
		if err != nil {
			t.Fatal(err)
		}
		port := strconv.Itoa(boundPort(t, l))
		if got := l.Addr().String(); got != "0.0.0.0:"+port {
			t.Errorf("%s: Addr() = %s, want 0.0.0.0:%s", in, got, port)
		}
		roundTrip(t, l, "127.0.0.1:"+port)
		l.Close()
	}
	if l, err := Listen("[::1]:0"); !errors.Is(err, syscall.EAFNOSUPPORT) {
		if l != nil {
			l.Close()
		}
		t.Errorf("[::1]:0 without IPv6: %v", err)
	}
}

// TestListenTakenPort: a port another listener holds is refused.
func TestListenTakenPort(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	if l, err := Listen(taken.Addr().String()); !errors.Is(err, syscall.EADDRINUSE) {
		if l != nil {
			l.Close()
		}
		t.Fatalf("Listen on a taken port: %v", err)
	}
}

// TestCloseUnblocksAccept: Close returns a waiting Accept with an error.
func TestCloseUnblocksAccept(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	l.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Accept returned a conn after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept still waiting after Close")
	}
}

// inject makes accept4 fail with each of errs in turn before it calls
// the real one, and counts its calls.
func inject(t *testing.T, errs ...syscall.Errno) *atomic.Int64 {
	real := accept4
	var calls atomic.Int64
	accept4 = func(fd int) (int, syscall.Errno) {
		if i := calls.Add(1) - 1; int(i) < len(errs) {
			return -1, errs[i]
		}
		return real(fd)
	}
	t.Cleanup(func() { accept4 = real })
	return &calls
}

// TestAcceptRetriesConnAborted: a connection aborted before accept is
// skipped inside Accept, which returns the next one.
func TestAcceptRetriesConnAborted(t *testing.T) {
	calls := inject(t, syscall.ECONNABORTED)
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	roundTrip(t, l, l.Addr().String())
	if n := calls.Load(); n != 2 {
		t.Fatalf("accept4 called %d times, want 2 (the aborted one, then the connection)", n)
	}
}

// TestAcceptOutOfDescriptorsIsTemporary: EMFILE and ENFILE come back as
// temporary errors, so a serve loop backs off and calls again, and the
// next Accept takes the waiting connection.
func TestAcceptOutOfDescriptorsIsTemporary(t *testing.T) {
	inject(t, syscall.EMFILE, syscall.ENFILE)
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, want := range []syscall.Errno{syscall.EMFILE, syscall.ENFILE} {
		_, err := l.Accept()
		te, ok := err.(interface{ Temporary() bool })
		if !errors.Is(err, want) || !ok || !te.Temporary() {
			t.Fatalf("Accept: %v, want a temporary %v", err, want)
		}
	}
	c, err := l.Accept()
	if err != nil {
		t.Fatalf("Accept after the temporary errors: %v", err)
	}
	c.Close()
}

// TestServeBacksOffOutOfDescriptors: a monitor.Server over the listener
// backs off on EMFILE (5, 10, 20 ms) instead of returning, then serves
// the connection that waited.
func TestServeBacksOffOutOfDescriptors(t *testing.T) {
	calls := inject(t, syscall.EMFILE, syscall.EMFILE, syscall.EMFILE)
	s := schema.NewBuilder().Relation("fire", 1).MustBuild()
	m, err := monitor.New(s, []workload.ConstraintSpec{{Name: "c", Source: "fire(e) -> not once[1,10] fire(e)"}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := monitor.NewServer(m)
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- srv.Serve(l) }()
	defer srv.Close()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Write([]byte("@1 +fire(1)\n")); err != nil {
		t.Fatal(err)
	}
	if reply, err := bufio.NewReader(client).ReadString('\n'); err != nil || reply != "ok 0\n" {
		t.Fatalf("reply %q, %v", reply, err)
	}
	if waited := time.Since(start); waited < 35*time.Millisecond {
		t.Errorf("served after %v: the three EMFILE backoffs take 35 ms", waited)
	}
	if n := calls.Load(); n < 4 {
		t.Errorf("accept4 called %d times, want 3 failures and the connection", n)
	}
	l.Close()
	if err := <-done; err == nil {
		t.Error("Serve returned nil after Close")
	}
}

// TestAcceptedSocketOptionsMatchNet: an accepted socket carries the
// options net sets on the connections it accepts — TCP_NODELAY, and
// keep-alive with its idle time, interval and count.
func TestAcceptedSocketOptionsMatchNet(t *testing.T) {
	opts := []struct {
		name       string
		level, opt int
	}{
		{"TCP_NODELAY", syscall.IPPROTO_TCP, syscall.TCP_NODELAY},
		{"SO_KEEPALIVE", syscall.SOL_SOCKET, syscall.SO_KEEPALIVE},
		{"TCP_KEEPIDLE", syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE},
		{"TCP_KEEPINTVL", syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL},
		{"TCP_KEEPCNT", syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT},
	}
	read := func(rc syscall.RawConn) []int {
		var vals []int
		rc.Control(func(fd uintptr) {
			for _, o := range opts {
				v, err := syscall.GetsockoptInt(int(fd), o.level, o.opt)
				if err != nil {
					t.Errorf("%s: %v", o.name, err)
				}
				vals = append(vals, v)
			}
		})
		return vals
	}

	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	nc, err := net.Dial("tcp", nl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	ns, err := nl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ss, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	nrc, err := ns.(syscall.Conn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	want, got := read(nrc), read(ss.rc)
	for i, o := range opts {
		if got[i] != want[i] {
			t.Errorf("%s = %d, net's accepted conn has %d", o.name, got[i], want[i])
		}
	}
	if got[0] == 0 {
		t.Error("TCP_NODELAY is off")
	}
}
