package sock

import (
	"errors"
	"io"
	"net/netip"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// maxBacklog asks for the longest accept queue; the kernel caps it at
// net.core.somaxconn, as it caps net's listeners.
const maxBacklog = 1<<16 - 1

// callError is a failed socket call. Temporary is the errno's own
// verdict (true for EMFILE and ENFILE: the process or the system is out
// of descriptors), so an accept loop backs off and retries, as it does
// on net's accept errors.
type callError struct {
	op    string
	errno syscall.Errno
}

func (e *callError) Error() string   { return e.op + ": " + e.errno.Error() }
func (e *callError) Unwrap() error   { return e.errno }
func (e *callError) Temporary() bool { return e.errno.Temporary() }

// fail names the call behind a syscall package error.
func fail(op string, err error) error {
	if errno, ok := err.(syscall.Errno); ok {
		return &callError{op, errno}
	}
	return err
}

// Listener is a listening TCP socket, non-blocking and registered with
// the runtime's poller through os.NewFile.
type Listener struct {
	f    *os.File
	rc   syscall.RawConn
	addr netip.AddrPort
}

// Listen opens a TCP listener on address, an IP literal with a port:
// "127.0.0.1:7411", "[::1]:7411", port 0 for any free one. An empty
// host, 0.0.0.0 or [::] listens on every interface, IPv4 and IPv6 on
// one socket where the host has IPv6, as net.Listen does. A host name
// is refused, as there is no resolver.
func Listen(address string) (*Listener, error) {
	ap, err := parseAddr(address)
	if err != nil {
		return nil, err
	}
	ip, every := ap.Addr(), ap.Addr().IsUnspecified()
	if every {
		ip = netip.IPv6Unspecified()
	}
	fd, err := bind(ip, ap.Port(), every)
	if errors.Is(err, syscall.EAFNOSUPPORT) && every { // no IPv6 here
		fd, err = bind(netip.IPv4Unspecified(), ap.Port(), false)
	}
	if err != nil {
		return nil, err
	}
	// The address printed is the one bound, as net prints it: its
	// family, and the port the kernel picked for port 0.
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		syscall.Close(fd)
		return nil, fail("getsockname", err)
	}
	var bound netip.AddrPort
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		bound = netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(sa.Port))
	case *syscall.SockaddrInet6:
		bound = netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), uint16(sa.Port))
	}
	l := &Listener{f: os.NewFile(uintptr(fd), bound.String()), addr: bound}
	if l.rc, err = l.f.SyscallConn(); err != nil {
		l.f.Close()
		return nil, err
	}
	return l, nil
}

// socket opens a socket; tests replace it to refuse a family.
var socket = syscall.Socket

// bind returns a socket bound to ip and port and listening; dual lets
// an IPv6 socket take IPv4 connections too.
func bind(ip netip.Addr, port uint16, dual bool) (int, error) {
	family, sa := syscall.AF_INET6, syscall.Sockaddr(&syscall.SockaddrInet6{Port: int(port), Addr: ip.As16()})
	if ip.Is4() {
		family, sa = syscall.AF_INET, &syscall.SockaddrInet4{Port: int(port), Addr: ip.As4()}
	}
	fd, err := socket(family, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, syscall.IPPROTO_TCP)
	if err != nil {
		return -1, fail("socket", err)
	}
	op := "setsockopt"
	if dual {
		err = syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, 0)
	}
	if err == nil {
		err = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
	}
	if err == nil {
		op, err = "bind", syscall.Bind(fd, sa)
	}
	if err == nil {
		op, err = "listen", syscall.Listen(fd, maxBacklog)
	}
	if err != nil {
		syscall.Close(fd)
		return -1, fail(op, err)
	}
	return fd, nil
}

// accept4 accepts one connection as a non-blocking, close-on-exec
// socket; errno 0 is success. Tests replace it to inject failures.
var accept4 = func(fd int) (int, syscall.Errno) {
	nfd, _, errno := syscall.Syscall6(syscall.SYS_ACCEPT4, uintptr(fd), 0, 0,
		syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0, 0)
	return int(nfd), errno
}

// Accept waits in the poller for the next connection. ECONNABORTED (a
// client gone before it was accepted) and EINTR are retried here, as
// internal/poll retries them for net. Close unblocks a waiting Accept.
func (l *Listener) Accept() (*Conn, error) {
	var nfd int
	var errno syscall.Errno
	err := l.rc.Read(func(fd uintptr) bool {
		for {
			nfd, errno = accept4(int(fd))
			switch errno {
			case syscall.EINTR, syscall.ECONNABORTED:
				continue
			case syscall.EAGAIN:
				return false
			}
			return true
		}
	})
	switch {
	case err != nil:
		return nil, err
	case errno != 0:
		return nil, &callError{"accept4", errno}
	}
	// As net sets up the connections it accepts: replies leave at once,
	// without Nagle's wait for the peer's acknowledgement, and a silent
	// peer is probed after 15 s, every 15 s, 9 times.
	for _, o := range [...]struct{ level, opt, v int }{
		{syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
		{syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, 9},
	} {
		syscall.SetsockoptInt(nfd, o.level, o.opt, o.v) // as net, best effort
	}
	c := &Conn{f: os.NewFile(uintptr(nfd), l.f.Name())}
	if c.rc, err = c.f.SyscallConn(); err != nil {
		c.f.Close()
		return nil, err
	}
	c.rd.fn, c.wr.fn = c.tryRead, c.tryWrite
	return c, nil
}

// Addr is the address the listener is bound to, its port resolved.
func (l *Listener) Addr() netip.AddrPort { return l.addr }

// Close closes the socket; a waiting Accept returns an error.
func (l *Listener) Close() error { return l.f.Close() }

// Conn is one accepted connection: a non-blocking socket in the
// runtime's poller, so reads and writes park a goroutine and not a
// thread, and deadlines and Close work as on a net.Conn.
//
// Read and Write issue read(2) and write(2) as raw system calls under
// the socket's RawConn: a call that would block returns EAGAIN, and the
// goroutine parks in the netpoller as os.File's own Read and Write park
// it. What a raw call skips is the runtime's syscall bookkeeping
// (entersyscall/exitsyscall), which wakes the runtime's monitor thread
// whenever it is parked, as it is whenever every P sits idle between
// two trains of a paced client: one wake-up per train, for a call that
// can never block.
//
// A failed wait (a passed deadline, a closed socket) reads as os.File
// words it, named after the listener's address; an errno reads as the
// bare system call's ("read: connection reset by peer"), since the
// socket reports no addresses. One goroutine may read while another
// writes or closes, as a session and its server do; two reads, or two
// writes, must not overlap.
type Conn struct {
	f      *os.File
	rc     syscall.RawConn
	rd, wr rawSide
}

// rawSide is one direction of the socket's raw I/O. Its closure, handed
// to the RawConn, is built once per connection and reads the call's
// buffer and results from here, so a call allocates nothing.
type rawSide struct {
	fn    func(fd uintptr) bool
	p     []byte // the buffer of the call in flight
	n     int
	errno syscall.Errno
}

func (c *Conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	r := &c.rd
	r.p, r.n, r.errno = p, 0, 0
	err := c.rc.Read(r.fn)
	r.p = nil
	switch {
	case err != nil:
		// The wait failed: the socket is closed or its deadline passed.
		// Both persist, so os.File's Read fails the same way and words
		// the error as it always does.
		return c.f.Read(p)
	case r.errno != 0:
		return 0, os.NewSyscallError("read", r.errno)
	case r.n == 0:
		return 0, io.EOF
	}
	return r.n, nil
}

// tryRead is one readiness attempt: false asks the netpoller to wait.
func (c *Conn) tryRead(fd uintptr) bool {
	r := &c.rd
	for {
		n, _, e := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&r.p[0])), uintptr(len(r.p)))
		switch e {
		case 0:
			r.n = int(n)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		r.errno = e
		return true
	}
}

// Write returns only once every byte has left or the socket failed; a
// partial write followed by EAGAIN waits for writability and goes on.
func (c *Conn) Write(p []byte) (int, error) {
	w := &c.wr
	w.p, w.n, w.errno = p, 0, 0
	err := c.rc.Write(w.fn)
	n := w.n
	w.p = nil
	switch {
	case err != nil:
		m, err := c.f.Write(p[n:]) // as in Read
		return n + m, err
	case w.errno != 0:
		return n, os.NewSyscallError("write", w.errno)
	case n < len(p):
		return n, io.ErrUnexpectedEOF
	}
	return n, nil
}

// tryWrite writes until the buffer is out (true), the socket is full
// (false: wait for writability), or it fails (true, with errno set).
func (c *Conn) tryWrite(fd uintptr) bool {
	w := &c.wr
	for w.n < len(w.p) {
		n, _, e := syscall.RawSyscall(syscall.SYS_WRITE, fd, uintptr(unsafe.Pointer(&w.p[w.n])), uintptr(len(w.p)-w.n))
		switch e {
		case 0:
			if n == 0 {
				return true // no progress and no error: Write reports it
			}
			w.n += int(n)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			w.errno = e
			return true
		}
	}
	return true
}

func (c *Conn) Close() error                       { return c.f.Close() }
func (c *Conn) SetReadDeadline(t time.Time) error  { return c.f.SetReadDeadline(t) }
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.f.SetWriteDeadline(t) }
