package monitor

import (
	"io"
	"os"
	"reflect"
	"syscall"
	"unsafe"
)

// sessionIO returns the reader and writer a session's replies and
// requests go through. On a socket they issue read(2) and write(2) as raw
// system calls on the connection's non-blocking descriptor, under the
// netpoller's RawConn: a call that would block returns EAGAIN instead, and
// the goroutine parks in the netpoller exactly as net.Conn's Read and
// Write park it — deadlines and Close included. What a raw call skips is
// the runtime's syscall bookkeeping (entersyscall/exitsyscall), which
// wakes the runtime's monitor thread whenever it is parked, as it is
// whenever every P sits idle between two trains of a paced client: one
// wake-up per train, for a call that can never block.
//
// Anything that is not a syscall.Conn — net.Pipe, a test's wrapper —
// keeps the conn's own methods.
func sessionIO(conn Conn) (io.Reader, io.Writer) {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return conn, conn
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return conn, conn
	}
	r := &rawReader{rawSide: rawSide{rc: rc, conn: conn}}
	r.fn = r.try
	w := &rawWriter{rawSide: rawSide{rc: rc, conn: conn}}
	w.fn = w.try
	return r, w
}

// rawSide is one direction of a socket's raw I/O. The closure handed to
// the RawConn is built once per connection and reads the call's buffer
// and results from here, so a call allocates nothing.
type rawSide struct {
	rc    syscall.RawConn
	conn  Conn
	fn    func(fd uintptr) bool
	p     []byte // the buffer of the call in flight
	n     int
	errno syscall.Errno
}

// connError is a failed system call of the raw path, shaped as
// net.Conn shapes its own: "read tcp LOCAL->REMOTE: read: <errno>".
type connError struct {
	op, net, local, remote string
	err                    error
}

func (e *connError) Error() string {
	return e.op + " " + e.net + " " + e.local + "->" + e.remote + ": " + e.err.Error()
}

func (e *connError) Unwrap() error { return e.err }

// addr is the method set of the addresses a net.Conn reports.
type addr interface {
	Network() string
	String() string
}

// fail shapes err, from op on the socket, with the conn's local and
// remote addresses when it reports them (net.Conn's LocalAddr and
// RemoteAddr, found by constant name, so package net stays unlinked);
// err alone when it does not.
func (s *rawSide) fail(op string, err error) error {
	v := reflect.ValueOf(s.conn)
	local, ok1 := callAddr(v.MethodByName("LocalAddr"))
	remote, ok2 := callAddr(v.MethodByName("RemoteAddr"))
	if !ok1 || !ok2 {
		return err
	}
	return &connError{op, local.Network(), local.String(), remote.String(), err}
}

func callAddr(m reflect.Value) (addr, bool) {
	if !m.IsValid() || m.Type().NumIn() != 0 || m.Type().NumOut() != 1 {
		return nil, false
	}
	a, ok := m.Call(nil)[0].Interface().(addr)
	return a, ok
}

type rawReader struct{ rawSide }

func (r *rawReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	r.p, r.n, r.errno = p, 0, 0
	err := r.rc.Read(r.fn)
	r.p = nil
	switch {
	case err != nil:
		// The wait failed: the conn is closed or its deadline passed.
		// Both persist, so the conn's own Read fails the same way and
		// words the error as the conn always does.
		return r.conn.Read(p)
	case r.errno != 0:
		return 0, r.fail("read", os.NewSyscallError("read", r.errno))
	case r.n == 0:
		return 0, io.EOF
	}
	return r.n, nil
}

// try is one readiness attempt: false asks the netpoller to wait.
func (r *rawReader) try(fd uintptr) bool {
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

type rawWriter struct{ rawSide }

// Write returns only once every byte has left or the socket failed; a
// partial write followed by EAGAIN waits for writability and goes on.
func (w *rawWriter) Write(p []byte) (int, error) {
	w.p, w.n, w.errno = p, 0, 0
	err := w.rc.Write(w.fn)
	n := w.n
	w.p = nil
	switch {
	case err != nil:
		m, err := w.conn.Write(p[n:]) // as in Read
		return n + m, err
	case w.errno != 0:
		return n, w.fail("write", os.NewSyscallError("write", w.errno))
	case n < len(p):
		return n, w.fail("write", io.ErrUnexpectedEOF)
	}
	return n, nil
}

// try writes until the buffer is out (true), the socket is full (false:
// wait for writability), or it fails (true, with errno set).
func (w *rawWriter) try(fd uintptr) bool {
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
