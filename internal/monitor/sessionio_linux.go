package monitor

import (
	"io"
	"net"
	"os"
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
func sessionIO(conn net.Conn) (io.Reader, io.Writer) {
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
	conn  net.Conn // addresses for errors
	fn    func(fd uintptr) bool
	p     []byte // the buffer of the call in flight
	n     int
	errno syscall.Errno
}

// opError shapes err as net.Conn's own errors are shaped, so messages,
// errors.Is(os.ErrDeadlineExceeded) and errors.Is(net.ErrClosed) read
// the same on either path: the RawConn's wait failures come back with
// op "raw-read"/"raw-write", renamed here.
func (s *rawSide) opError(op string, err error) error {
	if oe, ok := err.(*net.OpError); ok {
		e := *oe
		e.Op = op
		return &e
	}
	la := s.conn.LocalAddr()
	return &net.OpError{Op: op, Net: la.Network(), Source: la, Addr: s.conn.RemoteAddr(), Err: err}
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
		return 0, r.opError("read", err)
	case r.errno != 0:
		return 0, r.opError("read", os.NewSyscallError("read", r.errno))
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
		return n, w.opError("write", err)
	case w.errno != 0:
		return n, w.opError("write", os.NewSyscallError("write", w.errno))
	case n < len(p):
		return n, w.opError("write", io.ErrUnexpectedEOF)
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
