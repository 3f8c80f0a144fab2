package monitor

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"rtic/internal/check"
	"rtic/internal/spec"
	"rtic/internal/storage"
)

// Server speaks a line protocol over any Listener (a net.Listener is
// one), sharing one Monitor across all connections:
//
//	client: @100 -fire(7) +hire(7)       -- one transaction per line
//	server: violation <constraint> ...   -- zero or more, then
//	server: ok 1                         -- violation count, or
//	server: error <message>
//
// Additional client commands:
//
//	stats   -> "stats nodes=N entries=E timestamps=T bytes=B"
//	metrics -> the full Prometheus text exposition, terminated by a
//	           line reading "# EOF" (requires an attached observer
//	           with metrics; "error metrics not enabled" otherwise)
//	lint    -> one "diag <severity> <rule> <constraint> <message>" line
//	           per linter finding recorded at spec load ("-" as the
//	           constraint for spec-level findings), then "ok N"
//	quit    -> closes the connection
//
// Replies leave in order through one buffer per connection, and the
// server never blocks in a read of the socket while that buffer holds
// reply bytes: it flushes immediately before every read (and whenever
// 4 KiB of replies have accumulated, and on every way out of the
// session). A client that sends one command and waits gets its reply in
// one write; a client that pipelines gets the acknowledgements of the
// commands that arrived together in one write — same lines, same order,
// fewer segments.
//
// Lines up to 1 MiB are accepted; a longer line (or any other read
// error) earns a final "error" reply before the connection closes.
// Timestamps are global across clients (the monitor serializes commits),
// so interleaved producers must coordinate their clocks; a stale
// timestamp earns an "error" reply and the connection stays open.
//
// When the shared monitor carries an observer (Monitor.SetObserver),
// the server counts accepted/active connections and error replies.
type Server struct {
	M *Monitor

	maxConns    int           // 0 = unlimited
	idleTimeout time.Duration // 0 = no read deadline

	mu    sync.Mutex
	conns map[Conn]bool
}

// Conn is one client connection. net.Conn satisfies it, and so does a
// socket the daemon opens without package net. A Conn that is also a
// syscall.Conn takes the raw I/O path on Linux (sessionio_linux.go).
type Conn interface {
	io.ReadWriteCloser
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// Listener is what Serve accepts connections from: any listener whose
// Accept returns a type that satisfies Conn and an error, as
// net.Listener's returns a net.Conn. It names no net type, so a program
// that serves its own sockets links no package net.
type Listener interface{ Close() error }

// ServerOption configures a server at construction time.
type ServerOption func(*Server)

// WithMaxConns caps concurrently open connections (0 = unlimited). A
// connection arriving at the cap receives one "error" reply and is
// closed, so a client can tell a full server from a dead one.
func WithMaxConns(n int) ServerOption {
	return func(s *Server) { s.maxConns = n }
}

// WithIdleTimeout closes connections whose socket stays silent for d
// (0 = never); without it a stalled client pins its goroutine forever.
// The deadline is refreshed on every read, so a slowly streaming client
// is never cut off.
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.idleTimeout = d }
}

// NewServer wraps a monitor.
func NewServer(m *Monitor, opts ...ServerOption) *Server {
	s := &Server{M: m, conns: make(map[Conn]bool)}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// acceptBackoff bounds the retry delays on temporary Accept errors.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// Serve accepts connections until the listener is closed. Temporary
// accept failures (EMFILE, ECONNABORTED, ...) are retried with
// exponential backoff instead of killing the serve loop — under fd
// exhaustion the server degrades instead of dying.
func (s *Server) Serve(l Listener) error {
	accept, err := acceptor(l)
	if err != nil {
		return err
	}
	var backoff time.Duration
	for {
		conn, err := accept()
		if err != nil {
			if ne, ok := err.(interface{ Temporary() bool }); ok && ne.Temporary() {
				if backoff == 0 {
					backoff = acceptBackoffMin
				} else if backoff *= 2; backoff > acceptBackoffMax {
					backoff = acceptBackoffMax
				}
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		s.mu.Lock()
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			s.mu.Unlock()
			s.reject(conn)
			continue
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go s.handle(conn)
	}
}

var (
	connType  = reflect.TypeFor[Conn]()
	errorType = reflect.TypeFor[error]()
)

// acceptor returns l's Accept as a function returning a Conn. Accept
// is found through reflection, so that a net.Listener and a listener
// that links no net serve alike; the name is a constant, so the linker
// still drops the methods no one calls. The call costs one reflect.Call
// per connection, not per commit.
func acceptor(l Listener) (func() (Conn, error), error) {
	m := reflect.ValueOf(l).MethodByName("Accept")
	if !m.IsValid() || m.Type().NumIn() != 0 || m.Type().NumOut() != 2 ||
		!m.Type().Out(0).Implements(connType) || m.Type().Out(1) != errorType {
		return nil, fmt.Errorf("monitor: %T has no Accept method returning a Conn and an error", l)
	}
	return func() (Conn, error) {
		out := m.Call(nil)
		if err, _ := out[1].Interface().(error); err != nil {
			return nil, err
		}
		conn, _ := out[0].Interface().(Conn)
		return conn, nil
	}, nil
}

// reject tells a connection the server is at capacity and closes it.
func (s *Server) reject(conn Conn) {
	if m := s.M.Observer().MetricSink(); m != nil {
		m.ConnectionsRejected.Inc()
	}
	go func() {
		conn.SetWriteDeadline(time.Now().Add(time.Second)) //rtic:errok fails only on a closed conn, whose write then fails too
		fmt.Fprintf(conn, "error server at connection limit (%d)\n", s.maxConns)
		conn.Close() //rtic:errok tearing down a rejected connection; there is no one to report the error to
	}()
}

// Close terminates every open connection.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.Close() //rtic:errok server shutdown discards every connection unconditionally
		delete(s.conns, conn)
	}
}

func (s *Server) handle(conn Conn) {
	m := s.M.Observer().MetricSink()
	if m != nil {
		m.Connections.Inc()
		m.ConnectionsActive.Inc()
	}
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close() //rtic:errok session teardown; a close error on a finished connection changes nothing
		if m != nil {
			m.ConnectionsActive.Dec()
		}
	}()
	// Every reply line goes through w, and nothing flushes it per
	// command: flushReader does, when the scanner is about to wait on the
	// socket. The deferred Flush covers every way out (quit, EOF after a
	// half-close, read errors) and runs before the deferred Close above.
	// Socket I/O goes through sessionIO; conn stays the handle for
	// deadlines, Close and s.conns.
	rd, wr := sessionIO(conn)
	w := bufio.NewWriter(wr)
	defer w.Flush() //rtic:errok the session is over; a client that is gone cannot be told
	src := rd
	if s.idleTimeout > 0 {
		src = &idleReader{conn: conn, src: rd, timeout: s.idleTimeout}
	}
	sc := bufio.NewScanner(&flushReader{w: w, src: src})
	sc.Buffer(make([]byte, 0, 4096), spec.MaxLineBytes)
	replyError := func(format string, args ...interface{}) {
		if m != nil {
			m.ProtocolErrors.Inc()
		}
		fmt.Fprintf(w, "error "+format+"\n", args...)
	}
	// The hot replies skip fmt: "ok N" and violation lines are appended
	// into the buffer's own spare room, the other lines are written part
	// by part. Write errors are sticky in bufio.Writer; the next Flush
	// reports them.
	replyOK := func(n int) {
		b := append(w.AvailableBuffer(), "ok "...)
		b = strconv.AppendInt(b, int64(n), 10)
		w.Write(append(b, '\n')) //rtic:errok sticky; the next Flush reports it
	}
	replyLine := func(parts ...string) {
		for _, p := range parts {
			w.WriteString(p) //rtic:errok sticky; the next Flush reports it
		}
		w.WriteByte('\n')
	}
	replyViolation := func(v check.Violation) {
		b := v.AppendTo(append(w.AvailableBuffer(), "violation "...))
		w.Write(append(b, '\n')) //rtic:errok sticky; the next Flush reports it
	}
	// One transaction serves every commit of the session: each line is
	// parsed into it in place, straight from the scanner's buffer, and
	// the engine borrows it for the one Step (engine.Engine's contract).
	tx := storage.NewTransaction()
	// reported holds a commit's violations while its reply is written,
	// and its storage is the next commit's (Monitor.ApplyInto).
	var reported []check.Violation
	// reply holds a stats line or a whole exposition while it is
	// written; it is kept for the session, so once it has grown to an
	// exposition's size an operator's reads allocate nothing.
	var reply []byte
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		switch {
		case len(line) == 0 || bytes.HasPrefix(line, []byte("--")):
			continue
		case string(line) == "quit":
			return
		case string(line) == "stats":
			reply = s.appendStats(reply[:0])
			w.Write(reply) //rtic:errok sticky; the next Flush reports it
		case string(line) == "metrics":
			if m == nil {
				replyError("metrics not enabled")
				break
			}
			// Render the full exposition before writing any of it: the
			// conn write can stall on a slow reader for as long as the
			// idle timeout allows, and nothing shared with the commit path
			// may be held while it does.
			reply = append(m.Registry().AppendPrometheus(reply[:0]), "# EOF\n"...)
			w.Write(reply) //rtic:errok sticky; the next Flush reports it
		case string(line) == "lint":
			ds := s.M.Diagnostics()
			for _, d := range ds {
				name := d.Constraint
				if name == "" {
					name = "-"
				}
				replyLine("diag ", d.Severity.String(), " ", d.Rule, " ", name, " ", d.Message)
			}
			replyOK(len(ds))
		case string(line) == "recent" || bytes.HasPrefix(line, []byte("recent ")):
			n := 10
			if rest := strings.TrimSpace(string(line[len("recent"):])); rest != "" {
				parsed, err := strconv.Atoi(rest)
				if err != nil || parsed < 1 {
					replyError("recent wants a positive count, got %q", rest)
					break
				}
				n = parsed
			}
			vs := s.M.Recent(n)
			for _, v := range vs {
				replyViolation(v)
			}
			replyOK(len(vs))
		default:
			t, ok, err := spec.ParseLogLineInto(line, s.M.schema, tx)
			if err != nil {
				replyError("%v", err)
				break
			}
			if !ok {
				continue
			}
			vs, err := s.M.ApplyInto(t, tx, reported)
			if err != nil {
				replyError("%v", err)
				break
			}
			reported = vs
			for _, v := range vs {
				replyViolation(v)
			}
			replyOK(len(vs))
		}
	}
	// A scan error (oversized line, mid-line disconnect) would otherwise
	// kill the loop silently; tell the client what happened before the
	// deferred flush and close. bufio reports ErrTooLong for lines over
	// the cap. A failed flush also ends the scan (flushReader passes it
	// on), and then there is no one left to tell.
	if err := sc.Err(); err != nil && w.Flush() == nil {
		switch {
		case errors.Is(err, bufio.ErrTooLong):
			replyError("line exceeds %d bytes", spec.MaxLineBytes)
		case errors.Is(err, os.ErrDeadlineExceeded):
			replyError("idle for more than %s, closing", s.idleTimeout)
		default:
			replyError("read: %v", err)
		}
	}
}

// appendStats appends the stats reply line: the monitor's running
// storage totals, read in O(nodes) under the commit lock.
//
//rtic:noalloc
func (s *Server) appendStats(b []byte) []byte {
	st := s.M.Totals()
	b = append(b, "stats nodes="...)
	b = strconv.AppendInt(b, int64(st.Nodes), 10)
	b = append(b, " entries="...)
	b = strconv.AppendInt(b, int64(st.Entries), 10)
	b = append(b, " timestamps="...)
	b = strconv.AppendInt(b, int64(st.Timestamps), 10)
	b = append(b, " bytes="...)
	b = strconv.AppendInt(b, int64(st.Bytes), 10)
	return append(b, '\n')
}

// flushReader flushes w before every read of src: the scanner asks its
// source for bytes only when it holds no complete line, so this is the
// one place the session can wait on its client, and it never does so
// with replies still in hand.
type flushReader struct {
	w   *bufio.Writer
	src io.Reader
}

func (r *flushReader) Read(p []byte) (int, error) {
	if err := r.w.Flush(); err != nil {
		return 0, err
	}
	return r.src.Read(p)
}

// idleReader refreshes the connection's read deadline before every
// socket read through src, so the deadline measures idle time, not
// connection age.
type idleReader struct {
	conn    Conn
	src     io.Reader
	timeout time.Duration
}

func (r *idleReader) Read(p []byte) (int, error) {
	if err := r.conn.SetReadDeadline(time.Now().Add(r.timeout)); err != nil {
		return 0, err
	}
	return r.src.Read(p)
}
