// Package httpd speaks just enough HTTP/1.x for scrapers, health
// probes and `go tool pprof`: GET and HEAD, keep-alive, no request
// bodies, and every response body rendered in full before its first
// byte is written, so each carries an exact Content-Length. It is the
// daemon's -metrics listener, standing in for net/http, whose TLS,
// HTTP/2 and crypto stacks were half the daemon's binary and most of
// its resident set.
//
// A connection keeps its request line, its response and a body buffer
// across its requests: a route that appends its body to the buffer it
// is handed (a /metrics exposition) is answered without allocating once
// the buffers have grown.
package httpd

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
	"sync"
	"time"
)

// MaxHeaderBytes caps a request line plus its headers.
const MaxHeaderBytes = 8 << 10

// Conn is one accepted connection: a net.Conn, or a socket opened
// without package net.
type Conn interface {
	io.ReadWriteCloser
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// Reply is one rendered response.
type Reply struct {
	Status int
	Type   string // Content-Type
	Body   []byte
}

// Route renders the reply to a GET of its path. query is the raw text
// after '?'. body is an empty buffer the connection keeps across its
// requests: a route may append its body to it and return the result as
// Reply.Body, which the connection then keeps in its place.
type Route func(query string, body []byte) Reply

// Text is a plain-text reply of msg and a newline.
func Text(status int, msg string) Reply {
	return Reply{status, "text/plain; charset=utf-8", []byte(msg + "\n")}
}

// Server answers requests on the connections handed to ServeConn.
type Server struct {
	routes  map[string]Route
	timeout time.Duration
	mu      sync.Mutex
	conns   map[Conn]struct{} // nil once closed
}

// NewServer serves routes by path. timeout bounds the wait for each
// request, from the first byte awaited to the blank line that ends its
// headers, and the write of its response; a client silent or stalled
// past it is closed.
func NewServer(routes map[string]Route, timeout time.Duration) *Server {
	return &Server{routes: routes, timeout: timeout, conns: map[Conn]struct{}{}}
}

// Close drops every open connection; a connection handed to ServeConn
// later is closed at once. A route still rendering, such as a CPU
// profile, finishes its render and then finds its connection closed.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.Close()
	}
	s.conns = nil
}

// ServeConn answers requests on c until the client closes it, stalls
// past the timeout or asks to close, or the server closes; then it
// closes c.
func (s *Server) ServeConn(c Conn) {
	s.mu.Lock()
	if s.conns == nil {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	br := bufio.NewReaderSize(c, MaxHeaderBytes)
	var req request
	var body, out []byte
	for {
		c.SetReadDeadline(time.Now().Add(s.timeout))
		status := req.read(br)
		var rp Reply
		switch {
		case status < 0: // EOF, timeout or reset: nobody to answer
			return
		case status > 0:
			rp = Text(status, statusText[status])
			req.keepAlive = false
		case string(req.method) != "GET" && string(req.method) != "HEAD":
			rp = Text(405, statusText[405])
		default:
			path, query, _ := bytes.Cut(req.target, []byte("?"))
			if r, ok := s.routes[string(path)]; ok {
				rp = r(string(query), body[:0])
				body = rp.Body[:0]
			} else {
				rp = Text(404, "404 page not found")
			}
		}
		// The whole response leaves in one write.
		out = appendHeader(out[:0], rp, req.keepAlive)
		if string(req.method) != "HEAD" {
			out = append(out, rp.Body...)
		}
		c.SetWriteDeadline(time.Now().Add(s.timeout))
		if _, err := c.Write(out); err != nil || !req.keepAlive {
			return
		}
	}
}

// appendHeader appends the status line and headers of rp.
func appendHeader(b []byte, rp Reply, keepAlive bool) []byte {
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(rp.Status), 10)
	b = append(b, ' ')
	b = append(b, statusText[rp.Status]...)
	b = append(b, "\r\nDate: "...)
	b = time.Now().UTC().AppendFormat(b, "Mon, 02 Jan 2006 15:04:05 GMT")
	b = append(b, "\r\nContent-Type: "...)
	b = append(b, rp.Type...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(rp.Body)), 10)
	b = append(b, "\r\n"...)
	if rp.Status == 405 {
		b = append(b, "Allow: GET, HEAD\r\n"...)
	}
	if keepAlive {
		return append(b, "Connection: keep-alive\r\n\r\n"...)
	}
	return append(b, "Connection: close\r\n\r\n"...)
}

// request is the part of one request the server reads: its request
// line's method and target (slices of line, a copy kept across the
// connection's requests) and whether the connection stays open.
type request struct {
	line           []byte
	method, target []byte
	keepAlive      bool
}

// read reads one request line and its headers. It returns 0 for a
// request to answer, an HTTP error status for one to refuse before
// closing (keepAlive is then meaningless), and -1 when the connection
// ended or timed out first.
func (q *request) read(br *bufio.Reader) int {
	q.method, q.target, q.keepAlive = nil, nil, false
	n := 0
	for i := 0; ; i++ {
		b, err := br.ReadSlice('\n')
		if n += len(b); n > MaxHeaderBytes || err == bufio.ErrBufferFull {
			return 431
		}
		if err != nil {
			return -1
		}
		line := bytes.TrimRight(b, "\r\n")
		if i == 0 {
			// The reader reuses its buffer for the headers that follow.
			q.line = append(q.line[:0], line...)
			var proto []byte
			if f0, f1, f2, ok := fields3(q.line); ok {
				q.method, q.target, proto = f0, f1, f2
			}
			if string(proto) != "HTTP/1.1" && string(proto) != "HTTP/1.0" {
				return 400
			}
			q.keepAlive = string(proto) == "HTTP/1.1"
			continue
		}
		if len(line) == 0 {
			return 0
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 400
		}
		value = bytes.TrimSpace(value)
		switch name = bytes.TrimSpace(name); {
		case bytes.EqualFold(name, []byte("content-length")):
			if string(value) != "0" {
				return 400
			}
		case bytes.EqualFold(name, []byte("transfer-encoding")):
			return 400
		case bytes.EqualFold(name, []byte("connection")):
			for len(value) > 0 {
				var tok []byte
				tok, value, _ = bytes.Cut(value, []byte(","))
				switch tok = bytes.TrimSpace(tok); {
				case bytes.EqualFold(tok, []byte("close")):
					q.keepAlive = false
				case bytes.EqualFold(tok, []byte("keep-alive")):
					q.keepAlive = true
				}
			}
		}
	}
}

// fields3 splits line around runs of ASCII white space into exactly
// three fields.
func fields3(line []byte) (f0, f1, f2 []byte, ok bool) {
	var f [3][]byte
	n := 0
	for i := 0; i < len(line); {
		for i < len(line) && isSpace(line[i]) {
			i++
		}
		j := i
		for j < len(line) && !isSpace(line[j]) {
			j++
		}
		if j > i {
			if n == len(f) {
				return nil, nil, nil, false
			}
			f[n] = line[i:j]
			n++
		}
		i = j
	}
	return f[0], f[1], f[2], n == len(f)
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

var statusText = map[int]string{
	200: "OK",
	400: "Bad Request",
	404: "Not Found",
	405: "Method Not Allowed",
	431: "Request Header Fields Too Large",
	500: "Internal Server Error",
}
