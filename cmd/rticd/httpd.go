package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"sync"
	"time"

	"rtic/internal/monitor"
)

// The -metrics listener speaks just enough HTTP/1.x for scrapers, health
// probes and `go tool pprof`: GET and HEAD, keep-alive, no request
// bodies, and every response body rendered in full before its first
// byte is written, so each carries an exact Content-Length. It stands
// in for net/http, whose TLS, HTTP/2 and crypto stacks were half the
// daemon's binary and most of its resident set.

// requestTimeout bounds the wait for one request, from the first byte
// awaited to the blank line that ends its headers, and the write of its
// response; a client silent or stalled past it is closed. A constant in
// all but name: tests shorten it before a daemon starts.
var requestTimeout = 30 * time.Second

// maxHeaderBytes caps a request line plus its headers.
const maxHeaderBytes = 8 << 10

// reply is one rendered response.
type reply struct {
	status int
	ctype  string
	body   []byte
}

// route renders the reply to a GET of its path; query is the raw text
// after '?'.
type route func(query string) reply

func textReply(status int, msg string) reply {
	return reply{status, "text/plain; charset=utf-8", []byte(msg + "\n")}
}

// httpd serves routes on one listener until close.
type httpd struct {
	routes  map[string]route
	l       listener
	timeout time.Duration // requestTimeout when serving began
	mu      sync.Mutex
	conns   map[monitor.Conn]struct{} // nil once closed
}

func serveHTTP(l listener, routes map[string]route) *httpd {
	s := &httpd{routes: routes, l: l, timeout: requestTimeout, conns: map[monitor.Conn]struct{}{}}
	go s.serve()
	return s
}

func (s *httpd) serve() {
	for {
		c, err := s.l.Accept()
		if err != nil {
			if ne, ok := err.(interface{ Temporary() bool }); ok && ne.Temporary() {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return
		}
		s.mu.Lock()
		if s.conns == nil {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go s.handle(c)
	}
}

// close stops the listener and drops every open connection. A handler
// still rendering, such as a CPU profile, finishes its render and then
// finds its connection closed.
func (s *httpd) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.l.Close()
	for c := range s.conns {
		c.Close()
	}
	s.conns = nil
}

func (s *httpd) handle(c monitor.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	br := bufio.NewReaderSize(c, maxHeaderBytes)
	for {
		c.SetReadDeadline(time.Now().Add(s.timeout))
		method, target, keepAlive, status := readRequest(br)
		var rp reply
		switch {
		case status < 0: // EOF, timeout or reset: nobody to answer
			return
		case status > 0:
			rp = textReply(status, statusText[status])
			keepAlive = false
		case method != "GET" && method != "HEAD":
			rp = textReply(405, statusText[405])
		default:
			path, query, _ := strings.Cut(target, "?")
			if r, ok := s.routes[path]; ok {
				rp = r(query)
			} else {
				rp = textReply(404, "404 page not found")
			}
		}
		// The whole response leaves in one write.
		var out bytes.Buffer
		fmt.Fprintf(&out, "HTTP/1.1 %d %s\r\nDate: %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n",
			rp.status, statusText[rp.status], time.Now().UTC().Format("Mon, 02 Jan 2006 15:04:05 GMT"), rp.ctype, len(rp.body))
		if rp.status == 405 {
			out.WriteString("Allow: GET, HEAD\r\n")
		}
		conn := "close"
		if keepAlive {
			conn = "keep-alive"
		}
		fmt.Fprintf(&out, "Connection: %s\r\n\r\n", conn)
		if method != "HEAD" {
			out.Write(rp.body)
		}
		c.SetWriteDeadline(time.Now().Add(s.timeout))
		if _, err := c.Write(out.Bytes()); err != nil || !keepAlive {
			return
		}
	}
}

// readRequest reads one request line and its headers. status is 0 for
// a request to answer, an HTTP error status for one to refuse before
// closing, and -1 when the connection ended or timed out first.
func readRequest(br *bufio.Reader) (method, target string, keepAlive bool, status int) {
	n := 0
	for i := 0; ; i++ {
		b, err := br.ReadSlice('\n')
		if n += len(b); n > maxHeaderBytes || err == bufio.ErrBufferFull {
			return method, target, false, 431
		}
		if err != nil {
			return method, target, false, -1
		}
		line := strings.TrimRight(string(b), "\r\n")
		if i == 0 {
			var proto string
			f := strings.Fields(line)
			if len(f) == 3 {
				method, target, proto = f[0], f[1], f[2]
			}
			if proto != "HTTP/1.1" && proto != "HTTP/1.0" {
				return method, target, false, 400
			}
			keepAlive = proto == "HTTP/1.1"
			continue
		}
		if line == "" {
			return method, target, keepAlive, 0
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return method, target, false, 400
		}
		value = strings.ToLower(strings.TrimSpace(value))
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "content-length":
			if value != "0" {
				return method, target, false, 400
			}
		case "transfer-encoding":
			return method, target, false, 400
		case "connection":
			for _, tok := range strings.Split(value, ",") {
				switch strings.TrimSpace(tok) {
				case "close":
					keepAlive = false
				case "keep-alive":
					keepAlive = true
				}
			}
		}
	}
}

var statusText = map[int]string{
	200: "OK",
	400: "Bad Request",
	404: "Not Found",
	405: "Method Not Allowed",
	431: "Request Header Fields Too Large",
	500: "Internal Server Error",
}

// profiles are the runtime profiles -pprof serves by name; the runtime
// symbolizes them, so there is no symbol endpoint.
var profiles = []string{"goroutine", "heap", "allocs", "block", "mutex", "threadcreate"}

// addPprofRoutes serves the runtime's profiles under /debug/pprof/.
func addPprofRoutes(routes map[string]route) {
	routes["/debug/pprof/"] = func(string) reply {
		var b bytes.Buffer
		fmt.Fprintln(&b, "profile?seconds=N  CPU profile over N seconds (default 30)")
		fmt.Fprintln(&b, "trace?seconds=N    execution trace over N seconds (default 1)")
		for _, name := range profiles {
			fmt.Fprintf(&b, "%-18s %d (?debug=1 for text)\n", name, pprof.Lookup(name).Count())
		}
		return reply{200, "text/plain; charset=utf-8", b.Bytes()}
	}
	routes["/debug/pprof/profile"] = timed(30, pprof.StartCPUProfile, pprof.StopCPUProfile)
	routes["/debug/pprof/trace"] = timed(1, trace.Start, trace.Stop)
	for _, name := range profiles {
		routes["/debug/pprof/"+name] = func(query string) reply {
			debug, err := intParam(query, "debug", 0)
			if err != nil || debug < 0 {
				return textReply(400, "invalid value for debug")
			}
			var b bytes.Buffer
			if err := pprof.Lookup(name).WriteTo(&b, debug); err != nil {
				return textReply(500, err.Error())
			}
			if debug > 0 {
				return reply{200, "text/plain; charset=utf-8", b.Bytes()}
			}
			return reply{200, "application/octet-stream", b.Bytes()}
		}
	}
}

// timed is a route that records between start and stop for ?seconds=N.
func timed(def int, start func(w io.Writer) error, stop func()) route {
	return func(query string) reply {
		sec, err := intParam(query, "seconds", def)
		if err != nil || sec <= 0 {
			return textReply(400, "invalid value for seconds")
		}
		var b bytes.Buffer
		if err := start(&b); err != nil {
			return textReply(500, "could not start: "+err.Error())
		}
		time.Sleep(time.Duration(sec) * time.Second)
		stop()
		return reply{200, "application/octet-stream", b.Bytes()}
	}
}

// intParam is the integer value of key in a raw query, def when absent.
func intParam(query, key string, def int) (int, error) {
	for _, kv := range strings.Split(query, "&") {
		if k, v, _ := strings.Cut(kv, "="); k == key {
			return strconv.Atoi(v)
		}
	}
	return def, nil
}
