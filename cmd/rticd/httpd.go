package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"rtic/internal/httpd"
)

// requestTimeout bounds the wait for one request on the -metrics
// listener, from the first byte awaited to the blank line that ends its
// headers, and the write of its response (httpd.NewServer). A constant
// in all but name: tests shorten it before a daemon starts.
var requestTimeout = 30 * time.Second

// metricsServer serves the -metrics listener's routes (internal/httpd)
// on every connection it accepts, until close.
type metricsServer struct {
	*httpd.Server
	l listener
}

func serveHTTP(l listener, routes map[string]httpd.Route) *metricsServer {
	s := &metricsServer{httpd.NewServer(routes, requestTimeout), l}
	go s.serve()
	return s
}

func (s *metricsServer) serve() {
	for {
		c, err := s.l.Accept()
		if err != nil {
			if ne, ok := err.(interface{ Temporary() bool }); ok && ne.Temporary() {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return
		}
		go s.ServeConn(c)
	}
}

// close stops the listener and drops every open connection.
func (s *metricsServer) close() {
	s.l.Close()
	s.Server.Close()
}

// profiles are the runtime profiles -pprof serves by name; the runtime
// symbolizes them, so there is no symbol endpoint.
var profiles = []string{"goroutine", "heap", "allocs", "block", "mutex", "threadcreate"}

// addPprofRoutes serves the runtime's profiles under /debug/pprof/.
func addPprofRoutes(routes map[string]httpd.Route) {
	routes["/debug/pprof/"] = func(string, []byte) httpd.Reply {
		var b bytes.Buffer
		fmt.Fprintln(&b, "profile?seconds=N  CPU profile over N seconds (default 30)")
		fmt.Fprintln(&b, "trace?seconds=N    execution trace over N seconds (default 1)")
		for _, name := range profiles {
			fmt.Fprintf(&b, "%-18s %d (?debug=1 for text)\n", name, pprof.Lookup(name).Count())
		}
		return httpd.Reply{Status: 200, Type: "text/plain; charset=utf-8", Body: b.Bytes()}
	}
	routes["/debug/pprof/profile"] = timed(30, pprof.StartCPUProfile, pprof.StopCPUProfile)
	routes["/debug/pprof/trace"] = timed(1, trace.Start, trace.Stop)
	for _, name := range profiles {
		routes["/debug/pprof/"+name] = func(query string, _ []byte) httpd.Reply {
			debug, err := intParam(query, "debug", 0)
			if err != nil || debug < 0 {
				return httpd.Text(400, "invalid value for debug")
			}
			var b bytes.Buffer
			if err := pprof.Lookup(name).WriteTo(&b, debug); err != nil {
				return httpd.Text(500, err.Error())
			}
			if debug > 0 {
				return httpd.Reply{Status: 200, Type: "text/plain; charset=utf-8", Body: b.Bytes()}
			}
			return httpd.Reply{Status: 200, Type: "application/octet-stream", Body: b.Bytes()}
		}
	}
}

// timed is a route that records between start and stop for ?seconds=N.
func timed(def int, start func(w io.Writer) error, stop func()) httpd.Route {
	return func(query string, _ []byte) httpd.Reply {
		sec, err := intParam(query, "seconds", def)
		if err != nil || sec <= 0 {
			return httpd.Text(400, "invalid value for seconds")
		}
		var b bytes.Buffer
		if err := start(&b); err != nil {
			return httpd.Text(500, "could not start: "+err.Error())
		}
		time.Sleep(time.Duration(sec) * time.Second)
		stop()
		return httpd.Reply{Status: 200, Type: "application/octet-stream", Body: b.Bytes()}
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
