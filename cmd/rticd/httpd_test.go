package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"rtic/internal/httpd"
)

// startMetrics starts a daemon on hrSpec with the -metrics listener and
// shuts it down when the test ends.
func startMetrics(t *testing.T, opts options) *daemon {
	t.Helper()
	dir := t.TempDir()
	opts.specPath = writeSpec(t, dir, "hr.rtic", hrSpec)
	opts.listen, opts.metricsAddr = "127.0.0.1:0", "127.0.0.1:0"
	if opts.walPath != "" {
		opts.walPath = filepath.Join(dir, opts.walPath)
	}
	d, err := start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.shutdown() })
	return d
}

// rawConn is one client connection to the metrics listener that writes
// requests byte for byte and reads responses with net/http's parser.
type rawConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialMetrics(t *testing.T, d *daemon) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", d.hl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() { c.Close() })
	return &rawConn{c, bufio.NewReader(c)}
}

func (rc *rawConn) send(t *testing.T, req string) {
	t.Helper()
	if _, err := io.WriteString(rc.c, req); err != nil {
		t.Fatal(err)
	}
}

// read parses the next response to a request of the given method and
// returns it with its body.
func (rc *rawConn) read(t *testing.T, method string) (*http.Response, string) {
	t.Helper()
	resp, err := http.ReadResponse(rc.br, &http.Request{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// closed reports whether the server closed the connection: the next
// read ends without a byte.
func (rc *rawConn) closed(t *testing.T) bool {
	t.Helper()
	_, err := rc.br.ReadByte()
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false
	}
	return err != nil
}

func TestMetricsResponder(t *testing.T) {
	d := startMetrics(t, options{})
	base := "http://" + d.hl.Addr().String()

	t.Run("HEAD sends headers only", func(t *testing.T) {
		rc := dialMetrics(t, d)
		// Pipelined: a body after the HEAD reply would be misread as the
		// status line of the GET's.
		rc.send(t, "HEAD /metrics HTTP/1.1\r\nHost: x\r\n\r\nGET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
		resp, body := rc.read(t, "HEAD")
		if resp.StatusCode != 200 || body != "" || resp.ContentLength <= 0 {
			t.Fatalf("HEAD /metrics: status %d, Content-Length %d, body %q", resp.StatusCode, resp.ContentLength, body)
		}
		if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
			t.Errorf("HEAD /metrics Content-Type = %q", got)
		}
		if resp, body := rc.read(t, "GET"); resp.StatusCode != 200 || !strings.Contains(body, `"status":"ok"`) {
			t.Fatalf("GET after HEAD: status %d, body %q", resp.StatusCode, body)
		}
	})

	t.Run("unknown path", func(t *testing.T) {
		resp, err := http.Get(base + "/nope")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET /nope: status %d, want 404", resp.StatusCode)
		}
	})

	t.Run("POST", func(t *testing.T) {
		resp, err := http.Post(base+"/metrics", "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD" {
			t.Fatalf("POST /metrics: status %d, Allow %q, want 405 with GET, HEAD", resp.StatusCode, resp.Header.Get("Allow"))
		}
	})

	t.Run("keep-alive", func(t *testing.T) {
		rc := dialMetrics(t, d)
		for i := 0; i < 2; i++ {
			rc.send(t, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
			resp, body := rc.read(t, "GET")
			if resp.StatusCode != 200 || resp.Close || !strings.Contains(body, "rtic_commits_total") {
				t.Fatalf("request %d on one connection: status %d, close %v", i, resp.StatusCode, resp.Close)
			}
		}
		// HTTP/1.0 and Connection: close both end the connection after
		// the reply.
		rc.send(t, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
		if resp, _ := rc.read(t, "GET"); resp.StatusCode != 200 || !resp.Close || !rc.closed(t) {
			t.Fatalf("Connection: close: status %d, connection kept", resp.StatusCode)
		}
		rc = dialMetrics(t, d)
		rc.send(t, "GET /healthz HTTP/1.0\r\n\r\n")
		if resp, _ := rc.read(t, "GET"); resp.StatusCode != 200 || !rc.closed(t) {
			t.Fatalf("HTTP/1.0: status %d, connection kept", resp.StatusCode)
		}
	})

	t.Run("oversized headers", func(t *testing.T) {
		rc := dialMetrics(t, d)
		rc.send(t, "GET /metrics HTTP/1.1\r\nX-Pad: "+strings.Repeat("a", httpd.MaxHeaderBytes)+"\r\n\r\n")
		if resp, _ := rc.read(t, "GET"); resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge || !rc.closed(t) {
			t.Fatalf("oversized headers: status %d, want 431 and a close", resp.StatusCode)
		}
	})

	t.Run("request body", func(t *testing.T) {
		for _, hdr := range []string{"Content-Length: 5", "Transfer-Encoding: chunked"} {
			rc := dialMetrics(t, d)
			rc.send(t, "GET /metrics HTTP/1.1\r\n"+hdr+"\r\n\r\nhello")
			if resp, _ := rc.read(t, "GET"); resp.StatusCode != http.StatusBadRequest || !rc.closed(t) {
				t.Fatalf("%s: status %d, want 400 and a close", hdr, resp.StatusCode)
			}
		}
	})
}

// TestMetricsRequestDeadline: a client that sends half a request and
// falls silent is closed at the request deadline, not held forever.
func TestMetricsRequestDeadline(t *testing.T) {
	defer func(old time.Duration) { requestTimeout = old }(requestTimeout)
	requestTimeout = 200 * time.Millisecond
	d := startMetrics(t, options{})

	rc := dialMetrics(t, d)
	rc.send(t, "GET /metrics HTTP/1.1\r\nHost: x\r\n")
	began := time.Now()
	if !rc.closed(t) {
		t.Fatal("half-sent request still open after 10s")
	}
	if took := time.Since(began); took > 5*time.Second {
		t.Fatalf("half-sent request closed after %v, want about %v", took, requestTimeout)
	}
}

func TestPprofProfiles(t *testing.T) {
	d := startMetrics(t, options{pprof: true})
	base := "http://" + d.hl.Addr().String()

	resp, err := http.Get(base + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
		t.Fatalf("CPU profile: status %d, %d bytes, want a gzip-compressed profile", resp.StatusCode, len(body))
	}

	for _, p := range []string{"profile?seconds=x", "profile?seconds=0", "trace?seconds=x", "heap?debug=x"} {
		resp, err := http.Get(base + "/debug/pprof/" + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/debug/pprof/%s: status %d, want 400", p, resp.StatusCode)
		}
	}
	index := httpGet(t, base+"/debug/pprof/")
	for _, name := range profiles {
		if !strings.Contains(index, name) {
			t.Errorf("pprof index does not list %s:\n%s", name, index)
		}
		if body := httpGet(t, base+"/debug/pprof/"+name+"?debug=1"); body == "" {
			t.Errorf("/debug/pprof/%s?debug=1 is empty", name)
		}
	}
	// The runtime symbolizes its profiles: the endpoints that served
	// net/http/pprof's symbol lookups are gone.
	for _, p := range []string{"cmdline", "symbol"} {
		resp, err := http.Get(base + "/debug/pprof/" + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("/debug/pprof/%s: status %d, want 404", p, resp.StatusCode)
		}
	}
}

// TestHealthzFields: /healthz carries the same fields on a journaled
// daemon and on a sharded one.
func TestHealthzFields(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts options
		want []string
	}{
		{"journaled", options{walPath: "state.wal"}, []string{"durability", "lint", "now", "states", "status"}},
		{"sharded", options{shards: 2}, []string{"lint", "now", "shards", "states", "status"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := startMetrics(t, tc.opts)
			c := dialLine(t, d)
			c.commit(t, "@0 +fire(7)")
			c.commit(t, "@5 -fire(7) +hire(7)")
			var h map[string]json.RawMessage
			body := httpGet(t, "http://"+d.hl.Addr().String()+"/healthz")
			if err := json.Unmarshal([]byte(body), &h); err != nil {
				t.Fatalf("/healthz: %v: %s", err, body)
			}
			var keys []string
			for k := range h {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if !slices.Equal(keys, tc.want) {
				t.Fatalf("/healthz fields = %v, want %v: %s", keys, tc.want, body)
			}
			if string(h["status"]) != `"ok"` || string(h["states"]) != "2" || string(h["now"]) != "5" ||
				string(h["lint"]) != `{"errors":0,"findings":0,"warnings":0}` {
				t.Errorf("/healthz = %s", body)
			}
			if s, ok := h["shards"]; ok && string(s) != "2" {
				t.Errorf("/healthz shards = %s, want 2", s)
			}
			if dur, ok := h["durability"]; ok {
				var fields map[string]any
				if err := json.Unmarshal(dur, &fields); err != nil {
					t.Fatal(err)
				}
				for _, k := range []string{"status", "policy", "last_checkpoint_age_seconds", "wal_bytes", "replayed_records"} {
					if _, ok := fields[k]; !ok {
						t.Errorf("/healthz durability lacks %s: %s", k, dur)
					}
				}
			}
		})
	}
}

// TestHealthzReadsOneCommit commits the hr feed, the k-th commit at
// t = k, in trains of 10 while /healthz is read on a kept-alive
// connection: states and now come from one acquisition of the commit
// lock, so every body reads now == states. Two acquisitions let a
// commit land between them and show now = states + 1.
func TestHealthzReadsOneCommit(t *testing.T) {
	d := startMetrics(t, options{})
	const commits = 3000
	done := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", d.l.Addr().String())
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(20 * time.Second))
		r := bufio.NewReader(conn)
		for k := 1; k <= commits; k += 10 {
			var train []byte
			for j := k; j < k+10; j++ {
				train = fmt.Appendf(train, "@%d -fire(%d) +fire(%d)\n", j, j-1, j)
			}
			if _, err := conn.Write(train); err != nil {
				done <- err
				return
			}
			for j := 0; j < 10; j++ {
				if line, err := r.ReadString('\n'); err != nil || line != "ok 0\n" {
					done <- fmt.Errorf("commit %d: reply %q, %v", k+j, line, err)
					return
				}
			}
		}
		done <- nil
	}()
	rc := dialMetrics(t, d)
	reads, mixed := 0, 0
	for finished := false; !finished; reads++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
		}
		rc.send(t, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
		_, body := rc.read(t, "GET")
		var h struct{ States, Now uint64 }
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatalf("/healthz: %v: %s", err, body)
		}
		if h.Now != h.States {
			mixed++
			t.Errorf("/healthz read %d: now %d, states %d: %s", reads, h.Now, h.States, body)
		}
		if finished && h.States != commits {
			t.Errorf("/healthz after the last commit: states %d, want %d", h.States, commits)
		}
	}
	t.Logf("%d /healthz reads beside %d commits, %d mixed two commits", reads, commits, mixed)
}
