package monitor

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"rtic/internal/obs"
)

// tempError satisfies the Temporary() contract the accept loop retries on.
type tempError struct{}

func (tempError) Error() string   { return "injected temporary accept failure" }
func (tempError) Temporary() bool { return true }

// flakyListener fails Accept with temporary errors a configured number
// of times, then serves queued connections, then fails permanently.
type flakyListener struct {
	tempFails int
	conns     chan net.Conn
	accepts   int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.accepts++
	if l.tempFails > 0 {
		l.tempFails--
		return nil, tempError{}
	}
	if c, ok := <-l.conns; ok {
		return c, nil
	}
	return nil, fmt.Errorf("listener closed")
}

func (l *flakyListener) Close() error   { close(l.conns); return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4zero} }

// TestServeRetriesTemporaryAcceptErrors proves the serve loop survives a
// burst of temporary accept failures (EMFILE-style) and still serves the
// connection behind them, instead of returning on the first error.
func TestServeRetriesTemporaryAcceptErrors(t *testing.T) {
	m, _ := hrMonitor(t)
	srv := NewServer(m)
	client, server := net.Pipe()
	defer client.Close()
	l := &flakyListener{tempFails: 4, conns: make(chan net.Conn, 1)}
	l.conns <- server

	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(srv.Close)

	// The connection behind the failures must still get service.
	client.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Write([]byte("@1 +fire(3)\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := client.Read(buf)
	if err != nil || strings.TrimSpace(string(buf[:n])) != "ok 0" {
		t.Fatalf("reply = %q, err = %v", buf[:n], err)
	}

	// A permanent error still terminates Serve.
	l.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Serve returned nil on a permanent accept error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after a permanent accept error")
	}
	if l.accepts < 6 { // 4 temporary failures + 1 conn + 1 permanent
		t.Errorf("Accept called %d times, want at least 6", l.accepts)
	}
}

func startHardenedServer(t *testing.T, opts ...ServerOption) (*Server, net.Addr) {
	t.Helper()
	m, _ := hrMonitor(t)
	m.SetObserver(&obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())})
	srv := NewServer(m, opts...)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck — returns when the listener closes
	t.Cleanup(func() {
		l.Close()
		srv.Close()
	})
	return srv, l.Addr()
}

// TestServerMaxConns fills the connection cap and expects the next
// client to be told the server is full — and service to resume once a
// slot frees up.
func TestServerMaxConns(t *testing.T) {
	srv, addr := startHardenedServer(t, WithMaxConns(1))

	first := dial(t, addr)
	first.send(t, "@1 +fire(1)")
	if got := first.recv(t); got != "ok 0" { // handle() running → slot taken
		t.Fatalf("first client reply = %q", got)
	}

	second := dial(t, addr)
	if got := second.recv(t); !strings.Contains(got, "connection limit (1)") {
		t.Fatalf("over-cap reply = %q, want a connection-limit error", got)
	}
	if _, err := second.r.ReadString('\n'); err == nil {
		t.Fatal("over-cap connection left open")
	}
	mm := srv.M.Observer().MetricSink()
	if mm.ConnectionsRejected.Value() != 1 {
		t.Errorf("ConnectionsRejected = %d, want 1", mm.ConnectionsRejected.Value())
	}

	// Free the slot; a new client is eventually admitted (the handler's
	// deferred cleanup races the next accept, so poll).
	first.send(t, "quit")
	deadline := time.Now().Add(5 * time.Second)
	for {
		third := dial(t, addr)
		third.send(t, "@2 +fire(2)")
		if got := third.recv(t); got == "ok 0" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no client admitted after the slot freed up")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerIdleTimeout expects a silent connection to be told why it is
// being closed, and a busy one to stay connected well past the timeout.
func TestServerIdleTimeout(t *testing.T) {
	_, addr := startHardenedServer(t, WithIdleTimeout(150*time.Millisecond))

	busy := dial(t, addr)
	idle := dial(t, addr)
	idle.send(t, "@1 +fire(1)")
	if got := idle.recv(t); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}

	// The busy client keeps talking across several timeout windows: the
	// deadline must refresh on every read.
	for i := 0; i < 5; i++ {
		time.Sleep(60 * time.Millisecond)
		busy.send(t, "stats")
		if got := busy.recv(t); !strings.HasPrefix(got, "stats ") {
			t.Fatalf("busy client cut off at round %d: %q", i, got)
		}
	}

	// The idle one is disconnected with an explanation.
	if got := idle.recv(t); !strings.Contains(got, "idle for more than") {
		t.Fatalf("idle disconnect reply = %q", got)
	}
	if _, err := idle.r.ReadString('\n'); err == nil {
		t.Fatal("idle connection left open after the deadline reply")
	}
}
