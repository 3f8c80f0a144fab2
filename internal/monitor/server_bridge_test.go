package monitor

import (
	"net"
	"strings"
	"testing"
	"time"
)

// ladderListener has the shape of the benchmark ladder's traced
// listener: a net.Listener whose Accept returns its own conn type.
type ladderListener struct{ net.Listener }

type ladderConn struct{ net.Conn }

func (l *ladderListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &ladderConn{c}, nil
}

// TestServeNetListenerWrapper: Serve reaches a net.Listener's Accept
// through reflection, serves a commit over the wrapper's conn and
// returns once the listener closes.
func TestServeNetListenerWrapper(t *testing.T) {
	m, _ := hrMonitor(t)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var l net.Listener = &ladderListener{inner}
	srv := NewServer(m)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(srv.Close)

	c := dial(t, inner.Addr())
	c.send(t, "@1 +fire(7)")
	if got := c.recv(t); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}
	l.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Serve returned nil after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the listener closed")
	}
}

// connListener's Accept returns a Conn rather than a net.Conn.
type connListener struct{ l net.Listener }

func (l connListener) Accept() (Conn, error) { return l.l.Accept() }
func (l connListener) Close() error          { return l.l.Close() }

// TestServeConnListener: a listener whose Accept returns a Conn serves
// as a net.Listener does, and a Listener with no usable Accept is
// refused at once.
func TestServeConnListener(t *testing.T) {
	m, _ := hrMonitor(t)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m)
	go srv.Serve(connListener{inner}) //nolint:errcheck — returns when the listener closes
	t.Cleanup(func() {
		inner.Close()
		srv.Close()
	})
	c := dial(t, inner.Addr())
	c.send(t, "@1 +fire(7)")
	if got := c.recv(t); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}

	type closerOnly struct{ Listener }
	err = srv.Serve(closerOnly{})
	if err == nil || !strings.Contains(err.Error(), "no Accept method") {
		t.Fatalf("Serve over a listener without Accept: %v", err)
	}
}
