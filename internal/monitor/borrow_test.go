package monitor

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
)

// startServerOn serves m on a loopback listener for the test's lifetime.
func startServerOn(t *testing.T, m *Monitor) net.Addr {
	t.Helper()
	srv := NewServer(m)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck — returns when the listener closes
	t.Cleanup(func() {
		l.Close()
		srv.Close()
	})
	return l.Addr()
}

// rehireLines is a session's feed: every employee k is fired (as k-1
// leaves), then rehired in the next commit, so every second commit
// reports one violation, whose witness (e=k) differs from every other's.
func rehireLines(n int) []string {
	var lines []string
	for k := 1; k <= n; k++ {
		lines = append(lines, fmt.Sprintf("@%d +fire(%d) -hire(%d)", 2*k, k, k-1), fmt.Sprintf("@%d -fire(%d) +hire(%d)", 2*k+1, k, k))
	}
	return lines
}

// TestSessionReusesTransaction: a session parses every line into one
// transaction, so what the monitor keeps of a commit must not read that
// transaction. After 200 commits through one session, the violations
// Recent holds and those a subscriber received still read as the
// session's replies did when each was committed.
func TestSessionReusesTransaction(t *testing.T) {
	m, _ := hrMonitor(t)
	sub, cancel := m.Subscribe(256)
	defer cancel()
	c := dial(t, startServerOn(t, m))
	var replied []string
	for _, line := range rehireLines(100) {
		c.send(t, line)
		for {
			got := c.recv(t)
			if v, ok := strings.CutPrefix(got, "violation "); ok {
				replied = append(replied, v)
				continue
			}
			if !strings.HasPrefix(got, "ok ") {
				t.Fatalf("%s: reply %q", line, got)
			}
			break
		}
	}
	if len(replied) != 100 {
		t.Fatalf("%d violations, want 100", len(replied))
	}
	for i := range replied {
		select {
		case v := <-sub:
			if v.String() != replied[i] {
				t.Errorf("subscriber's violation %d reads %q, the reply read %q", i, v.String(), replied[i])
			}
		default:
			t.Fatalf("subscriber holds %d violations, want %d", i, len(replied))
		}
	}
	recent := m.Recent(0)
	tail := replied[len(replied)-len(recent):]
	for i, v := range recent {
		if v.String() != tail[i] {
			t.Errorf("recent violation %d reads %q, the reply read %q", i, v.String(), tail[i])
		}
	}
}

// TestSessionReadersBesideWriter: one session commits while another
// reads stats, recent violations and metrics. Under -race this holds
// that nothing outside Step reads core's delta, which points into the
// writing session's transaction while the session parses its next line.
func TestSessionReadersBesideWriter(t *testing.T) {
	m, _ := observedMonitor(t)
	addr := startServerOn(t, m)
	writer, reader := dial(t, addr), dial(t, addr)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, cmd := range []string{"stats", "recent 5", "metrics"} {
				if _, err := reader.conn.Write([]byte(cmd + "\n")); err != nil {
					t.Error(err)
					return
				}
				for {
					line, err := reader.r.ReadString('\n')
					if err != nil {
						t.Error(err)
						return
					}
					if strings.HasPrefix(line, "error") {
						t.Errorf("%s: %s", cmd, line)
						return
					}
					if strings.HasPrefix(line, "stats ") || strings.HasPrefix(line, "ok ") || line == "# EOF\n" {
						break
					}
				}
			}
		}
	}()
	lines := rehireLines(150)
	for i := 0; i < len(lines); i += 6 {
		train := lines[i:min(i+6, len(lines))]
		if _, err := writer.conn.Write([]byte(strings.Join(train, "\n") + "\n")); err != nil {
			t.Fatal(err)
		}
		for acked := 0; acked < len(train); {
			got := writer.recv(t)
			switch {
			case strings.HasPrefix(got, "ok "):
				acked++
			case !strings.HasPrefix(got, "violation "):
				t.Fatalf("reply %q", got)
			}
		}
	}
	close(done)
	wg.Wait()
	if got := m.Len(); got != len(lines) {
		t.Fatalf("%d commits, want %d", got, len(lines))
	}
}
