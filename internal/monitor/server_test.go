package monitor

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtic/internal/obs"
	"rtic/internal/schema"
	"rtic/internal/workload"
)

func startServer(t *testing.T) (*Server, net.Addr) {
	t.Helper()
	m, _ := hrMonitor(t)
	return serve(t, m)
}

// serve starts a server over m on a loopback listener closed at cleanup.
func serve(t *testing.T, m *Monitor) (*Server, net.Addr) {
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
	return srv, l.Addr()
}

type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr net.Addr) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

func (c *client) send(t *testing.T, line string) {
	t.Helper()
	if _, err := c.conn.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
}

func (c *client) recv(t *testing.T) string {
	t.Helper()
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(line)
}

func TestServerProtocol(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	c.send(t, "@0 +fire(7)")
	if got := c.recv(t); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}

	c.send(t, "@100 -fire(7) +hire(7)")
	if got := c.recv(t); !strings.HasPrefix(got, "violation no_quick_rehire") {
		t.Fatalf("reply = %q", got)
	}
	if got := c.recv(t); got != "ok 1" {
		t.Fatalf("reply = %q", got)
	}

	c.send(t, "stats")
	if got := c.recv(t); !strings.HasPrefix(got, "stats nodes=1") {
		t.Fatalf("reply = %q", got)
	}
}

func TestServerErrors(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	c.send(t, "@5 +nosuch(1)")
	if got := c.recv(t); !strings.HasPrefix(got, "error") {
		t.Fatalf("reply = %q", got)
	}
	// Connection survives errors.
	c.send(t, "@5 +fire(1)")
	if got := c.recv(t); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}
	// Stale timestamp.
	c.send(t, "@5 +fire(2)")
	if got := c.recv(t); !strings.HasPrefix(got, "error") {
		t.Fatalf("reply = %q", got)
	}
	// Malformed line.
	c.send(t, "bogus")
	if got := c.recv(t); !strings.HasPrefix(got, "error") {
		t.Fatalf("reply = %q", got)
	}
}

func TestServerMultipleClients(t *testing.T) {
	_, addr := startServer(t)
	a := dial(t, addr)
	b := dial(t, addr)

	a.send(t, "@1 +fire(1)")
	if got := a.recv(t); got != "ok 0" {
		t.Fatalf("a reply = %q", got)
	}
	// Client b shares the same monitor and clock.
	b.send(t, "@2 +hire(1)")
	if got := b.recv(t); !strings.HasPrefix(got, "violation") {
		t.Fatalf("b reply = %q", got)
	}
	if got := b.recv(t); got != "ok 1" {
		t.Fatalf("b reply = %q", got)
	}
}

// TestServerConcurrentReplies runs two writer sessions that commit
// violating transactions at the same time: every reply must report its
// own commit. The engine's report is valid only until its next Step,
// which the other session may take as soon as the commit lock is
// released, so a reply written from it after that could carry the other
// commit's violation (and -race flags the overlap). Only a commit's own
// new row violates p(x) -> prev p(x). A commit that lost the race for
// the next timestamp is refused, and its reply is an error.
func TestServerConcurrentReplies(t *testing.T) {
	s := schema.NewBuilder().Relation("p", 1).MustBuild()
	m, err := New(s, []workload.ConstraintSpec{{Name: "fresh", Source: "p(x) -> prev p(x)"}})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := serve(t, m)
	const commits = 200
	var clock atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for id := range 2 {
		c := dial(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			reported := 0
			for i := range commits {
				x, at := id*commits+i, clock.Add(1)
				if _, err := fmt.Fprintf(c.conn, "@%d +p(%d)\n", at, x); err != nil {
					errs <- err
					return
				}
				want := fmt.Sprintf(" (time %d) by x=%d", at, x)
				for n := 0; ; n++ {
					line, err := c.r.ReadString('\n')
					if err != nil {
						errs <- err
						return
					}
					line = strings.TrimSuffix(line, "\n")
					if strings.HasPrefix(line, "violation ") {
						if !strings.HasPrefix(line, "violation fresh violated at state ") || !strings.HasSuffix(line, want) {
							errs <- fmt.Errorf("session %d, commit at %d: reply %q does not report x=%d", id, at, line, x)
							return
						}
						continue
					}
					if strings.HasPrefix(line, "error ") {
						break
					}
					if line != "ok 1" || n != 1 {
						errs <- fmt.Errorf("session %d, commit at %d: reply %q after %d violations, want ok 1 after 1", id, at, line, n)
						return
					}
					reported++
					break
				}
			}
			if reported == 0 {
				errs <- fmt.Errorf("session %d: no commit of %d was accepted", id, commits)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerQuitAndComments(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	c.send(t, "-- a comment, no reply expected")
	c.send(t, "@1 +fire(9)")
	if got := c.recv(t); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}
	c.send(t, "quit")
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("connection still open after quit")
	}
}

func TestServerRecentCommand(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	c.send(t, "@0 +fire(7)")
	if got := c.recv(t); got != "ok 0" {
		t.Fatalf("reply = %q", got)
	}
	c.send(t, "@10 +hire(7)")
	if got := c.recv(t); !strings.HasPrefix(got, "violation") {
		t.Fatalf("reply = %q", got)
	}
	if got := c.recv(t); got != "ok 1" {
		t.Fatalf("reply = %q", got)
	}
	c.send(t, "recent")
	if got := c.recv(t); !strings.HasPrefix(got, "violation no_quick_rehire") {
		t.Fatalf("recent reply = %q", got)
	}
	if got := c.recv(t); got != "ok 1" {
		t.Fatalf("recent count = %q", got)
	}
	c.send(t, "recent 0")
	if got := c.recv(t); !strings.HasPrefix(got, "error") {
		t.Fatalf("recent 0 reply = %q", got)
	}
	c.send(t, "recent xyz")
	if got := c.recv(t); !strings.HasPrefix(got, "error") {
		t.Fatalf("recent xyz reply = %q", got)
	}
}

// scriptConn plays a session's input to it in scripted pieces — no Read
// crosses one of cuts — and records every Write the server issues and,
// at every Read call, how much input had been delivered and how many
// reply bytes written: the two quantities the flush rule relates.
type scriptConn struct {
	net.Conn // unused methods panic: the session must not call them
	script   string
	cuts     []int // ascending offsets in (0, len(script))
	pos      int
	writes   [][]byte
	written  int
	reads    []readMark
	writeErr error // when set, every Write fails with it
}

type readMark struct{ pos, written int }

func (c *scriptConn) Read(p []byte) (int, error) {
	c.reads = append(c.reads, readMark{c.pos, c.written})
	if c.pos == len(c.script) {
		return 0, io.EOF
	}
	end := len(c.script)
	for _, cut := range c.cuts {
		if cut > c.pos {
			end = cut
			break
		}
	}
	n := copy(p, c.script[c.pos:end])
	c.pos += n
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	if c.writeErr != nil {
		return 0, c.writeErr
	}
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.written += len(p)
	return len(p), nil
}

func (c *scriptConn) Close() error { return nil }

func (c *scriptConn) output() string {
	var b strings.Builder
	for _, w := range c.writes {
		b.Write(w)
	}
	return b.String()
}

// play runs one session over script, cut into reads at cuts, against a
// fresh suspectMonitor (p(x) -> prev[0,0] p(x): every inserted p
// violates, and lint has findings).
func play(t *testing.T, script string, cuts []int) (*scriptConn, *Monitor) {
	t.Helper()
	m := suspectMonitor(t)
	conn := &scriptConn{script: script, cuts: cuts}
	NewServer(m).handle(conn)
	return conn, m
}

// lineEnds returns the offset just past every newline in script.
func lineEnds(script string) []int {
	var ends []int
	for i := range script {
		if script[i] == '\n' {
			ends = append(ends, i+1)
		}
	}
	return ends
}

// checkFlushRule holds one played session to the server's flush rule,
// given what the one-line-per-read session ref wrote for the same
// script: at no Read call does the server hold reply bytes (everything
// the lines delivered so far have earned is already written), the
// replies are ref's byte for byte, and there is exactly one write per
// read that completed at least one replying command — the exit flush
// standing in for the read that never came.
func checkFlushRule(t *testing.T, got, ref *scriptConn) {
	t.Helper()
	// earned[k]: reply bytes owed once k lines have been delivered, which
	// is what the reference had written when it first read with k lines
	// behind it; lines it never read past (after quit) earn nothing more.
	ends := lineEnds(got.script)
	linesIn := func(pos int) int {
		k := 0
		for k < len(ends) && ends[k] <= pos {
			k++
		}
		return k
	}
	earned := make([]int, len(ends)+1)
	for k := range earned {
		earned[k] = ref.written
	}
	for i := len(ref.reads) - 1; i >= 0; i-- {
		earned[linesIn(ref.reads[i].pos)] = ref.reads[i].written
	}
	owed := func(pos int) int { return earned[linesIn(pos)] }
	wantWrites, prev := 0, 0
	for i, r := range got.reads {
		if r.written != owed(r.pos) {
			t.Fatalf("cuts %v: read %d at offset %d found %d reply bytes written, %d earned: the server read while holding replies",
				got.cuts, i, r.pos, r.written, owed(r.pos))
		}
		if r.written > prev {
			wantWrites++
		}
		prev = r.written
	}
	if got.written > prev {
		wantWrites++ // flushed on the way out
	}
	if got.output() != ref.output() {
		t.Fatalf("cuts %v: replies differ from the one-line-per-read session:\n got %q\nwant %q", got.cuts, got.output(), ref.output())
	}
	if len(got.writes) != wantWrites {
		t.Fatalf("cuts %v: %d writes, want %d (one per read that completed a replying command)", got.cuts, len(got.writes), wantWrites)
	}
}

// TestServerOneWritePerRead enumerates the flush rule — the server never
// blocks in a read while it holds reply bytes, and writes only then —
// over every way a short script can be segmented into reads.
func TestServerOneWritePerRead(t *testing.T) {
	lines := []string{
		"@1 +p(1)", // one violation
		"-- comment: no reply",
		"@2 -p(1) +p(2)", // another
		"@3 -p(2)",       // none
		"recent",         // both, oldest first
		"recent 1",
		"lint",
		"stats",
		"@3 +p(9)", // stale timestamp: one error line
	}
	base := strings.Join(lines, "\n") + "\n"

	// One command per read is the protocol as a lone client sees it: one
	// write per replying command, each exactly that command's lines.
	ref, m := play(t, base, lineEnds(base))
	recent := m.Recent(10)
	if len(recent) != 2 {
		t.Fatalf("fixture drifted: %d violations, want 2", len(recent))
	}
	first := fmt.Sprintf("violation %s\n", recent[0].String())
	second := fmt.Sprintf("violation %s\n", recent[1].String())
	var lintReply bytes.Buffer
	for _, d := range m.Diagnostics() {
		fmt.Fprintf(&lintReply, "diag %s %s %s %s\n", d.Severity, d.Rule, d.Constraint, d.Message)
	}
	fmt.Fprintf(&lintReply, "ok %d\n", len(m.Diagnostics()))
	st := m.Stats()
	want := []string{
		first + "ok 1\n",
		second + "ok 1\n",
		"ok 0\n",
		first + second + "ok 2\n",
		second + "ok 1\n",
		lintReply.String(),
		fmt.Sprintf("stats nodes=%d entries=%d timestamps=%d bytes=%d\n", st.Nodes, st.Entries, st.Timestamps, st.Bytes),
		"error core: non-increasing timestamp 3 after 3\n",
	}
	if len(ref.writes) != len(want) {
		t.Fatalf("%d writes for %d replying commands sent one per read", len(ref.writes), len(want))
	}
	for i, w := range want {
		if got := string(ref.writes[i]); got != w {
			t.Errorf("write %d = %q, want %q", i, got, w)
		}
	}

	// Three ways for the session to end — EOF after the last newline (a
	// client that writes a batch and half-closes), EOF in mid-line, quit
	// with a command behind it that must go unanswered — and a line that
	// outgrows the scanner's initial 4 KiB buffer, so that one line takes
	// several reads.
	longLine := "@3"
	for i := 0; len(longLine) <= 4096; i++ {
		longLine += fmt.Sprintf(" -p(%d)", 1000+i)
	}
	scripts := map[string]string{
		"eof":          base,
		"eof-mid-line": strings.TrimSuffix(base, "\n"),
		"quit":         base + "quit\nstats\n",
		"long-line":    "@1 +p(1)\n@2 -p(1)\n" + longLine + "\nstats\n@4 +p(2)\n",
	}
	for name, script := range scripts {
		t.Run(name, func(t *testing.T) {
			ends := lineEnds(script)
			ref, _ := play(t, script, ends)
			checkFlushRule(t, ref, ref)
			// Every subset of the line boundaries.
			inner := ends
			if len(inner) > 0 && inner[len(inner)-1] == len(script) {
				inner = inner[:len(inner)-1]
			}
			for mask := 0; mask < 1<<len(inner); mask++ {
				var cuts []int
				for i, e := range inner {
					if mask&(1<<i) != 0 {
						cuts = append(cuts, e)
					}
				}
				got, _ := play(t, script, cuts)
				checkFlushRule(t, got, ref)
			}
			// Every single cut, mid-line ones included (the long script
			// samples them, and adds the scanner's buffer boundary), and
			// every byte in a read of its own.
			every := make([]int, 0, len(script))
			for c := 1; c < len(script); c++ {
				every = append(every, c)
			}
			single := every
			if len(script) > 4096 {
				single = []int{4095, 4096, 4097}
				for c := 1; c < len(script); c += 41 {
					single = append(single, c)
				}
			}
			for _, c := range single {
				got, _ := play(t, script, []int{c})
				checkFlushRule(t, got, ref)
			}
			got, _ := play(t, script, every)
			checkFlushRule(t, got, ref)
		})
	}
}

// TestServerWriteFailureEndsSession: a client that cannot be written to
// is a client that is gone. The failed flush before the next read ends
// the session — nothing further is read or committed, and the failure is
// not booked as a protocol error, since no error reply was sent.
func TestServerWriteFailureEndsSession(t *testing.T) {
	m := suspectMonitor(t)
	metrics := obs.NewMetrics(obs.NewRegistry())
	m.SetObserver(&obs.Observer{Metrics: metrics})
	script := "@1 +p(1)\n@2 +p(2)\n"
	conn := &scriptConn{script: script, cuts: lineEnds(script), writeErr: io.ErrClosedPipe}
	NewServer(m).handle(conn)
	if len(conn.reads) != 1 {
		t.Errorf("%d reads of the socket, want 1: the flush before the second must fail first", len(conn.reads))
	}
	if got := metrics.Commits.Value(); got != 1 {
		t.Errorf("%d commits, want 1: the session read on after its client was gone", got)
	}
	if got := metrics.ProtocolErrors.Value(); got != 0 {
		t.Errorf("%d protocol errors booked for replies that were never sent", got)
	}
}

// TestServerMetricsReplyIsOneWrite: the exposition, however long, leaves
// as one write — the registry's text, then # EOF.
func TestServerMetricsReplyIsOneWrite(t *testing.T) {
	m := suspectMonitor(t)
	metrics := obs.NewMetrics(obs.NewRegistry())
	m.SetObserver(&obs.Observer{Metrics: metrics})
	conn := &scriptConn{script: "metrics\n"}
	NewServer(m).handle(conn)
	if len(conn.writes) != 1 {
		t.Fatalf("%d writes for one metrics command", len(conn.writes))
	}
	// Only the active-connections sample can differ from a scrape taken
	// now (the session has ended), so compare around it.
	var now bytes.Buffer
	if err := metrics.Registry().WritePrometheus(&now); err != nil {
		t.Fatal(err)
	}
	expo := strings.Replace(conn.output(), "rtic_monitor_connections_active 1\n", "rtic_monitor_connections_active 0\n", 1)
	if expo != now.String()+"# EOF\n" {
		t.Errorf("metrics reply (%d bytes) is not the registry exposition (%d bytes) followed by # EOF", len(expo), now.Len())
	}
}

// TestServerPipelinedWindow drives a real socket the way a pipelining
// client does — a window of 64 commits in flight, one more sent per
// acknowledgement — and checks every reply arrives, in order, with the
// content its commit earned. Run under -race it also shows the reply
// buffer stays the session goroutine's own.
func TestServerPipelinedWindow(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	const window, commits = 64, 2000
	// Even commits fire employee k (and clear k-1 away, so the database
	// stays one tuple wide), odd ones rehire k at once: "ok 0", then one
	// violation naming k.
	line := func(i int) string {
		k := i / 2
		if i%2 == 0 {
			return fmt.Sprintf("@%d -hire(%d) -fire(%d) +fire(%d)", i, k-1, k-1, k)
		}
		return fmt.Sprintf("@%d +hire(%d)", i, k)
	}
	sent := 0
	for ; sent < window; sent++ {
		c.send(t, line(sent))
	}
	for i := 0; i < commits; i++ {
		if i%2 == 1 {
			want := fmt.Sprintf("by e=%d", i/2)
			if got := c.recv(t); !strings.HasPrefix(got, "violation no_quick_rehire") || !strings.HasSuffix(got, want) {
				t.Fatalf("commit %d: reply = %q, want a violation %s", i, got, want)
			}
		}
		if got, want := c.recv(t), fmt.Sprintf("ok %d", i%2); got != want {
			t.Fatalf("commit %d: reply = %q, want %q", i, got, want)
		}
		if sent < commits {
			c.send(t, line(sent))
			sent++
		}
	}
}
