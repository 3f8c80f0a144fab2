package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"syscall"
	"time"
)

// satWindow is the closed-loop pipeline depth: the writer keeps this
// many commits unacknowledged on its one connection.
const satWindow = 64

// reply is one parsed line of the daemon's answer to a commit.
type reply int

const (
	replyViolation reply = iota // "violation ..."; more lines follow
	replyOK                     // "ok N" closes the commit
	replyError                  // "error ..." closes the commit
)

// parseReply classifies a reply line; n is the count on an "ok N" line.
func parseReply(line []byte) (kind reply, n int, err error) {
	switch {
	case bytes.HasPrefix(line, []byte("ok ")):
		n, err = parseCount(bytes.TrimSpace(line[3:]))
		return replyOK, n, err
	case bytes.HasPrefix(line, []byte("violation ")):
		return replyViolation, 0, nil
	case bytes.HasPrefix(line, []byte("error ")):
		return replyError, 0, nil
	}
	return 0, 0, fmt.Errorf("unexpected reply line %q", line)
}

// parseCount reads a decimal count without allocating: it runs once per
// reply inside the polling loop.
func parseCount(b []byte) (int, error) {
	if len(b) == 0 || len(b) > 9 {
		return 0, fmt.Errorf("bad count %q", b)
	}
	n := 0
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, fmt.Errorf("bad count %q", b)
		}
		n = n*10 + int(ch-'0')
	}
	return n, nil
}

// writer is the one connection that commits, driven by one goroutine
// that never sleeps: it sends what is due and otherwise polls the socket
// for replies, which come back in order. A load generator that blocks is
// woken by the kernel once per reply, and on a virtual machine each
// wake-up of an idle CPU costs a trip through the hypervisor whose length
// is the host's business; polling leaves exactly one thread of this
// process busy and the other CPU to the daemon. The line protocol has a
// single, strictly increasing clock, so a second writer connection would
// only race this one into "stale timestamp" errors; concurrency is
// pipeline depth.
type writer struct {
	conn  *net.TCPConn
	raw   syscall.RawConn
	epoch time.Time
	lines []string

	// Per commit, in nanoseconds since epoch. due is when the commit was
	// scheduled (its send time in closed-loop phases); acked is when its
	// closing reply line was read.
	due   []int64
	acked []int64
	viol  []int32 // violations reported per commit

	next     int // next commit to send
	nAcked   int // commits whose reply is complete
	failures int // error replies and "ok N" lines that miscount

	out  []byte // lines not yet handed to the kernel
	in   []byte // reply bytes not yet parsed
	seen int32  // violation lines of the commit being answered

	// tryRead and tryWrite each make one non-blocking attempt on the
	// socket and leave the result here; they are built once so that
	// polling allocates nothing.
	tryRead, tryWrite func(fd uintptr) bool
	readN, writeN     int
	readErr, writeErr error
}

func dialWriter(addr string, lines []string) (*writer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	tcp := conn.(*net.TCPConn) // what net.Dial("tcp") returns
	raw, err := tcp.SyscallConn()
	if err != nil {
		_ = tcp.Close() // the dial's only product
		return nil, err
	}
	c := &writer{
		conn: tcp, raw: raw, epoch: time.Now(), lines: lines,
		due: make([]int64, len(lines)), acked: make([]int64, len(lines)), viol: make([]int32, len(lines)),
		out: make([]byte, 0, 64<<10), in: make([]byte, 0, 64<<10),
	}
	c.tryRead = func(fd uintptr) bool {
		c.readN, c.readErr = syscall.Read(int(fd), c.in[len(c.in):cap(c.in)])
		return true // whatever came of it: the caller polls, the runtime must not park it
	}
	c.tryWrite = func(fd uintptr) bool {
		c.writeN, c.writeErr = syscall.Write(int(fd), c.out)
		return true
	}
	return c, nil
}

func (c *writer) now() int64 { return int64(time.Since(c.epoch)) }

// poll reads what the daemon has sent so far, without waiting for more,
// and books every completed reply.
func (c *writer) poll() error {
	if err := c.raw.Read(c.tryRead); err != nil {
		return err
	}
	switch {
	case c.readErr == syscall.EAGAIN || c.readErr == syscall.EINTR:
		return nil
	case c.readErr != nil:
		return c.readErr
	case c.readN == 0:
		return fmt.Errorf("connection closed by the daemon after %d of %d acknowledgements", c.nAcked, c.next)
	}
	now := c.now()
	c.in = c.in[:len(c.in)+c.readN]
	rest := c.in
	for {
		end := bytes.IndexByte(rest, '\n')
		if end < 0 {
			break
		}
		kind, n, err := parseReply(rest[:end+1])
		rest = rest[end+1:]
		if err != nil {
			return err
		}
		if kind == replyViolation {
			c.seen++
			continue
		}
		if c.nAcked >= c.next {
			return fmt.Errorf("reply to a commit that was never sent")
		}
		if kind == replyError || int32(n) != c.seen {
			c.failures++
		}
		c.viol[c.nAcked], c.seen = c.seen, 0
		c.acked[c.nAcked] = now
		c.nAcked++
	}
	c.in = c.in[:copy(c.in, rest)]
	if len(c.in) == cap(c.in) {
		return fmt.Errorf("reply line longer than %d bytes", cap(c.in))
	}
	return nil
}

// awaitAcked polls until n commits are acknowledged.
func (c *writer) awaitAcked(n int) error {
	for c.nAcked < n {
		if err := c.poll(); err != nil {
			return err
		}
	}
	return nil
}

// send queues the next commit, due at the given instant.
func (c *writer) send(due int64) {
	c.due[c.next] = due
	c.out = append(c.out, c.lines[c.next]...)
	c.next++
}

// flush hands the queued lines to the kernel, reading replies whenever
// the socket is full so that neither side waits on the other's buffer.
func (c *writer) flush() error {
	for len(c.out) > 0 {
		if err := c.raw.Write(c.tryWrite); err != nil {
			return err
		}
		if c.writeErr != nil && c.writeErr != syscall.EAGAIN && c.writeErr != syscall.EINTR {
			return c.writeErr
		}
		if c.writeN > 0 {
			c.out = c.out[:copy(c.out, c.out[c.writeN:])]
		}
		if err := c.poll(); err != nil {
			return err
		}
	}
	return nil
}

// saturate sends the next n commits closed-loop, at most satWindow
// unacknowledged, and returns once all are acknowledged.
func (c *writer) saturate(n int) error {
	for end := c.next + n; c.next < end; {
		if c.next-c.nAcked >= satWindow {
			if err := c.flush(); err != nil {
				return err
			}
			if err := c.awaitAcked(c.next - satWindow/2); err != nil {
				return err
			}
			continue
		}
		c.send(c.now())
	}
	if err := c.flush(); err != nil {
		return err
	}
	return c.awaitAcked(c.next)
}

// pace sends trains of batch commits, one train per pacedTick, for the
// given number of ticks, open loop: a train is sent when it falls due
// whether or not earlier ones were acknowledged, and every commit's
// latency counts from the instant its train was due. It returns how late
// each train left, and waits for the last acknowledgement. Every
// windowTicks ticks, right after a train has left, it calls mark with the
// number of commits sent so far.
func (c *writer) pace(ticks, batch int, mark func(sent int)) (late []int64, err error) {
	late = make([]int64, 0, ticks)
	start := c.now() + int64(pacedTick)
	for b := 0; b < ticks; b++ {
		due := start + int64(b)*int64(pacedTick)
		for c.now() < due {
			if err := c.poll(); err != nil {
				return nil, err
			}
		}
		late = append(late, c.now()-due)
		for j := 0; j < batch; j++ {
			c.send(due)
		}
		if err := c.flush(); err != nil {
			return nil, err
		}
		if b%windowTicks == 0 {
			mark(c.next)
		}
	}
	return late, c.awaitAcked(c.next)
}

func (c *writer) close() {
	_ = c.conn.Close() // nothing more is sent or read
}

// observer is the operator's connection beside the writer: it polls
// "stats" every 100ms and scrapes "metrics" every second.
type observer struct {
	conn     net.Conn
	stop     chan struct{}
	finished chan struct{}

	// Valid after halt.
	statsUs  []float64 // "stats" round trips
	requests int
	failed   int
}

func startObserver(addr string) (*observer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	o := &observer{conn: conn, stop: make(chan struct{}), finished: make(chan struct{})}
	go o.loop()
	return o, nil
}

func (o *observer) loop() {
	defer close(o.finished)
	r := bufio.NewReader(o.conn)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for n := 1; ; n++ {
		select {
		case <-o.stop:
			return
		case <-tick.C:
		}
		o.requests++
		rtt, err := statsRoundTrip(o.conn, r)
		if err != nil {
			o.failed++
			return
		}
		o.statsUs = append(o.statsUs, float64(rtt)/1e3)
		if n%10 == 0 {
			o.requests++
			if err := scrapeMetrics(o.conn, r); err != nil {
				o.failed++
				return
			}
		}
	}
}

// halt stops the polling loop and closes the connection; an observer
// that was never started has nothing to stop.
func (o *observer) halt() {
	if o.conn == nil {
		return
	}
	close(o.stop)
	<-o.finished
	_ = o.conn.Close() // nothing more is read from it
}

// statsRoundTrip times one "stats" request on an open connection.
func statsRoundTrip(conn net.Conn, r *bufio.Reader) (time.Duration, error) {
	t0 := time.Now()
	if _, err := conn.Write([]byte("stats\n")); err != nil {
		return 0, err
	}
	line, err := r.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if !bytes.HasPrefix(line, []byte("stats nodes=")) {
		return 0, fmt.Errorf("unexpected stats reply %q", line)
	}
	return time.Since(t0), nil
}

// scrapeMetrics reads one full exposition, up to its "# EOF" line.
func scrapeMetrics(conn net.Conn, r *bufio.Reader) error {
	if _, err := conn.Write([]byte("metrics\n")); err != nil {
		return err
	}
	for {
		line, err := r.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			continue // a long HELP line; its tail is read next
		}
		if err != nil {
			return err
		}
		if bytes.Equal(line, []byte("# EOF\n")) {
			return nil
		}
		if bytes.HasPrefix(line, []byte("error ")) {
			return fmt.Errorf("metrics: %s", bytes.TrimSpace(line))
		}
	}
}
