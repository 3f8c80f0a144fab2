package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rtic/internal/cdcgen"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/httpd"
	"rtic/internal/monitor"
	"rtic/internal/obs"
	"rtic/internal/schema"
	"rtic/internal/spec"
	"rtic/internal/storage"
	"rtic/internal/vfs"
	"rtic/internal/wal"
	"rtic/internal/workload"
)

// feed is an endless stream of protocol lines with increasing
// timestamps, over a spec.
type feed struct {
	schema      *schema.Schema
	constraints []workload.ConstraintSpec
	// line appends commit k's line, newline included, to out.
	line func(out []byte, k int) []byte
}

// hrFeed moves one fired employee per commit under the hire/fire spec:
// "@t -fire(t-1) +fire(t)". Nobody is hired, so no commit violates.
func hrFeed() feed {
	return feed{
		schema: schema.NewBuilder().Relation("hire", 1).Relation("fire", 1).MustBuild(),
		constraints: []workload.ConstraintSpec{
			{Name: "no_quick_rehire", Source: "hire(e) -> not once[0,365] fire(e)"},
		},
		line: func(out []byte, k int) []byte {
			t := uint64(k) + 1
			out = append(out, '@')
			out = strconv.AppendUint(out, t, 10)
			out = append(out, " -fire("...)
			out = strconv.AppendUint(out, t-1, 10)
			out = append(out, ") +fire("...)
			out = strconv.AppendUint(out, t, 10)
			return append(out, ")\n"...)
		},
	}
}

// cdcFeed replays cdcgen's feed of cfg under its three constraints. The
// feed repeats, each lap shifted past the previous one by more than any
// window of the spec, so timestamps keep increasing.
func cdcFeed(cfg cdcgen.Config) feed {
	h, _ := cdcgen.Generate(cfg)
	bodies := make([]string, len(h.Steps))
	for i, st := range h.Steps {
		bodies[i] = st.Tx.String()
	}
	lap := h.Steps[len(h.Steps)-1].Time + 1000
	return feed{
		schema:      h.Schema,
		constraints: cdcgen.Constraints(cfg),
		line: func(out []byte, k int) []byte {
			step := k % len(h.Steps)
			out = append(out, '@')
			out = strconv.AppendUint(out, h.Steps[step].Time+uint64(k/len(h.Steps))*lap, 10)
			out = append(out, ' ')
			out = append(out, bodies[step]...)
			return append(out, '\n')
		},
	}
}

// ioCounts counts a leg's socket writes and its journals' writes,
// written bytes and fsyncs.
type ioCounts struct {
	sock, writes, bytes, syncs atomic.Int64
}

// countingListener hands out connections that count their writes.
type countingListener struct {
	net.Listener
	io *ioCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.io}, nil
}

// countingConn counts the session's writes to its socket.
type countingConn struct {
	net.Conn
	io *ioCounts
}

func (c countingConn) Write(p []byte) (int, error) {
	c.io.sock.Add(1)
	return c.Conn.Write(p)
}

// countingFS counts the writes, written bytes and fsyncs of the files
// it opens.
type countingFS struct {
	vfs.FS
	io *ioCounts
}

func (c countingFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c.io}, nil
}

type countingFile struct {
	vfs.File
	io *ioCounts
}

func (f countingFile) Write(p []byte) (int, error) {
	f.io.writes.Add(1)
	f.io.bytes.Add(int64(len(p)))
	return f.File.Write(p)
}

func (f countingFile) Sync() error {
	f.io.syncs.Add(1)
	return f.File.Sync()
}

// reading is one read of every counter a leg keeps.
type reading struct {
	at                         time.Time
	mallocs                    uint64
	gcs                        uint32
	sock, writes, bytes, syncs int64
	work                       core.Work
}

// settle readies the process for a counted window, so that the only
// allocations in it are the legs' own. The runtime allocates on its own
// schedule in three places a profile of the window found:
//   - after every collection, unique's map cleanup (net/netip keeps a
//     map) allocates a few objects on its own goroutine;
//   - the background scavenger, woken by a collection, sleeps on timers
//     whose per-P heaps grow as it moves between Ps;
//   - a new OS thread allocates its g0, signal stack and profiling
//     stacks, and the scheduler starts one when it finds no idle thread
//     at a preemption or a blocking syscall.
//
// So settle collects and returns every free page to the OS at once
// (debug.FreeOSMemory: the scavenger is left nothing to do), grows the
// idle thread pool past what a leg keeps busy, and sleeps while the
// post-collection goroutines run. The collection comes first, so every
// window starts from a fresh heap goal whatever garbage earlier
// experiments left.
func settle() {
	debug.FreeOSMemory()
	n := 2*runtime.GOMAXPROCS(0) + 4
	var locked, exited sync.WaitGroup
	release := make(chan struct{})
	locked.Add(n)
	exited.Add(n)
	for i := 0; i < n; i++ {
		// A goroutine blocked while locked to its thread holds that
		// thread, so n of them at once leave n threads idle when they go.
		go func() {
			defer exited.Done()
			runtime.LockOSThread()
			locked.Done()
			<-release
			runtime.UnlockOSThread()
		}()
	}
	locked.Wait()
	close(release)
	exited.Wait()
	time.Sleep(20 * time.Millisecond)
}

// counted settles the process, runs warm commits, then window more
// between two readings. ReadMemStats flushes every P's allocation
// counts, which runtime/metrics reads only as each span fills: exact
// counts need it.
func counted(warm, window int, commit func(n int) error, io *ioCounts, work func() core.Work) (reading, reading, error) {
	var m0, m1 runtime.MemStats
	read := func(m *runtime.MemStats) reading {
		runtime.ReadMemStats(m)
		r := reading{at: time.Now(), mallocs: m.Mallocs, gcs: m.NumGC}
		if io != nil {
			r.sock, r.writes, r.bytes, r.syncs = io.sock.Load(), io.writes.Load(), io.bytes.Load(), io.syncs.Load()
		}
		if work != nil {
			r.work = work()
		}
		return r
	}
	settle()
	if err := commit(warm); err != nil {
		return reading{}, reading{}, err
	}
	r0 := read(&m0)
	if err := commit(window); err != nil {
		return reading{}, reading{}, err
	}
	return r0, read(&m1), nil
}

// loopbackLeg serves f from a monitor.Server over loopback, with the
// monitor's metrics attached as rticd attaches them, and drives it from
// one client connection in trains of train commits, each train one
// client write read back to its last acknowledgement. With journals > 0
// the monitor has that many shards, each journaled under sync through a
// counting filesystem; no durability worker runs, so every fsync counted
// is one the commit path made.
func loopbackLeg(f feed, train, journals int, sync wal.SyncPolicy, warm, window int) (reading, reading, error) {
	m, err := monitor.New(f.schema, f.constraints, monitor.WithShards(journals))
	if err != nil {
		return reading{}, reading{}, err
	}
	o := &obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())}
	m.SetObserver(o)
	io := new(ioCounts)
	if journals > 0 {
		dir, err := os.MkdirTemp("", "rticbench-journal-")
		if err != nil {
			return reading{}, reading{}, err
		}
		defer os.RemoveAll(dir)
		fsys := countingFS{vfs.OS, io}
		var logs []*wal.Log
		for _, p := range monitor.JournalPaths(filepath.Join(dir, "journal"), journals) {
			l, err := wal.Open(p, wal.WithSyncPolicy(sync), wal.WithMetrics(o.Metrics), wal.WithFS(fsys))
			if err != nil {
				return reading{}, reading{}, err
			}
			defer l.Close()
			logs = append(logs, l)
		}
		d, err := monitor.NewDurableLogs(m, logs, "", monitor.WithDurableFS(fsys))
		if err != nil {
			return reading{}, reading{}, err
		}
		d.Attach()
	}

	srv := monitor.NewServer(m)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return reading{}, reading{}, err
	}
	served := make(chan struct{})
	go func() {
		srv.Serve(countingListener{l, io}) //nolint:errcheck — returns when the listener closes
		close(served)
	}()
	defer func() {
		l.Close()
		<-served
		srv.Close()
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return reading{}, reading{}, err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	out := make([]byte, 0, 4<<10) // past a train of the feeds' longest lines
	k := 0                        // commits sent
	send := func(n int) error {
		for sent := 0; sent < n; sent += train {
			out = out[:0]
			for j := 0; j < train; j++ {
				out = f.line(out, k)
				k++
			}
			if _, err := conn.Write(out); err != nil {
				return err
			}
			for acked := 0; acked < train; {
				reply, err := r.ReadSlice('\n')
				if err != nil {
					return err
				}
				switch {
				case bytes.HasPrefix(reply, []byte("ok ")):
					acked++
				case !bytes.HasPrefix(reply, []byte("violation ")):
					return fmt.Errorf("bench: reply %q", reply)
				}
			}
		}
		return nil
	}
	return counted(warm, window, send, io, nil)
}

// wideLeg steps the policy-wide feed (cdcgen seed 7, 1,024 sensors,
// cdcgen.WidePolicies) on a core.Checker in process, metrics attached.
func wideLeg(warm, window int) (reading, reading, error) {
	cfg := cdcgen.Config{
		Steps: warm + window, Seed: 7, Sensors: 1024,
		BurstLen: 8, BurstEvery: 20, MaxReorder: 3, ViolationRate: 0.02,
	}
	h, _ := cdcgen.Generate(cfg)
	c := core.New(h.Schema)
	c.SetObserver(&obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())})
	if err := engine.Install(c, h.Schema, cdcgen.WidePolicies(cfg)); err != nil {
		return reading{}, reading{}, err
	}
	next := 0
	step := func(n int) error {
		for _, st := range h.Steps[next : next+n] {
			if _, err := c.Step(st.Time, st.Tx); err != nil {
				return err
			}
		}
		next += n
		return nil
	}
	return counted(warm, window, step, nil, c.Work)
}

// observerReads are an operator's three reads of a daemon serving the
// hire/fire spec with rticd's metrics (obs.RegisterRuntime included),
// each from one kept connection over loopback: a line-protocol stats, a
// line-protocol metrics scrape, and an HTTP/1.1 GET of /metrics from
// the daemon's responder (internal/httpd) on a kept-alive connection.
// Both clients allocate nothing, so every allocation counted is the
// server's.
type observerReads struct {
	stats, metrics, get func(n int) error
	io                  *ioCounts
	close               func()
}

func newObserverReads() (*observerReads, error) {
	f := hrFeed()
	m, err := monitor.New(f.schema, f.constraints)
	if err != nil {
		return nil, err
	}
	o := &obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())}
	reg := o.Metrics.Registry()
	obs.RegisterRuntime(reg)
	m.SetObserver(o)
	// Past two of the spec's windows, so stats reports a steady store.
	tx := storage.NewTransaction()
	var line []byte
	for k := 0; k < 1200; k++ {
		line = f.line(line[:0], k)
		t, _, err := spec.ParseLogLineInto(line, f.schema, tx)
		if err != nil {
			return nil, err
		}
		if _, err := m.Apply(t, tx); err != nil {
			return nil, err
		}
	}

	ob := &observerReads{io: new(ioCounts)}
	srv := monitor.NewServer(m)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan struct{})
	go func() {
		srv.Serve(countingListener{l, ob.io}) //nolint:errcheck — returns when the listener closes
		close(served)
	}()
	hsrv := httpd.NewServer(map[string]httpd.Route{
		"/metrics": func(_ string, body []byte) httpd.Reply {
			return httpd.Reply{Status: 200, Type: "text/plain; version=0.0.4; charset=utf-8", Body: reg.AppendPrometheus(body)}
		},
	}, 30*time.Second)
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.Close()
		return nil, err
	}
	go func() {
		for {
			c, err := hl.Accept()
			if err != nil {
				return
			}
			go hsrv.ServeConn(countingConn{c, ob.io})
		}
	}()
	stopServers := func() {
		hl.Close()
		hsrv.Close()
		l.Close()
		<-served
		srv.Close()
	}
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		stopServers()
		return nil, err
	}
	hconn, err := net.Dial("tcp", hl.Addr().String())
	if err != nil {
		conn.Close()
		stopServers()
		return nil, err
	}
	ob.close = func() {
		conn.Close()
		hconn.Close()
		stopServers()
	}
	ob.dial(conn, hconn)
	return ob, nil
}

// dial builds the three reads over the line-protocol connection conn
// and the HTTP connection hconn.
func (ob *observerReads) dial(conn, hconn net.Conn) {
	r := bufio.NewReader(conn)
	command := func(cmd []byte, last func(line []byte) bool) func(n int) error {
		return func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := conn.Write(cmd); err != nil {
					return err
				}
				for {
					line, err := r.ReadSlice('\n')
					if err != nil {
						return err
					}
					if bytes.HasPrefix(line, []byte("error")) {
						return fmt.Errorf("bench: %q: reply %q", cmd, line)
					}
					if last(line) {
						break
					}
				}
			}
			return nil
		}
	}
	ob.stats = command([]byte("stats\n"), func(line []byte) bool {
		return bytes.HasPrefix(line, []byte("stats nodes="))
	})
	ob.metrics = command([]byte("metrics\n"), func(line []byte) bool {
		return bytes.Equal(line, []byte("# EOF\n"))
	})

	hr := bufio.NewReader(hconn)
	req := []byte("GET /metrics HTTP/1.1\r\nHost: rticbench\r\n\r\n")
	var body []byte
	ob.get = func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := hconn.Write(req); err != nil {
				return err
			}
			length := -1
			for {
				line, err := hr.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(line) <= 2 {
					break
				}
				if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
					length = 0
					for _, c := range bytes.TrimSpace(v) {
						length = 10*length + int(c-'0')
					}
				}
			}
			if length < 0 {
				return fmt.Errorf("bench: GET /metrics: no Content-Length")
			}
			if cap(body) < length {
				body = make([]byte, length)
			}
			if _, err := io.ReadFull(hr, body[:length]); err != nil {
				return err
			}
		}
		return nil
	}
}

// observerLegs are Table 11's observer rows: one read of each kind
// warms its connection's buffers, then a window of reads is counted.
var observerLegs = []struct {
	name   string
	window int
	read   func(ob *observerReads) func(n int) error
}{
	{"observer=stats", 100, func(ob *observerReads) func(int) error { return ob.stats }},
	{"observer=metrics", 20, func(ob *observerReads) func(int) error { return ob.metrics }},
	{"observer=http", 20, func(ob *observerReads) func(int) error { return ob.get }},
}

// commitLeg is one row of Table 11: a loopback leg serves feed in
// trains, one with no feed steps the policy-wide set in process.
type commitLeg struct {
	name            string
	feed            *feed
	train, journals int
	sync            wal.SyncPolicy
	warm, window    int // commits
}

func (l commitLeg) run() (reading, reading, error) {
	if l.feed == nil {
		return wideLeg(l.warm, l.window)
	}
	return loopbackLeg(*l.feed, l.train, l.journals, l.sync, l.warm, l.window)
}

// Table11CommitPath — the acknowledged commit's counts, where the
// paper's constant-cost claim meets the daemon's path: heap
// allocations and GC cycles over a fixed window after warm-up (client
// side included), socket writes (the server's flush rule acknowledges a
// train in one), journal writes, bytes and fsyncs, and the engine's
// entries visited and plan executions. Every count is exact: a change
// of one anywhere in a window shows in its cell. It runs the same in
// either mode, and never with the trace sink: spans allocate.
func Table11CommitPath(bool) (Table, error) {
	t := Table{
		ID:    "Table 11",
		Title: "the commit path's counts",
		Columns: []string{
			"leg", "commits", "allocs", "GC cycles",
			"sock writes/commit", "vfs writes/commit", "fsyncs/commit", "journal B/commit",
			"visits/commit", "plan execs/commit", "ns/commit",
		},
		Notes: "allocs and GC cycles are totals over the window, client side included; " +
			"over loopback with metrics attached: train=* the hire/fire spec, feed=cdc the cdc-stream feed (cdcgen seed 7, 24 sensors, bursts) in trains of 12, " +
			"journals=* cdcgen seed 7 without bursts in trains of 10, under SyncBatch with no durability worker unless sync=always; " +
			"policy-wide steps its 35 policies over 1,024 sensors in process; windows are at most 10,000 commits, so per-commit cells keep every count; " +
			"observer=* rows count an operator's reads, not commits (per-commit cells are per read), of a hire/fire daemon with rticd's metrics after 1,200 commits, one read of each kind first: " +
			"line-protocol stats and metrics, and an HTTP GET of /metrics on a kept-alive connection",
	}
	hr := hrFeed()
	cdc := cdcFeed(cdcgen.Config{Steps: 4000, Seed: 7, Sensors: 24, BurstLen: 8, BurstEvery: 20, MaxReorder: 3, ViolationRate: 0.02})
	journaled := cdcFeed(cdcgen.Config{Steps: 4000, Seed: 7, Sensors: 24})
	legs := []commitLeg{
		// At one time unit per commit the once table's anchor log holds
		// up to two of the spec's 365-unit windows before it compacts;
		// the warm-up runs past that.
		{name: "train=1", feed: &hr, train: 1, warm: 1200, window: 2400},
		{name: "train=12", feed: &hr, train: 12, warm: 1200, window: 2400},
		{name: "feed=cdc", feed: &cdc, train: 12, warm: 2004, window: 9996},
		// The warm-up runs one lap of the feed and past the next lap's
		// first commit, where the 1000-unit gap expires every window at
		// once: storage sized by the feed has reached its high-water mark.
		{name: "journals=1", feed: &journaled, train: 10, journals: 1, sync: wal.SyncBatch, warm: 5000, window: 2000},
		{name: "journals=2", feed: &journaled, train: 10, journals: 2, sync: wal.SyncBatch, warm: 5000, window: 2000},
		{name: "journals=1 sync=always", feed: &journaled, train: 10, journals: 1, sync: wal.SyncAlways, warm: 5000, window: 2000},
		{name: "policy-wide", warm: 2000, window: 4000},
	}
	for _, leg := range legs {
		r0, r1, err := leg.run()
		if err != nil {
			return t, fmt.Errorf("%s: %w", leg.name, err)
		}
		per := func(a, b int64) string { return fmt.Sprintf("%.4f", float64(b-a)/float64(leg.window)) }
		sock, journal, work := "-", []string{"-", "-", "-"}, []string{"-", "-"}
		if leg.feed == nil {
			work = []string{per(int64(r0.work.Visited), int64(r1.work.Visited)), per(int64(r0.work.PlanExecs), int64(r1.work.PlanExecs))}
		} else {
			sock = per(r0.sock, r1.sock)
		}
		if leg.journals > 0 {
			journal = []string{per(r0.writes, r1.writes), per(r0.syncs, r1.syncs), per(r0.bytes, r1.bytes)}
		}
		row := []string{leg.name, strconv.Itoa(leg.window), strconv.FormatUint(r1.mallocs-r0.mallocs, 10), strconv.FormatUint(uint64(r1.gcs-r0.gcs), 10), sock}
		row = append(append(row, journal...), work...)
		t.Rows = append(t.Rows, append(row, ns(float64(r1.at.Sub(r0.at).Nanoseconds())/float64(leg.window))))
	}
	ob, err := newObserverReads()
	if err != nil {
		return t, fmt.Errorf("observer: %w", err)
	}
	defer ob.close()
	for _, leg := range observerLegs {
		r0, r1, err := counted(1, leg.window, leg.read(ob), ob.io, nil)
		if err != nil {
			return t, fmt.Errorf("%s: %w", leg.name, err)
		}
		t.Rows = append(t.Rows, []string{
			leg.name, strconv.Itoa(leg.window), strconv.FormatUint(r1.mallocs-r0.mallocs, 10), strconv.FormatUint(uint64(r1.gcs-r0.gcs), 10),
			fmt.Sprintf("%.4f", float64(r1.sock-r0.sock)/float64(leg.window)), "-", "-", "-", "-", "-",
			ns(float64(r1.at.Sub(r0.at).Nanoseconds()) / float64(leg.window)),
		})
	}
	return t, nil
}
