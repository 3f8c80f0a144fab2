package monitor

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtic/internal/cdcgen"
	"rtic/internal/obs"
	"rtic/internal/wal"
)

// settle collects, returns free pages to the OS, leaves a pool of idle
// OS threads and a stock of parking records, so that a counted window
// that follows starts no thread, wakes no scavenger and allocates no
// sudog: each allocates on the runtime's own schedule. A goroutine that
// waits on a contended mutex parks on a sudog from its processor's
// cache, and is released into the cache of the processor it wakes on;
// a cache that runs dry refills from a central list, which every
// collection empties. Parking a few hundred goroutines at once
// overfills the caches into the central list.
func settle() {
	debug.FreeOSMemory()
	var mu sync.Mutex
	var parked sync.WaitGroup
	mu.Lock()
	for i := 0; i < 512; i++ {
		parked.Add(1)
		go func() {
			defer parked.Done()
			mu.Lock()
			mu.Unlock() //nolint:staticcheck — the critical section is the wait
		}()
	}
	time.Sleep(20 * time.Millisecond)
	mu.Unlock()
	parked.Wait()
	n := 2*runtime.GOMAXPROCS(0) + 4
	var locked, exited sync.WaitGroup
	release := make(chan struct{})
	locked.Add(n)
	exited.Add(n)
	for i := 0; i < n; i++ {
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

// hrLine appends commit k of the hire/fire feed, "@k+1 -fire(k) +fire(k+1)":
// one fired employee at a time, no violation.
func hrLine(out []byte, k int) []byte {
	t := uint64(k) + 1
	out = append(out, '@')
	out = strconv.AppendUint(out, t, 10)
	out = append(out, " -fire("...)
	out = strconv.AppendUint(out, t-1, 10)
	out = append(out, ") +fire("...)
	out = strconv.AppendUint(out, t, 10)
	return append(out, ")\n"...)
}

// TestOperatorReadsAllocateNothing serves a two-shard monitor with a
// SyncBatch journal per shard and the durability worker running, the
// daemon's metrics (runtime counters included) attached. A pipelined
// writer commits in trains of 10 while an operator, after a first
// scrape, sends 100 stats and 20 metrics commands, each stats command
// after the writer's next train, so the reads interleave with commits
// however busy the machine is. Both clients allocate nothing
// themselves, so the process's heap allocation count must not move
// across the operator's reads.
func TestOperatorReadsAllocateNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("counted window")
	}
	m := durableMonitor(t, 2)
	obs.RegisterRuntime(m.Observer().Metrics.Registry())
	dir := t.TempDir()
	var logs []*wal.Log
	for i := 0; i < 2; i++ {
		l, err := wal.Open(journalPath(dir, 2, i), wal.WithSyncPolicy(wal.SyncBatch))
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, l)
	}
	d := attachDurable(t, m, logs, "")
	d.Start(0)
	t.Cleanup(func() {
		d.Stop()
		closeJournals(t, d.currentLogs())
	})
	_, addr := serve(t, m)

	// The writer pipelines trains of 10 and reads each back to its last
	// acknowledgement, as Table 11's legs do.
	var commits atomic.Int64
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			writerDone <- err
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		out := make([]byte, 0, 1024)
		// Values start at six digits and keep them, so the engine's key
		// buffers reach their size in the warm-up.
		for k := 100000; ; {
			select {
			case <-stop:
				writerDone <- nil
				return
			default:
			}
			out = out[:0]
			for j := 0; j < 10; j++ {
				out = hrLine(out, k)
				k++
			}
			if _, err := conn.Write(out); err != nil {
				writerDone <- err
				return
			}
			for acked := 0; acked < 10; acked++ {
				reply, err := r.ReadSlice('\n')
				if err != nil {
					writerDone <- err
					return
				}
				if !bytes.Equal(reply, []byte("ok 0\n")) {
					writerDone <- fmt.Errorf("writer: reply %q", reply)
					return
				}
			}
			commits.Add(10)
		}
	}()
	defer func() {
		close(stop)
		if err := <-writerDone; err != nil {
			t.Error(err)
		}
	}()
	// Past two of the spec's 365-unit windows, storage has reached its
	// high-water mark.
	for commits.Load() < 2000 {
		time.Sleep(time.Millisecond)
	}

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 64<<10)
	stats, metrics := []byte("stats\n"), []byte("metrics\n")
	var failed []byte // the first unexpected reply line, copied
	read := func(cmd []byte) {
		if _, err := conn.Write(cmd); err != nil {
			t.Fatal(err)
		}
		for {
			line, err := r.ReadSlice('\n')
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case bytes.Equal(cmd, stats):
				if !bytes.HasPrefix(line, []byte("stats nodes=")) && failed == nil {
					failed = append(failed, line...)
				}
				return
			case bytes.Equal(line, []byte("# EOF\n")):
				return
			case bytes.HasPrefix(line, []byte("error")) && failed == nil:
				failed = append(failed, line...)
			}
		}
	}
	reads := func() {
		for i := 0; i < 100; i++ {
			for c := commits.Load(); commits.Load() == c; {
				runtime.Gosched()
			}
			read(stats)
			if i%5 == 0 {
				read(metrics)
			}
		}
	}
	read(metrics)
	settle()
	reads()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := commits.Load()
	reads()
	runtime.ReadMemStats(&m1)
	if failed != nil {
		t.Fatalf("unexpected reply %q", failed)
	}
	if during := commits.Load() - before; during == 0 {
		t.Fatal("the writer committed nothing during the operator's reads")
	}
	if n := m1.Mallocs - m0.Mallocs; n != 0 {
		t.Errorf("100 stats and 20 metrics replies beside the writer allocated %d times, want 0", n)
	}
}

// TestStatsReplyEqualsFullWalk replays a CDC history through the line
// protocol, unsharded and over two shards, and holds the stats reply —
// running totals — to the full walk Monitor.Stats() after every 25th
// commit and after the last.
func TestStatsReplyEqualsFullWalk(t *testing.T) {
	h, _ := cdcgen.Generate(cdcgen.Config{Steps: 400, Seed: 7, Sensors: 24, BurstLen: 8, BurstEvery: 20, MaxReorder: 3, ViolationRate: 0.05})
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m, err := New(h.Schema, h.Constraints, WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			_, addr := serve(t, m)
			c := dial(t, addr)
			for i, s := range h.Steps {
				c.send(t, fmt.Sprintf("@%d %s", s.Time, s.Tx))
				for reply := c.recv(t); !strings.HasPrefix(reply, "ok "); reply = c.recv(t) {
					if !strings.HasPrefix(reply, "violation ") {
						t.Fatalf("commit %d: reply %q", i, reply)
					}
				}
				if i%25 != 24 && i != len(h.Steps)-1 {
					continue
				}
				c.send(t, "stats")
				st := m.Stats()
				want := fmt.Sprintf("stats nodes=%d entries=%d timestamps=%d bytes=%d", st.Nodes, st.Entries, st.Timestamps, st.Bytes)
				if got := c.recv(t); got != want {
					t.Fatalf("after commit %d: %q, the full walk reads %q", i, got, want)
				}
			}
			if st := m.Stats(); st.Entries == 0 {
				t.Fatal("the history left no entries; the comparison is vacuous")
			}
		})
	}
}
