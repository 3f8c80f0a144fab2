package monitor

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"net"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/obs"
	"rtic/internal/vfs"
	"rtic/internal/wal"
)

// countingFS counts the writes, written bytes and fsyncs of the files it
// opens; the journals of BenchmarkDurableTrain go through it.
type countingFS struct {
	vfs.FS
	writes, bytes, syncs atomic.Int64
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

type countingFile struct {
	vfs.File
	c *countingFS
}

func (f countingFile) Write(p []byte) (int, error) {
	f.c.writes.Add(1)
	f.c.bytes.Add(int64(len(p)))
	return f.File.Write(p)
}

func (f countingFile) Sync() error {
	f.c.syncs.Add(1)
	return f.File.Sync()
}

// BenchmarkDurableTrain measures the acknowledged, journaled commit the
// way the daemon serves it, without the process: a Server over loopback
// in front of an observed Monitor, a Durable with one or two journals
// (one per shard) under SyncBatch, over a counting filesystem. Commits
// are the CDC freshness feed (cdcgen seed 7, 24 sensors), sent in trains
// of 10 as one client write. Per commit it reports allocations, journal
// writes and bytes, fsyncs and socket writes, and GC cycles per 1k
// commits. Allocations are counted over a fixed window after warm-up,
// client side included, so the gate holds at -benchtime=1x; they must
// stay at most maxAllocs. The warm-up runs one lap of the feed and past
// the next lap's first commit, where the 1000-unit gap expires every
// window at once and the served rows still stored all violate: storage
// sized by the feed has then reached its high-water mark, and the count
// is the same on every run. Every commit must reach every journal in
// exactly one write: the router splits a commit once and each journal
// frames its part in one buffer.
func BenchmarkDurableTrain(b *testing.B) {
	const (
		train      = 10
		warmTrains = 500 // 5000 commits: a lap of 4000 and 1000 into the next
		gateTrains = 200
		maxAllocs  = 1.5 // per commit, either journal count (0.0005 and 0.005; 5.5 and 6.2 before core recycled its rows)
	)
	cfg := cdcgen.Config{Steps: 4000, Seed: 7, Sensors: 24}
	h, _ := cdcgen.Generate(cfg)
	bodies := make([]string, len(h.Steps))
	for i, st := range h.Steps {
		bodies[i] = st.Tx.String()
	}
	// The feed repeats, each lap shifted past the previous one by more
	// than any window of the spec, so timestamps keep increasing.
	lap := h.Steps[len(h.Steps)-1].Time + 1000
	for _, journals := range []int{1, 2} {
		b.Run(fmt.Sprintf("journals=%d", journals), func(b *testing.B) {
			m, err := New(h.Schema, cdcgen.Constraints(cfg), WithShards(journals))
			if err != nil {
				b.Fatal(err)
			}
			o := &obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())}
			m.SetObserver(o)
			fsys := &countingFS{FS: vfs.OS}
			var logs []*wal.Log
			for _, p := range JournalPaths(filepath.Join(b.TempDir(), "journal"), journals) {
				l, err := wal.Open(p, wal.WithSyncPolicy(wal.SyncBatch), wal.WithMetrics(o.Metrics), wal.WithFS(fsys))
				if err != nil {
					b.Fatal(err)
				}
				logs = append(logs, l)
			}
			d, err := NewDurableLogs(m, logs, "", WithDurableFS(fsys))
			if err != nil {
				b.Fatal(err)
			}
			d.Attach()
			defer d.CloseLogs() //nolint:errcheck — the temp dir goes with the benchmark

			srv := NewServer(m)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			var sockWrites atomic.Int64
			go srv.Serve(countingListener{l, &sockWrites}) //nolint:errcheck — returns when the listener closes
			defer func() {
				l.Close()
				srv.Close()
			}()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			r := bufio.NewReader(conn)

			var out []byte
			k := 0 // commits sent
			sendTrains := func(n int) {
				for i := 0; i < n; i++ {
					out = out[:0]
					for j := 0; j < train; j++ {
						step := k % len(h.Steps)
						out = append(out, '@')
						out = strconv.AppendUint(out, h.Steps[step].Time+uint64(k/len(h.Steps))*lap, 10)
						out = append(out, ' ')
						out = append(out, bodies[step]...)
						out = append(out, '\n')
						k++
					}
					if _, err := conn.Write(out); err != nil {
						b.Fatal(err)
					}
					for acked := 0; acked < train; {
						reply, err := r.ReadSlice('\n')
						if err != nil {
							b.Fatal(err)
						}
						switch {
						case bytes.HasPrefix(reply, []byte("ok ")):
							acked++
						case !bytes.HasPrefix(reply, []byte("violation ")):
							b.Fatalf("reply = %q", reply)
						}
					}
				}
			}
			sendTrains(warmTrains)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			w0, by0 := fsys.writes.Load(), fsys.bytes.Load()
			sendTrains(gateTrains)
			runtime.ReadMemStats(&m1)
			commits := int64(gateTrains * train)
			allocs := float64(m1.Mallocs-m0.Mallocs) / float64(commits)
			if got, want := fsys.writes.Load()-w0, commits*int64(journals); got != want {
				b.Fatalf("%d journal writes for %d commits over %d journals, want %d: one write per journal per commit", got, commits, journals, want)
			}
			journalBytes := float64(fsys.bytes.Load()-by0) / float64(commits)

			gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
			metrics.Read(gc)
			gc0 := gc[0].Value.Uint64()
			sockWrites.Store(0)
			w0, s0 := fsys.writes.Load(), fsys.syncs.Load()
			b.ReportAllocs()
			b.ResetTimer()
			sendTrains(b.N)
			b.StopTimer()
			metrics.Read(gc)
			timed := float64(b.N * train)
			b.ReportMetric(allocs, "allocs/commit")
			b.ReportMetric(float64(fsys.writes.Load()-w0)/timed, "vfs-writes/commit")
			b.ReportMetric(journalBytes, "journal-B/commit")
			b.ReportMetric(float64(fsys.syncs.Load()-s0)/timed, "fsyncs/commit")
			b.ReportMetric(float64(sockWrites.Load())/timed, "sock-writes/commit")
			b.ReportMetric(float64(gc[0].Value.Uint64()-gc0)*1000/timed, "gc/1k-commits")
			if allocs > maxAllocs {
				b.Fatalf("%.2f allocations per commit over %d trains of %d with %d journals, want at most %g", allocs, gateTrains, train, journals, maxAllocs)
			}
		})
	}
}
