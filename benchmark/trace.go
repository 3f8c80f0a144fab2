package main

import (
	"encoding/json"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rtic/internal/check"
	"rtic/internal/engine"
	"rtic/internal/storage"
	"rtic/internal/vfs"
)

// traceFileCommits is how many commits of each rung are written to
// out/trace-<workload>.json; the metrics are computed over all of them.
const traceFileCommits = 1000

// span is one timed call into a layer. Spans of one commit share its
// index; a rung replays the same commits through one more layer than the
// rung before it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	Name   string `json:"name"`
	Rung   string `json:"rung"`
	Commit int    `json:"commit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory. A nil tracer records nothing, and
// the stacks built for it carry no timing wrappers at all: that is the
// untraced run the overhead ratio compares against.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	rung   string
	commit int
	cur    int // innermost open span: the parent of the next one
	spans  []span
}

// open starts a span that may have children and returns its id.
func (t *tracer) open(name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.cur, Name: name, Rung: t.rung, Commit: t.commit, Start: now})
	t.cur = id
	return id
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.cur = t.spans[id-1].Parent
}

// span runs f as the named span of a rung's commit.
func (t *tracer) span(rung string, commit int, name string, f func() error) error {
	t.at(rung, commit)
	id := t.open(name)
	err := f()
	t.close(id)
	return err
}

// leaf records a finished childless span under the innermost open one.
// The wrappers that other goroutines call through (shard engines, the
// WAL's background flusher) use it: it never moves cur.
func (t *tracer) leaf(name string, start time.Time) {
	now := time.Now()
	commit, parent := t.position()
	t.leafAt(name, start, now, commit, parent)
}

// position is where a span opened now would hang: the current commit and
// the innermost open span.
func (t *tracer) position() (commit, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.commit, t.cur
}

// leafAt records a finished span at an explicit position, for a caller
// that noted the position earlier than it can report the span.
func (t *tracer) leafAt(name string, start, end time.Time, commit, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Rung: t.rung, Commit: commit,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// at names the rung and the commit the following spans belong to.
func (t *tracer) at(rung string, commit int) {
	t.mu.Lock()
	t.rung, t.commit = rung, commit
	t.mu.Unlock()
}

// perCommit sums, for every commit of a rung, the durations in µs of the
// spans with the given name. (A background fsync of the batch policy's
// flusher is charged to the commit it interrupted.)
func (t *tracer) perCommit(rung, name string, n int) []float64 {
	t.mu.Lock() // a batch journal's flusher may still be recording
	defer t.mu.Unlock()
	per := make([]float64, n)
	for _, s := range t.spans {
		if s.Rung == rung && s.Name == name && s.Commit < n {
			per[s.Commit] += float64(s.End-s.Start) / 1e3
		}
	}
	return per
}

// windows is how many equal slices windowMean cuts a series into.
const windows = 48

// windowMean is the mean that survives a stalled host: the median of the
// means of equal windows. Unlike a median of single calls it stays close
// to additive, which the ladder's subtraction needs.
func windowMean(v []float64) float64 {
	size := len(v) / windows
	if size == 0 {
		size = 1
	}
	var means []float64
	for i := 0; i+size <= len(v); i += size {
		sum := 0.0
		for _, x := range v[i : i+size] {
			sum += x
		}
		means = append(means, sum/float64(size))
	}
	return median(means)
}

func (t *tracer) mean(rung, name string, n int) float64 {
	return windowMean(t.perCommit(rung, name, n))
}

// writeFile dumps the spans of the first traceFileCommits commits of
// every rung.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	var keep []span
	for _, s := range t.spans {
		if s.Commit < traceFileCommits {
			keep = append(keep, s)
		}
	}
	t.mu.Unlock()
	b, err := json.Marshal(keep)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedFS is the vfs.FS the traced journals write through: it times and
// counts every write and fsync where they reach the filesystem.
type timedFS struct {
	vfs.FS
	tr         *tracer
	writes     atomic.Int64
	writeBytes atomic.Int64
	syncs      atomic.Int64
}

func (f *timedFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

type timedFile struct {
	vfs.File
	fs *timedFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.fs.tr.leaf("vfs.write", t0)
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.tr.leaf("vfs.sync", t0)
	f.fs.syncs.Add(1)
	return err
}

// timedEngine is what the traced router's shard.Factory builds: a shard
// engine whose commits are spans.
type timedEngine struct {
	engine.Engine
	tr *tracer
}

func (e timedEngine) Step(t uint64, tx *storage.Transaction) ([]check.Violation, error) {
	t0 := time.Now()
	vs, err := e.Engine.Step(t, tx)
	e.tr.leaf("shard.engine", t0)
	return vs, err
}

// tracedListener wraps the connections monitor.Server accepts, so the
// server's side of every request is timed and counted from outside it:
// server.handle spans run from a request arriving (Read returns) to each
// reply write starting, server.write spans cover the writes. The server
// writes once per bufio flush, so writes are reply flushes.
type tracedListener struct {
	net.Listener
	tr            *tracer
	writes, bytes atomic.Int64
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, l: l}, nil
}

// tracedConn is used by the one server goroutine that handles it.
type tracedConn struct {
	net.Conn
	l              *tracedListener
	mark           time.Time // end of the last read or write
	commit, parent int       // the request being handled
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mark = time.Now()
	c.commit, c.parent = c.l.tr.position()
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	t1 := time.Now()
	c.l.tr.leafAt("server.handle", c.mark, t0, c.commit, c.parent)
	c.l.tr.leafAt("server.write", t0, t1, c.commit, c.parent)
	c.mark = t1
	c.l.writes.Add(1)
	c.l.bytes.Add(int64(n))
	return n, err
}
