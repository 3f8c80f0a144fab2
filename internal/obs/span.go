package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Span names: the one vocabulary of the tracing model. A commit span
// decomposes into per-phase children (apply/update/check/carry); a sink
// that asks for detail gets one node.update child per auxiliary node
// under phase.update and one constraint.check child per constraint
// under phase.check; the shard router adds per-shard sub-commit
// children, and the durability layer adds WAL append/fsync spans. Parse and the snapshot operations are
// roots of their own.
const (
	SpanCommit          = "commit"           // one committed transaction, end to end
	SpanApply           = "phase.apply"      // transaction applied to storage
	SpanUpdate          = "phase.update"     // auxiliary node updates, in registration order
	SpanCheck           = "phase.check"      // constraint denial evaluations
	SpanCarry           = "phase.carry"      // deferred window advance bookkeeping
	SpanNodeUpdate      = "node.update"      // one auxiliary node's update; Detail = subformula
	SpanConstraintCheck = "constraint.check" // one denial evaluation; Detail = constraint name
	SpanShardCommit     = "shard.commit"     // one shard engine's sub-commit
	SpanWALAppend       = "wal.append"       // one record framed and written
	SpanWALFsync        = "wal.fsync"        // fsync issued by the append
	SpanMonitorApply    = "monitor.apply"    // monitor's serialized commit section
	SpanParse           = "parse"            // constraint source -> compiled constraint; Detail = name
	SpanSnapshotSave    = "snapshot.save"    // checker state serialized; Detail = byte count
	SpanSnapshotRestore = "snapshot.restore" // checker state rebuilt; Detail = state count
)

// Span is one timed section of the commit path. Spans form a tree: the
// root is typically a commit (or the monitor's apply section enclosing
// it) and children decompose its time. All fields are filled by the
// emitting layer before the root is handed to a SpanSink, so sinks see
// a complete, immutable tree.
type Span struct {
	Name   string        // one of the Span* constants
	Detail string        // subject (constraint, shard index, level, ...)
	Time   uint64        // engine timestamp of the enclosing commit
	Track  int           // timeline lane: 0 = serial path, 1..n = shard n-1
	Start  time.Time     // wall-clock begin
	Dur    time.Duration // wall-clock length
	Ops    int           // operations attributed (nodes, checks, tuples, ...)
	Wait   time.Duration // lock wait included in Dur
	Err    error         // nil on success

	Children []*Span
}

// End sets Dur from Start.
func (s *Span) End() { s.Dur = time.Since(s.Start) }

// Child appends and returns a started child span on the parent's track.
func (s *Span) Child(name, detail string) *Span {
	c := &Span{Name: name, Detail: detail, Time: s.Time, Track: s.Track, Start: time.Now()}
	s.Children = append(s.Children, c)
	return c
}

// Adopt appends the completed tree c as a child of s. A tree whose root
// carries no engine timestamp takes s's throughout: a layer below the
// commit (the WAL frames bytes) does not know which commit it serves.
func (s *Span) Adopt(c *Span) {
	if c.Time == 0 {
		c.Walk(func(d *Span) { d.Time = s.Time })
	}
	s.Children = append(s.Children, c)
}

// Walk visits the span and all descendants, parents first.
func (s *Span) Walk(f func(*Span)) {
	if s == nil {
		return
	}
	f(s)
	for _, c := range s.Children {
		c.Walk(f)
	}
}

// Render writes the span tree as an indented text block, one line per
// span — the shape the slow-commit log dumps.
func (s *Span) Render() string {
	var b strings.Builder
	s.render(&b, 0)
	return b.String()
}

func (s *Span) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.Name)
	if s.Detail != "" {
		fmt.Fprintf(b, "(%s)", s.Detail)
	}
	fmt.Fprintf(b, " %v", s.Dur)
	if s.Ops > 0 {
		fmt.Fprintf(b, " ops=%d", s.Ops)
	}
	if s.Wait > 0 {
		fmt.Fprintf(b, " wait=%v", s.Wait)
	}
	if s.Track > 0 {
		fmt.Fprintf(b, " track=%d", s.Track)
	}
	if s.Err != nil {
		fmt.Fprintf(b, " err=%v", s.Err)
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		c.render(b, depth+1)
	}
}

// SpanSink receives completed root spans. Implementations must be safe
// for concurrent use; they run on the commit path after the commit's
// timing has been taken, so a slow sink delays the caller but not the
// measurement.
//
// A sink that also has a method WantsDetail() bool is asked once per
// commit whether to build the high-frequency children (node.update,
// constraint.check): each costs two clock reads and a rendered subject,
// so they exist only while some sink answers yes. Sinks without the
// method get none.
type SpanSink interface {
	ObserveSpan(*Span)
}

// wantsDetail asks sink the optional WantsDetail question; nil sinks
// and sinks without the method answer no.
func wantsDetail(sink SpanSink) bool {
	d, ok := sink.(interface{ WantsDetail() bool })
	return ok && d.WantsDetail()
}

// MultiSpanSink fans a span out to several sinks, skipping nils. The
// fan-out wants detail when any member does.
func MultiSpanSink(sinks ...SpanSink) SpanSink {
	kept := make([]SpanSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multiSink(kept)
}

type multiSink []SpanSink

func (m multiSink) ObserveSpan(s *Span) {
	for _, sink := range m {
		sink.ObserveSpan(s)
	}
}

func (m multiSink) WantsDetail() bool {
	for _, sink := range m {
		if wantsDetail(sink) {
			return true
		}
	}
	return false
}

// SpanRecorder keeps the last cap root spans in a ring buffer, for the
// trace exporter and the daemons' -trace-out flag.
type SpanRecorder struct {
	mu    sync.Mutex
	ring  []*Span
	next  int
	total int
}

// NewSpanRecorder returns a recorder keeping the last capacity roots
// (capacity <= 0 selects 4096).
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = 4096
	}
	return &SpanRecorder{ring: make([]*Span, capacity)}
}

// ObserveSpan records one root span.
func (r *SpanRecorder) ObserveSpan(s *Span) {
	r.mu.Lock()
	r.ring[r.next] = s
	r.next = (r.next + 1) % len(r.ring)
	r.total++
	r.mu.Unlock()
}

// Len reports how many roots are currently held (at most the capacity).
func (r *SpanRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total < len(r.ring) {
		return r.total
	}
	return len(r.ring)
}

// Snapshot returns the held roots oldest-first.
func (r *SpanRecorder) Snapshot() []*Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	if n > len(r.ring) {
		n = len(r.ring)
	}
	out := make([]*Span, 0, n)
	start := 0
	if r.total >= len(r.ring) {
		start = r.next
	}
	for i := 0; i < n; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// slowSpanLogger renders roots at or above threshold through out.
type slowSpanLogger struct {
	threshold time.Duration
	out       func(string)
}

// NewSlowSpanLogger returns a sink that renders any root span slower
// than threshold through out (one multi-line string per slow tree,
// headed by the root's name and timestamp) — the rticd -slow-commit
// hook.
func NewSlowSpanLogger(threshold time.Duration, out func(string)) SpanSink {
	return slowSpanLogger{threshold: threshold, out: out}
}

func (l slowSpanLogger) ObserveSpan(s *Span) {
	if s.Dur >= l.threshold {
		l.out(fmt.Sprintf("slow %s t=%d took %v (threshold %v)\n%s", s.Name, s.Time, s.Dur, l.threshold, s.Render()))
	}
}
