package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// tree builds a monitor.apply span with a commit child and a
// shard.commit grandchild, the shape a sharded monitor emits.
func tree(t0 time.Time) *Span {
	root := &Span{Name: SpanMonitorApply, Time: 7, Start: t0, Dur: 10 * time.Millisecond, Wait: time.Millisecond}
	commit := &Span{Name: SpanCommit, Time: 7, Start: t0.Add(time.Millisecond), Dur: 8 * time.Millisecond, Ops: 3}
	shard := &Span{
		Name: SpanShardCommit, Detail: "0", Time: 7, Track: 1,
		Start: t0.Add(2 * time.Millisecond), Dur: 6 * time.Millisecond, Ops: 5,
	}
	commit.Children = append(commit.Children, shard)
	root.Children = append(root.Children, commit)
	return root
}

func TestSpanWalkAndRender(t *testing.T) {
	s := tree(time.Now())
	var names []string
	s.Walk(func(sp *Span) { names = append(names, sp.Name) })
	want := []string{SpanMonitorApply, SpanCommit, SpanShardCommit}
	if len(names) != len(want) {
		t.Fatalf("walked %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("walk[%d] = %q, want %q (parents first)", i, names[i], want[i])
		}
	}
	r := s.Render()
	for _, want := range []string{"monitor.apply 10ms wait=1ms", "  commit 8ms ops=3", "    shard.commit(0) 6ms ops=5 track=1"} {
		if !strings.Contains(r, want) {
			t.Errorf("render missing %q:\n%s", want, r)
		}
	}
}

func TestSpanChildInheritsContext(t *testing.T) {
	p := &Span{Name: SpanCommit, Time: 42, Track: 3, Start: time.Now()}
	c := p.Child(SpanWALFsync, "d")
	if c.Time != 42 || c.Track != 3 {
		t.Errorf("child did not inherit time/track: %+v", c)
	}
	if len(p.Children) != 1 || p.Children[0] != c {
		t.Error("child not appended to parent")
	}
	c.End()
	if c.Dur < 0 {
		t.Errorf("End produced negative duration %v", c.Dur)
	}
}

func TestSpanRecorderRing(t *testing.T) {
	r := NewSpanRecorder(4)
	for i := 0; i < 6; i++ {
		r.ObserveSpan(&Span{Name: SpanCommit, Time: uint64(i)})
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	snap := r.Snapshot()
	for i, s := range snap {
		if want := uint64(i + 2); s.Time != want {
			t.Errorf("snapshot[%d].Time = %d, want %d (oldest-first after wrap)", i, s.Time, want)
		}
	}
}

func TestSpanRecorderConcurrent(t *testing.T) {
	r := NewSpanRecorder(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.ObserveSpan(&Span{Name: SpanCommit})
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Len(); got != 64 {
		t.Errorf("Len = %d, want 64", got)
	}
}

func TestMultiSpanSink(t *testing.T) {
	if MultiSpanSink() != nil {
		t.Error("no sinks should collapse to nil")
	}
	if MultiSpanSink(nil, nil) != nil {
		t.Error("all-nil sinks should collapse to nil")
	}
	a := NewSpanRecorder(8)
	if MultiSpanSink(nil, a) != SpanSink(a) {
		t.Error("single sink should be returned unwrapped")
	}
	b := NewSpanRecorder(8)
	m := MultiSpanSink(a, b)
	m.ObserveSpan(&Span{Name: SpanCommit})
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("fan-out miscounted: a=%d b=%d", a.Len(), b.Len())
	}
}

func TestSlowSpanLogger(t *testing.T) {
	var logged []string
	sink := NewSlowSpanLogger(5*time.Millisecond, func(s string) { logged = append(logged, s) })
	sink.ObserveSpan(&Span{Name: SpanCommit, Time: 1, Dur: time.Millisecond})
	if len(logged) != 0 {
		t.Fatal("fast commit logged")
	}
	sink.ObserveSpan(tree(time.Now()))
	if len(logged) != 1 {
		t.Fatalf("slow commit not logged (%d entries)", len(logged))
	}
	for _, want := range []string{"slow monitor.apply t=7 took 10ms", "commit", "shard.commit(0)"} {
		if !strings.Contains(logged[0], want) {
			t.Errorf("slow log missing %q:\n%s", want, logged[0])
		}
	}
}

func TestSlowSpanLoggerNamesTheRoot(t *testing.T) {
	var logged []string
	sink := NewSlowSpanLogger(0, func(s string) { logged = append(logged, s) })
	sink.ObserveSpan(&Span{Name: SpanMonitorApply, Time: 9, Dur: time.Millisecond})
	sink.ObserveSpan(&Span{Name: SpanSnapshotSave, Time: 9, Dur: time.Millisecond})
	if len(logged) != 2 || !strings.HasPrefix(logged[0], "slow monitor.apply t=9 took 1ms") ||
		!strings.HasPrefix(logged[1], "slow snapshot.save t=9 took 1ms") {
		t.Errorf("headlines do not name their roots:\n%s", strings.Join(logged, "\n"))
	}
}

// TestSpanAdopt checks the hand-over the monitor does for layers below
// the commit: the adopted tree becomes a child, and its spans without an
// engine timestamp take the parent's.
func TestSpanAdopt(t *testing.T) {
	parent := &Span{Name: SpanMonitorApply, Time: 42}
	commit := &Span{Name: SpanCommit, Time: 42}
	app := &Span{Name: SpanWALAppend}
	app.Child(SpanWALFsync, "")
	parent.Adopt(commit)
	parent.Adopt(app)
	if len(parent.Children) != 2 || parent.Children[0] != commit || parent.Children[1] != app {
		t.Fatalf("children = %v, want [commit wal.append] in hand-over order", parent.Children)
	}
	if app.Time != 42 || app.Children[0].Time != 42 {
		t.Errorf("wal.append t=%d, wal.fsync t=%d, want the commit's 42", app.Time, app.Children[0].Time)
	}
}

// detailSink is a recorder that asks for detail spans.
type detailSink struct{ *SpanRecorder }

func (detailSink) WantsDetail() bool { return true }

// TestWantsDetailDefaults pins who gets detail spans: only a sink with
// a WantsDetail method answering yes, and a fan-out holding one.
func TestWantsDetailDefaults(t *testing.T) {
	rec := NewSpanRecorder(4)
	slow := NewSlowSpanLogger(time.Hour, func(string) {})
	yes := detailSink{NewSpanRecorder(4)}
	for _, tc := range []struct {
		name string
		sink SpanSink
		want bool
	}{
		{"nil", nil, false},
		{"recorder", rec, false},
		{"slow logger", slow, false},
		{"asking sink", yes, true},
		{"fan-out without", MultiSpanSink(rec, slow), false},
		{"fan-out with", MultiSpanSink(rec, yes), true},
	} {
		if got := (&Observer{Spans: tc.sink}).WantsDetail(); got != tc.want {
			t.Errorf("%s: WantsDetail = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCommitScope drives the one implementation of the commit
// bookkeeping the engines share.
func TestCommitScope(t *testing.T) {
	m := NewMetrics(NewRegistry())
	rec := NewSpanRecorder(4)
	o := &Observer{Metrics: m, Spans: rec}

	cs := o.BeginCommit(7, 3)
	if cs.Idle() || cs.Metrics != m || cs.Span == nil || cs.Detail {
		t.Fatalf("scope = %+v, want metrics, a root span and no detail", cs)
	}
	if !cs.End(nil) {
		t.Error("End(nil) with metrics should cue the gauge publish")
	}
	if m.Commits.Value() != 1 || m.CommitSeconds.Count() != 1 || m.CommitErrors.Value() != 0 {
		t.Errorf("after success: commits=%d latencies=%d errors=%d, want 1 1 0",
			m.Commits.Value(), m.CommitSeconds.Count(), m.CommitErrors.Value())
	}
	cs = o.BeginCommit(8, 1)
	if cs.End(errFake) {
		t.Error("End(err) must not cue the gauge publish")
	}
	if m.Commits.Value() != 1 || m.CommitSeconds.Count() != 1 || m.CommitErrors.Value() != 1 {
		t.Errorf("after failure: commits=%d latencies=%d errors=%d, want 1 1 1",
			m.Commits.Value(), m.CommitSeconds.Count(), m.CommitErrors.Value())
	}
	roots := rec.Snapshot()
	if len(roots) != 2 {
		t.Fatalf("sink saw %d roots, want one per commit", len(roots))
	}
	if r := roots[0]; r.Name != SpanCommit || r.Time != 7 || r.Ops != 3 || r.Err != nil {
		t.Errorf("first root = %+v", r)
	}
	if r := roots[1]; r.Name != SpanCommit || r.Time != 8 || r.Err != errFake {
		t.Errorf("failed root = %+v, want the error on it", r)
	}

	// Spans alone: a root, nothing to publish. Metrics alone: no root.
	spansOnly := (&Observer{Spans: detailSink{NewSpanRecorder(4)}}).BeginCommit(1, 0)
	if spansOnly.Span == nil || !spansOnly.Detail || spansOnly.End(nil) {
		t.Errorf("spans-only scope = %+v", spansOnly)
	}
	metricsOnly := (&Observer{Metrics: m}).BeginCommit(1, 0)
	if metricsOnly.Idle() || metricsOnly.Span != nil || !metricsOnly.End(nil) {
		t.Errorf("metrics-only scope = %+v", metricsOnly)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	t0 := time.Now()
	roots := []*Span{tree(t0), nil, {
		Name: SpanCommit, Time: 8, Start: t0.Add(20 * time.Millisecond),
		Dur: time.Millisecond, Err: errFake,
	}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, roots); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) != 4 {
		t.Fatalf("%d events, want 4 (nil root skipped)", len(trace.TraceEvents))
	}
	ev := trace.TraceEvents[0]
	if ev.Ph != "X" || ev.Pid != 1 || ev.Tid != 0 || ev.Ts != 0 {
		t.Errorf("root event = %+v", ev)
	}
	if ev.Dur != 10_000 {
		t.Errorf("root dur = %v µs, want 10000", ev.Dur)
	}
	if ev.Args["wait_us"] != 1000.0 {
		t.Errorf("root wait_us = %v", ev.Args["wait_us"])
	}
	shard := trace.TraceEvents[2]
	if shard.Name != SpanShardCommit || shard.Tid != 1 {
		t.Errorf("shard event on tid %d: %+v", shard.Tid, shard)
	}
	// Child slices must nest inside the parent on the timeline.
	parent := trace.TraceEvents[1]
	if shard.Ts < parent.Ts || shard.Ts+shard.Dur > parent.Ts+parent.Dur {
		t.Errorf("shard [%v,%v] escapes parent [%v,%v]",
			shard.Ts, shard.Ts+shard.Dur, parent.Ts, parent.Ts+parent.Dur)
	}
	errEv := trace.TraceEvents[3]
	if errEv.Args["err"] != "fake" {
		t.Errorf("error not exported: %+v", errEv.Args)
	}
}
