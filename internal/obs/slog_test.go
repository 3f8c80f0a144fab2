package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// detailTree builds the tree a commit yields for a sink that asked for
// detail: commit ⊃ phase.update ⊃ node.update, phase.check ⊃
// constraint.check. failing marks the node.update span failed.
func detailTree(failing bool) *Span {
	t0 := time.Now()
	root := &Span{Name: SpanCommit, Time: 100, Start: t0, Dur: 42 * time.Microsecond, Ops: 2}
	upd := &Span{Name: SpanUpdate, Time: 100, Start: t0, Dur: 10 * time.Microsecond, Ops: 1}
	node := &Span{Name: SpanNodeUpdate, Detail: "once[0,365] fire(e)", Time: 100, Start: t0, Dur: time.Microsecond}
	if failing {
		node.Err = errFake
	}
	chk := &Span{Name: SpanCheck, Time: 100, Start: t0, Dur: 20 * time.Microsecond, Ops: 1}
	con := &Span{Name: SpanConstraintCheck, Detail: "no_quick_rehire", Time: 100, Start: t0, Dur: 19 * time.Microsecond}
	upd.Children = []*Span{node}
	chk.Children = []*Span{con}
	root.Children = []*Span{upd, chk}
	return root
}

func slogSinkAt(level slog.Level) (SpanSink, *bytes.Buffer) {
	var buf bytes.Buffer
	return NewSlogSink(slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: level}))), &buf
}

func TestSlogSink(t *testing.T) {
	sink, buf := slogSinkAt(slog.LevelDebug)
	if !(&Observer{Spans: sink}).WantsDetail() {
		t.Error("a DEBUG handler should ask for detail spans")
	}
	sink.ObserveSpan(detailTree(false))
	sink.ObserveSpan(&Span{Name: SpanParse, Detail: "c1", Err: errFake})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("logged %d lines, want one per span (5) plus the parse root:\n%s", len(lines), buf)
	}
	for i, want := range [][]string{
		{"level=INFO", "msg=commit", "t=100", "dur=42µs"},
		{"level=INFO", "msg=phase.update"},
		{"level=DEBUG", "msg=node.update", `detail="once[0,365] fire(e)"`, "t=100", "dur=1µs"},
		{"level=INFO", "msg=phase.check"},
		{"level=DEBUG", "msg=constraint.check", "detail=no_quick_rehire"},
		{"level=ERROR", "msg=parse", "detail=c1", "err=fake"},
	} {
		for _, w := range want {
			if !strings.Contains(lines[i], w) {
				t.Errorf("line %d missing %q: %s", i, w, lines[i])
			}
		}
	}
}

// TestSlogSinkDetailGate: an INFO handler refuses detail, drops the
// DEBUG lines of a tree that carries them anyway, and still logs a
// failed detail span — an error outranks its frequency class.
func TestSlogSinkDetailGate(t *testing.T) {
	sink, buf := slogSinkAt(slog.LevelInfo)
	if (&Observer{Spans: sink}).WantsDetail() {
		t.Error("an INFO handler should refuse detail spans")
	}
	sink.ObserveSpan(detailTree(false))
	out := buf.String()
	if strings.Contains(out, "node.update") || strings.Contains(out, "constraint.check") {
		t.Errorf("DEBUG spans logged at INFO:\n%s", out)
	}
	if !strings.Contains(out, "msg=commit") || !strings.Contains(out, "msg=phase.check") {
		t.Errorf("INFO spans missing:\n%s", out)
	}
	buf.Reset()
	sink.ObserveSpan(detailTree(true))
	if out := buf.String(); !strings.Contains(out, "level=ERROR msg=node.update") || !strings.Contains(out, "err=fake") {
		t.Errorf("failed node.update not logged at ERROR:\n%s", out)
	}
}

// TestSlogSinkWalksTree: every span of the engine-shaped tree becomes
// one line, parents first, with its own context.
func TestSlogSinkWalksTree(t *testing.T) {
	sink, buf := slogSinkAt(slog.LevelInfo)
	sink.ObserveSpan(tree(time.Now()))
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("flattened to %d lines, want 3:\n%s", len(lines), buf)
	}
	for i, want := range []string{"msg=commit t=7 dur=10ms", "msg=phase.check", "msg=worker detail=w0 t=7 dur=6ms"} {
		if !strings.Contains(lines[i], want) {
			t.Errorf("line %d = %s, want it to contain %q", i, lines[i], want)
		}
	}
	if NewSlogSink(nil) == nil {
		t.Error("a nil logger should select slog.Default()")
	}
}
