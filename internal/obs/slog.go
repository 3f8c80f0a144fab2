package obs

import (
	"context"
	"log/slog"
)

// slogSink logs span trees through a structured logger.
type slogSink struct {
	l *slog.Logger
}

// NewSlogSink returns a span sink that writes one structured log line
// per span of every tree it receives, parents first: the span name as
// the message, then detail, t, dur and err where set. Level ERROR when
// the span carries an error, DEBUG for the per-node and per-constraint
// detail spans, INFO for the rest. It asks the engines for detail spans
// only while its handler accepts DEBUG. A nil logger selects
// slog.Default().
func NewSlogSink(l *slog.Logger) SpanSink {
	if l == nil {
		l = slog.Default()
	}
	return &slogSink{l: l}
}

func (s *slogSink) ObserveSpan(root *Span) { root.Walk(s.log) }

func (s *slogSink) log(sp *Span) {
	level := slog.LevelInfo
	switch {
	case sp.Err != nil:
		level = slog.LevelError
	case sp.Name == SpanNodeUpdate || sp.Name == SpanConstraintCheck:
		level = slog.LevelDebug
	}
	if !s.l.Enabled(context.Background(), level) {
		return
	}
	attrs := make([]any, 0, 8)
	if sp.Detail != "" {
		attrs = append(attrs, "detail", sp.Detail)
	}
	if sp.Time != 0 || sp.Name == SpanCommit {
		attrs = append(attrs, "t", sp.Time)
	}
	attrs = append(attrs, "dur", sp.Dur)
	if sp.Err != nil {
		attrs = append(attrs, "err", sp.Err)
	}
	s.l.Log(context.Background(), level, sp.Name, attrs...)
}

// WantsDetail answers from the handler's level: detail spans log at
// DEBUG, so a handler that drops DEBUG never has them built.
func (s *slogSink) WantsDetail() bool {
	return s.l.Enabled(context.Background(), slog.LevelDebug)
}
