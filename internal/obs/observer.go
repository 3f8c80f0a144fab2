package obs

import (
	"time"

	"rtic/internal/mono"
)

// Observer bundles the instrumentation sinks an engine can carry: a
// metric set and a span sink. Either (or the Observer itself) may be
// nil; engines guard every hook with the nil-safe accessors below, so
// the disabled path costs only pointer comparisons.
type Observer struct {
	Metrics *Metrics
	Spans   SpanSink
}

// MetricSink returns the observer's metric set, nil for a nil observer.
func (o *Observer) MetricSink() *Metrics {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// SpanSink returns the observer's span sink, nil for a nil observer.
func (o *Observer) SpanSink() SpanSink {
	if o == nil {
		return nil
	}
	return o.Spans
}

// WantsDetail reports whether the span sink asked for the per-node and
// per-constraint child spans (see SpanSink).
func (o *Observer) WantsDetail() bool {
	return o != nil && wantsDetail(o.Spans)
}

// CommitScope is the bookkeeping every engine does around one commit:
// the commit and error counters, the commit-latency histogram, and the
// commit root span. An engine opens it with BeginCommit, runs the commit
// (hanging phase and detail spans under Span), and closes it with End;
// the gauges that differ per engine are the engine's to publish beside.
type CommitScope struct {
	Metrics *Metrics // nil without a metric set
	Span    *Span    // commit root under construction; nil without a span sink
	Detail  bool     // the sink wants node.update / constraint.check children

	sink  SpanSink
	start time.Time
}

// BeginCommit opens the scope for a commit of ops operations at engine
// time t. With no sink attached it returns the zero scope without
// reading the clock.
func (o *Observer) BeginCommit(t uint64, ops int) CommitScope {
	if o == nil || (o.Metrics == nil && o.Spans == nil) {
		return CommitScope{}
	}
	cs := CommitScope{Metrics: o.Metrics, sink: o.Spans, start: mono.Now()}
	if cs.sink != nil {
		cs.Span = &Span{Name: SpanCommit, Time: t, Start: cs.start, Ops: ops}
		cs.Detail = wantsDetail(cs.sink)
	}
	return cs
}

// Idle reports whether nothing observes this commit, so the engine can
// take its uninstrumented path and skip End.
func (cs *CommitScope) Idle() bool { return cs.Metrics == nil && cs.Span == nil }

// Start returns the instant the commit began: where an engine that times
// its phases back to back starts the first.
func (cs *CommitScope) Start() time.Time { return cs.start }

// End closes the scope with the commit's outcome: a failed commit counts
// as an error, a successful one as a commit with its latency, and the
// root span goes to the sink either way. It reports whether a metric set
// saw a successful commit — the engine's cue to publish its gauges.
func (cs *CommitScope) End(err error) bool { return cs.EndAt(err, mono.Now()) }

// EndAt is End with the commit ending at end: an engine that times its
// phases back to back ends the commit where its last phase ended, so
// the phases account for all of it.
func (cs *CommitScope) EndAt(err error, end time.Time) bool {
	d := end.Sub(cs.start)
	if m := cs.Metrics; m != nil {
		if err != nil {
			m.CommitErrors.Inc()
		} else {
			m.Commits.Inc()
			m.CommitSeconds.Observe(d.Seconds())
		}
	}
	if cs.Span != nil {
		cs.Span.Dur = d
		cs.Span.Err = err
		cs.sink.ObserveSpan(cs.Span)
	}
	return cs.Metrics != nil && err == nil
}
