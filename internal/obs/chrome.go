package obs

import (
	"encoding/json"
	"io"
	"time"
)

// chromeEvent is one trace_event record in the Chrome/Perfetto trace
// format: a complete ("X") slice with microsecond timestamps.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs since trace start
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// WriteChromeTrace writes the span trees as Chrome trace_event JSON —
// the format chrome://tracing and ui.perfetto.dev open directly. Each
// span becomes one complete slice; Track selects the tid lane, so shard
// spans render as timelines of their own under the serial commit lane
// (tid 0). Timestamps are microseconds relative to the
// earliest root's start.
func WriteChromeTrace(w io.Writer, roots []*Span) error {
	var epoch time.Time
	for _, r := range roots {
		if r == nil {
			continue
		}
		if epoch.IsZero() || r.Start.Before(epoch) {
			epoch = r.Start
		}
	}
	trace := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ns"}
	for _, r := range roots {
		if r == nil {
			continue
		}
		r.Walk(func(s *Span) {
			ev := chromeEvent{
				Name: s.Name,
				Ph:   "X",
				Ts:   float64(s.Start.Sub(epoch)) / float64(time.Microsecond),
				Dur:  float64(s.Dur) / float64(time.Microsecond),
				Pid:  1,
				Tid:  s.Track,
			}
			args := map[string]any{}
			if s.Detail != "" {
				args["detail"] = s.Detail
			}
			if s.Time != 0 || s.Name == SpanCommit {
				args["t"] = s.Time
			}
			if s.Ops > 0 {
				args["ops"] = s.Ops
			}
			if s.Wait > 0 {
				args["wait_us"] = float64(s.Wait) / float64(time.Microsecond)
			}
			if s.Err != nil {
				args["err"] = s.Err.Error()
			}
			if len(args) > 0 {
				ev.Args = args
			}
			trace.TraceEvents = append(trace.TraceEvents, ev)
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}
