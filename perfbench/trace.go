package main

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// spanID names a recorded span; 0 is "no parent".
type spanID int

type span struct {
	Name       string
	Parent     spanID
	TID        int
	Start, End time.Duration // process CPU clock
	Args       map[string]any
}

type counterEvent struct {
	At   time.Duration
	Args map[string]any
}

// tracer keeps host-time spans (on the process CPU clock, cpuNow) and
// counter samples in memory for the traced run and writes them out
// once, at the end, as Chrome-trace JSON
// (ui.perfetto.dev and chrome://tracing open it). Spans come only from
// the benchmark's own calls into the simulator; nothing inside the
// program under test is instrumented.
type tracer struct {
	epoch   time.Duration
	spans   []span
	samples []counterEvent
	tid     int // 1 for trials, 2 for layer replays
}

func newTracer() *tracer { return &tracer{epoch: cpuNow(), tid: 1} }

// begin opens a span whose end is filled in later by end.
func (t *tracer) begin(name string, parent spanID, at time.Duration) spanID {
	t.spans = append(t.spans, span{Name: name, Parent: parent, TID: t.tid, Start: at})
	return spanID(len(t.spans))
}

func (t *tracer) end(id spanID, at time.Duration, args map[string]any) {
	s := &t.spans[id-1]
	s.End = at
	s.Args = args
}

// span records a closed span.
func (t *tracer) span(name string, parent spanID, from, to time.Duration, args map[string]any) spanID {
	t.spans = append(t.spans, span{Name: name, Parent: parent, TID: t.tid, Start: from, End: to, Args: args})
	return spanID(len(t.spans))
}

func (t *tracer) counters(at time.Duration, args map[string]any) {
	t.samples = append(t.samples, counterEvent{At: at, Args: args})
}

func (t *tracer) micros(at time.Duration) float64 {
	return float64((at - t.epoch).Nanoseconds()) / 1e3
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the trace in the Chrome trace-event format: one
// complete ("X") event per span, carrying its id and parent id, and one
// counter ("C") event per slice-edge sample.
func (t *tracer) writeChrome(w io.Writer) error {
	events := make([]chromeEvent, 0, len(t.spans)+len(t.samples)+2)
	events = append(events,
		chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: 1, Args: map[string]any{"name": "trials"}},
		chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: 2, Args: map[string]any{"name": "layer replays"}})
	for i, s := range t.spans {
		dur := float64((s.End - s.Start).Nanoseconds()) / 1e3
		args := map[string]any{"span": i + 1, "parent": int(s.Parent)}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, chromeEvent{Name: s.Name, Ph: "X", TS: t.micros(s.Start), Dur: &dur,
			PID: 1, TID: s.TID, Args: args})
	}
	for _, c := range t.samples {
		events = append(events, chromeEvent{Name: "router", Ph: "C", TS: t.micros(c.At), PID: 1, TID: 1, Args: c.Args})
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		return err
	}
	return bw.Flush()
}
