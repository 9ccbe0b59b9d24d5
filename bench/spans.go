package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one recorded call across a layer boundary. Parent is the index
// of the span that caused it (-1 for a root); Req identifies the request
// the span belongs to (campaign key, plus the fault index for injections).
type span struct {
	Layer  string
	Name   string
	Req    string
	Parent int
	TID    int
	Start  time.Duration
	End    time.Duration
}

// recorder holds the spans of one traced pass in memory; they are written
// out as Chrome trace JSON when the pass ends. A nil recorder records
// nothing, so untraced passes call the same code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(layer, name, req string, parent, tid int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Layer: layer, Name: name, Req: req, Parent: parent, TID: tid, Start: now, End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose times the caller measured (relative to since).
func (r *recorder) add(layer, name, req string, tid int, since time.Time, start, dur time.Duration) {
	if r == nil {
		return
	}
	off := since.Sub(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, span{Layer: layer, Name: name, Req: req, Parent: -1, TID: tid, Start: off + start, End: off + start + dur})
	r.mu.Unlock()
}

// time runs f inside a span and returns how long it took.
func (r *recorder) time(layer, name, req string, parent int, f func()) time.Duration {
	id := r.begin(layer, name, req, parent, 0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	r.end(id)
	return d
}

// layerTimes sums the closed spans per layer. The product path's spans are
// flat — seen from outside, no call of one layer encloses a spanned call of
// another — so a layer's span time is its self time.
func layerTimes(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.End >= s.Start { // else never closed
			out[s.Layer] += s.End - s.Start
		}
	}
	return out
}

// chromeEvent is one trace_event record ("X" = complete event).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome writes the journal as Chrome trace_event JSON (load it in
// chrome://tracing or ui.perfetto.dev).
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		ev := chromeEvent{Name: s.Name, Cat: s.Layer, Ph: "X", PID: 1, TID: s.TID,
			TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3}
		if s.Req != "" {
			ev.Args = map[string]string{"request": s.Req}
		}
		if s.Parent >= 0 {
			if ev.Args == nil {
				ev.Args = map[string]string{}
			}
			ev.Args["parent"] = spans[s.Parent].Name + " " + spans[s.Parent].Req
		}
		events = append(events, ev)
	}
	b, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
