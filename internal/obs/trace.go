// The span-based trace journal: named, categorised spans with exact host
// start/end times and string labels, recorded by the fault-free phases
// (image build, golden run, profiling, checkpoint selection) and by
// injection jobs. The journal exports as Chrome trace_event JSON — load it
// in chrome://tracing or https://ui.perfetto.dev — and summarises per
// category for the `serfi trace` subcommand.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one recorded interval. Start is relative to the tracer's epoch;
// TID is the logical track the span renders on (the engine assigns one per
// scenario group, so a group's phases and injection jobs line up).
type Span struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	TID   int               `json:"tid"`
	Start time.Duration     `json:"start"`
	Dur   time.Duration     `json:"dur"`
	Args  map[string]string `json:"args,omitempty"`
}

// Tracer records spans. All methods are safe for concurrent use and are
// nil-safe: a nil *Tracer records nothing, so instrumented code paths need
// no enabled-check at call sites.
type Tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []Span
	tracks map[string]int // track name -> tid
	names  []string       // tid -> track name
}

// NewTracer returns a tracer whose epoch is now.
func NewTracer() *Tracer {
	return &Tracer{t0: time.Now(), tracks: make(map[string]int)}
}

// TID returns a stable small track id for name, allocating one on first
// use. Track names become thread names in the Chrome export.
func (t *Tracer) TID(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.tracks[name]
	if !ok {
		id = len(t.names)
		t.tracks[name] = id
		t.names = append(t.names, name)
	}
	return id
}

// Start opens a span and returns the func that closes it; the closer
// captures the exact end time at the moment it runs. On a nil tracer the
// returned closer is a no-op.
func (t *Tracer) Start(name, cat string, tid int, args map[string]string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.t0)
	return func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, Span{Name: name, Cat: cat, TID: tid, Start: start, Dur: end - start, Args: args})
		t.mu.Unlock()
	}
}

// Add records one span with caller-measured times (start relative to the
// tracer epoch). Nil-safe.
func (t *Tracer) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the journal, ordered by start time.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// chromeEvent is one trace_event entry (the "X" complete-event form, plus
// "M" metadata events naming the tracks).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace renders the journal as Chrome trace_event JSON.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	var events []chromeEvent
	if t != nil {
		t.mu.Lock()
		names := append([]string(nil), t.names...)
		t.mu.Unlock()
		for tid, name := range names {
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]string{"name": name},
			})
		}
		for _, s := range t.Spans() {
			events = append(events, chromeEvent{
				Name: s.Name,
				Cat:  s.Cat,
				Ph:   "X",
				TS:   float64(s.Start) / float64(time.Microsecond),
				Dur:  float64(s.Dur) / float64(time.Microsecond),
				PID:  1,
				TID:  s.TID,
				Args: s.Args,
			})
		}
	}
	if events == nil {
		events = []chromeEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}

// PhaseStat is one category's summary row.
type PhaseStat struct {
	Cat      string
	Count    int
	TotalSec float64
	MaxSec   float64
}

// Summary aggregates the journal per category, ordered by descending total
// time — the phase breakdown `serfi trace` prints.
func (t *Tracer) Summary() []PhaseStat {
	agg := make(map[string]*PhaseStat)
	var order []string
	for _, s := range t.Spans() {
		st := agg[s.Cat]
		if st == nil {
			st = &PhaseStat{Cat: s.Cat}
			agg[s.Cat] = st
			order = append(order, s.Cat)
		}
		st.Count++
		sec := s.Dur.Seconds()
		st.TotalSec += sec
		if sec > st.MaxSec {
			st.MaxSec = sec
		}
	}
	out := make([]PhaseStat, 0, len(order))
	for _, cat := range order {
		out = append(out, *agg[cat])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TotalSec > out[j].TotalSec })
	return out
}
