// Package obs is the zero-dependency telemetry subsystem: a registry of
// counters, gauges and histograms with Prometheus text-format exposition
// (registry.go side of this file, expo.go), snapshot/merge support for
// aggregating worker-pushed metrics on a cluster coordinator (snapshot.go),
// and a span-based trace journal exportable as Chrome trace_event JSON
// (trace.go).
//
// Design rules, shared by every instrumented layer (campaign engine, fi,
// mach/mem, dist):
//
//   - Instrumentation lives off the retirement hot path. Metric updates
//     happen at run, job or phase boundaries — one batch of atomic adds per
//     machine Run slice, per injection run, or per completed job — never per
//     retired instruction or per memory access.
//   - Metrics observe the host, never the guest: no instrumented code path
//     reads or writes simulated machine state, so the determinism contract
//     (byte-identical campaigns at a seed) holds with telemetry enabled.
//   - Registration is idempotent: asking for an already-registered family
//     with the same kind and label names returns the existing one, so
//     package-level instruments and repeatedly constructed engines can share
//     the process-wide Default registry safely.
//
// Values are float64 updated with compare-and-swap; counters reject
// negative deltas, histograms use fixed upper-bound buckets chosen at
// registration.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the metric family type.
type Kind int

// Family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families. The zero value is not usable; construct
// with NewRegistry or use the process-wide Default. All methods are safe
// for concurrent use.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// Default is the process-wide registry. Package-level instruments in the
// simulator layers (fi restore latency, mach retirement counters, mem
// snapshot counters, dist wire counters) register here, so any
// /metrics handler over Default sees the whole process.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one named metric family: a kind, optional label names, and the
// labelled series created so far.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds (ascending, no +Inf)

	mu     sync.Mutex
	series map[string]*series
	order  []*series // creation order; sorted at exposition time
}

// series is one labelled instance of a family. value is the float64 bit
// pattern for counters and gauges; histograms use counts/sum/count.
type series struct {
	values []string // label values, aligned with family.labels
	value  atomic.Uint64
	counts []atomic.Uint64 // per-bucket (one extra for +Inf)
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (s *series) get() float64      { return math.Float64frombits(s.value.Load()) }
func (s *series) add(v float64)     { addFloat(&s.value, v) }
func (s *series) set(v float64)     { s.value.Store(math.Float64bits(v)) }
func (s *series) sumValue() float64 { return math.Float64frombits(s.sum.Load()) }

// register returns the family, creating it on first use. Re-registration
// with a different kind, label set or bucket layout panics: that is a
// programming error that would corrupt the exposition.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if name == "" || !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.fams[name]; f != nil {
		if f.kind != kind || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: conflicting re-registration of %s", name))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	r.fams[name] = f
	return f
}

// with returns the series for one label-value tuple, creating it on first
// use.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{values: append([]string(nil), values...)}
		if f.kind == KindHistogram {
			s.counts = make([]atomic.Uint64, len(f.buckets)+1)
		}
		f.series[key] = s
		f.order = append(f.order, s)
	}
	return s
}

// Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Add increments the counter; negative deltas panic.
func (c Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter decrease")
	}
	c.s.add(v)
}

// Inc adds one.
func (c Counter) Inc() { c.s.add(1) }

// Value returns the current total.
func (c Counter) Value() float64 { return c.s.get() }

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Set replaces the gauge value.
func (g Gauge) Set(v float64) { g.s.set(v) }

// Add moves the gauge by v (negative to decrease).
func (g Gauge) Add(v float64) { g.s.add(v) }

// Value returns the current value.
func (g Gauge) Value() float64 { return g.s.get() }

// Histogram accumulates observations into fixed upper-bound buckets.
type Histogram struct {
	f *family
	s *series
}

// Observe records one value.
func (h Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.f.buckets, v)
	h.s.counts[i].Add(1)
	addFloat(&h.s.sum, v)
	h.s.count.Add(1)
}

// Count returns the number of observations so far.
func (h Histogram) Count() uint64 { return h.s.count.Load() }

// Sum returns the sum of all observed values.
func (h Histogram) Sum() float64 { return h.s.sumValue() }

// Counter registers (or finds) an unlabelled counter family.
func (r *Registry) Counter(name, help string) Counter {
	return Counter{r.register(name, help, KindCounter, nil, nil).with(nil)}
}

// Gauge registers (or finds) an unlabelled gauge family.
func (r *Registry) Gauge(name, help string) Gauge {
	return Gauge{r.register(name, help, KindGauge, nil, nil).with(nil)}
}

// Histogram registers (or finds) an unlabelled histogram family with the
// given ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) Histogram {
	f := r.register(name, help, KindHistogram, nil, buckets)
	return Histogram{f, f.with(nil)}
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{r.register(name, help, KindCounter, labels, nil)}
}

// With returns the counter for one label-value tuple.
func (v CounterVec) With(values ...string) Counter { return Counter{v.f.with(values)} }

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.register(name, help, KindGauge, labels, nil)}
}

// With returns the gauge for one label-value tuple.
func (v GaugeVec) With(values ...string) Gauge { return Gauge{v.f.with(values)} }

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) HistogramVec {
	return HistogramVec{r.register(name, help, KindHistogram, labels, buckets)}
}

// With returns the histogram for one label-value tuple.
func (v HistogramVec) With(values ...string) Histogram { return Histogram{v.f, v.f.with(values)} }

// ExpBuckets returns n ascending upper bounds starting at lo, each factor
// times the previous — the standard latency-histogram layout.
func ExpBuckets(lo, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := lo
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// validName reports whether s is a legal Prometheus metric or label name:
// [a-zA-Z_][a-zA-Z0-9_]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
