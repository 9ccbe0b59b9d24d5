package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
	h := r.Histogram("test_seconds", "a histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("histogram count = %d, want 4", h.Count())
	}
	if math.Abs(h.Sum()-55.55) > 1e-9 {
		t.Fatalf("histogram sum = %v, want 55.55", h.Sum())
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "h")
	b := r.Counter("same_total", "h")
	a.Inc()
	b.Inc()
	if a.Value() != 2 || b.Value() != 2 {
		t.Fatalf("re-registered counter not shared: %v, %v", a.Value(), b.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	r.Gauge("same_total", "h")
}

func TestVecSeries(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("labeled_total", "h", "outcome")
	v.With("Vanished").Add(3)
	v.With("Hang").Add(1)
	v.With("Vanished").Inc()
	if got := v.With("Vanished").Value(); got != 4 {
		t.Fatalf("series = %v, want 4", got)
	}
}

// TestExpositionLintsAndParses registers one family of every kind —
// labelled and unlabelled, with label values needing escapes — and checks
// the rendered exposition passes the structural linter with every family
// accounted for.
func TestExpositionLintsAndParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("e_total", "counts things").Add(2)
	r.CounterVec("e_labeled_total", "counts labelled things", "kind").With(`we"ird\val` + "\n").Inc()
	r.Gauge("e_gauge", "level").Set(-1.5)
	r.GaugeVec("e_gauge_labeled", "level by kind", "kind").With("a").Set(2)
	r.Histogram("e_seconds", "latency", ExpBuckets(0.001, 10, 4)).Observe(0.5)
	r.HistogramVec("e_hist_labeled", "latency by kind", []float64{1, 2}, "kind").With("b").Observe(3)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := Lint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("lint failed: %v\n%s", err, buf.String())
	}
	if fams != 6 {
		t.Fatalf("lint saw %d families, want 6\n%s", fams, buf.String())
	}
	// Escaped label values must round-trip through the parser.
	if !strings.Contains(buf.String(), `kind="we\"ird\\val\n"`) {
		t.Fatalf("label escaping missing:\n%s", buf.String())
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "h").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, ContentType)
	}
	if _, err := Lint(resp.Body); err != nil {
		t.Fatalf("served exposition does not lint: %v", err)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("m_total", "h").Add(2)
	b.Counter("m_total", "h").Add(3)
	a.CounterVec("m_labeled_total", "h", "w").With("x").Add(1)
	b.CounterVec("m_labeled_total", "h", "w").With("y").Add(5)
	a.Histogram("m_seconds", "h", []float64{1, 10}).Observe(0.5)
	b.Histogram("m_seconds", "h", []float64{1, 10}).Observe(20)
	b.Gauge("m_only_b", "h").Set(9)

	merged := MergeFamilies(a.Snapshot(), b.Snapshot())
	byName := map[string]Family{}
	for _, f := range merged {
		byName[f.Name] = f
	}
	if v := byName["m_total"].Series[0].Value; v != 5 {
		t.Fatalf("merged counter = %v, want 5", v)
	}
	if n := len(byName["m_labeled_total"].Series); n != 2 {
		t.Fatalf("merged labelled series = %d, want 2", n)
	}
	h := byName["m_seconds"].Series[0]
	if h.Count != 2 || h.Counts[0] != 1 || h.Counts[2] != 1 {
		t.Fatalf("merged histogram = %+v", h)
	}
	if byName["m_only_b"].Series[0].Value != 9 {
		t.Fatal("family present only in src not appended")
	}
	// Merged output must still render and lint.
	var buf bytes.Buffer
	if err := WriteFamilies(&buf, merged); err != nil {
		t.Fatal(err)
	}
	if _, err := Lint(&buf); err != nil {
		t.Fatalf("merged exposition does not lint: %v\n", err)
	}
	// Snapshots must survive a JSON round trip (the wire push path).
	raw, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back []Family
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(a.Snapshot()) {
		t.Fatal("snapshot JSON round trip lost families")
	}
}

func TestMergeSkewedWorkerDropped(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("skew_total", "h").Add(2)
	b.Gauge("skew_total", "h").Set(100) // version-skewed worker: same name, different kind
	merged := MergeFamilies(a.Snapshot(), b.Snapshot())
	for _, f := range merged {
		if f.Name == "skew_total" && (f.Kind != "counter" || f.Series[0].Value != 2) {
			t.Fatalf("skewed family corrupted dst: %+v", f)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "h")
	h := r.Histogram("conc_seconds", "h", []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: counter=%v histogram=%d", c.Value(), h.Count())
	}
}

func TestTracer(t *testing.T) {
	tr := NewTracer()
	tid := tr.TID("scenario-a")
	end := tr.Start("golden", "golden", tid, map[string]string{"scenario": "a"})
	time.Sleep(2 * time.Millisecond)
	end()
	tr.Start("job", "inject", tid, nil)() // zero-ish duration span
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Name != "golden" || spans[0].Dur <= 0 {
		t.Fatalf("bad span: %+v", spans[0])
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	// One metadata event naming the track plus the two spans.
	if len(out.TraceEvents) != 3 {
		t.Fatalf("trace events = %d, want 3", len(out.TraceEvents))
	}
	sum := tr.Summary()
	if len(sum) != 2 || sum[0].Cat != "golden" || sum[0].Count != 1 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Start("x", "y", tr.TID("z"), nil)()
	tr.Add(Span{})
	if tr.Spans() != nil {
		t.Fatal("nil tracer recorded spans")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestLintRejectsMalformed: Lint refuses each malformed exposition, among
// them the histogram series whose buckets are out of le order or not
// cumulative or whose +Inf bucket is missing or differs from _count, and
// passes a well-formed histogram of two series, each keyed by its labels but
// le in any label order.
func TestLintRejectsMalformed(t *testing.T) {
	good := "# TYPE h histogram\nh_bucket{k=\"b\",le=\"1\"} 1\nh_bucket{k=\"b\",le=\"+Inf\"} 2\nh_sum{k=\"b\"} 3\nh_count{k=\"b\"} 2\n" +
		"h_bucket{le=\"0.5\",k=\"a\"} 0\nh_bucket{k=\"a\",le=\"+Inf\"} 0\nh_count{k=\"a\"} 0\n"
	if _, err := Lint(strings.NewReader(good)); err != nil {
		t.Errorf("lint refused a well-formed histogram: %v", err)
	}
	bad := []string{
		"no_type_line 1\n",
		"# TYPE x counter\n# TYPE x counter\nx 1\n",
		"# TYPE h histogram\nh 1\n",
		"# TYPE y counter\ny{l=\"unterminated} 1\n",
		"",
		// _count one above the +Inf bucket.
		"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 4\nh_count 4\n",
		// a bucket below its predecessor.
		"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 4\nh_count 3\n",
		// buckets out of le order.
		"# TYPE h histogram\nh_bucket{le=\"2\"} 2\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 4\nh_count 3\n",
		// no +Inf bucket, and one series of two without one.
		"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 4\nh_count 2\n",
		"# TYPE h histogram\nh_bucket{k=\"a\",le=\"+Inf\"} 1\nh_count{k=\"a\"} 1\nh_bucket{k=\"b\",le=\"1\"} 1\nh_count{k=\"b\"} 1\n",
	}
	for _, src := range bad {
		if _, err := Lint(strings.NewReader(src)); err == nil {
			t.Fatalf("lint accepted malformed input %q", src)
		}
	}
}
