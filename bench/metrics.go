package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"time"
)

// defaultSeconds is the -seconds value the workload sizes in README.md are
// stated for; other values scale the fixed work linearly.
const defaultSeconds = 20

// metricDef describes one metric: BENCHMARK.json, the README tables, the
// printed report and -compare all read these tables.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher", "lower" or "exact" (any difference is flagged)
	Bound  float64 // share of the baseline median the metric may worsen by
	// Gate marks the end-to-end metrics BENCHMARK.json lists: the driver
	// wants every listed metric from every workload, so only metrics all
	// five workloads have can gate. The others are judged with -compare.
	Gate      bool
	Workloads []string // nil: every workload reports it
}

var injectWorkloads = []string{"inject_deep", "matrix_wide", "inject_queue"}

// endToEnd is what a user of serfi sees. work_per_s and cpu_ms_per_work are
// each workload's headline metric under one name (inj_per_s and
// cpu_ms_per_inj on the inject workloads, guest_mips on sim_golden, store
// and wire operations on service_churn), so that the driver can gate all
// five workloads on the same list.
var endToEnd = []metricDef{
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Gate: true},
	{Name: "cpu_ms_per_work", Unit: "ms", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "inj_per_s", Unit: "inj/s", Better: "higher", Bound: 0.10, Workloads: injectWorkloads},
	{Name: "cpu_ms_per_inj", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: injectWorkloads},
	{Name: "sim_instr_per_inj", Unit: "instr", Better: "exact", Workloads: injectWorkloads},
	{Name: "db_bytes_per_inj", Unit: "B", Better: "exact", Workloads: []string{"inject_deep", "inject_queue"}},
	{Name: "small_tenant_done_s", Unit: "s", Better: "lower", Bound: 0.10, Workloads: []string{"inject_queue"}},
	{Name: "guest_mips", Unit: "Minstr/s", Better: "higher", Bound: 0.10, Workloads: []string{"sim_golden"}},
	{Name: "guest_ipc", Unit: "instr/cycle", Better: "exact", Workloads: []string{"sim_golden"}},
	{Name: "put_rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.10, Workloads: []string{"service_churn"}},
	{Name: "read_rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.10, Workloads: []string{"service_churn"}},
	{Name: "wire_ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.10, Workloads: []string{"service_churn"}},
	{Name: "reopen_s", Unit: "s", Better: "lower", Bound: 0.10, Workloads: []string{"service_churn"}},
	{Name: "failed_share", Unit: "ratio", Better: "exact"},
}

// layerMetrics is the per-layer budget, named <layer>.<metric>; a layer is
// a repo package. Units: counts are exact, times are host time from timing
// the named public call (README.md says which call).
var layerMetrics = []metricDef{
	{Name: "build.s", Unit: "s"}, {Name: "build.calls", Unit: "count"}, {Name: "build.image_bytes", Unit: "B"},

	{Name: "mach.retired_instr", Unit: "instr"}, {Name: "mach.sim_cycles", Unit: "cycles"}, {Name: "mach.run_s", Unit: "s"},
	{Name: "mach.ns_per_instr.armv7_IS", Unit: "ns"}, {Name: "mach.ns_per_instr.armv7_MG", Unit: "ns"},
	{Name: "mach.ns_per_instr.armv8_IS", Unit: "ns"}, {Name: "mach.ns_per_instr.armv8_MG", Unit: "ns"},
	{Name: "mach.fallback_step_share", Unit: "ratio"}, {Name: "mach.construct_us", Unit: "us"},
	{Name: "mach.snapshot_us", Unit: "us"}, {Name: "mach.delta_snapshot_us", Unit: "us"},
	{Name: "mach.restore_us", Unit: "us"}, {Name: "mach.state_equals_us", Unit: "us"},

	{Name: "cache.l1i_accesses", Unit: "count"}, {Name: "cache.l1d_accesses", Unit: "count"}, {Name: "cache.l2_accesses", Unit: "count"},
	{Name: "cache.l1d_miss_rate", Unit: "ratio"}, {Name: "cache.l2_miss_rate", Unit: "ratio"},
	{Name: "cache.evictions", Unit: "count"}, {Name: "cache.writebacks", Unit: "count"},
	{Name: "cache.data_ns_per_access", Unit: "ns"}, {Name: "cache.fetch_ns_per_access", Unit: "ns"},

	{Name: "mem.check_ns", Unit: "ns"}, {Name: "mem.hash_ms", Unit: "ms"}, {Name: "mem.snapshot_pages", Unit: "count"},
	{Name: "mem.restore_pages", Unit: "count"}, {Name: "mem.selective_restore_share", Unit: "ratio"},

	{Name: "isa.decode_ns.armv7", Unit: "ns"}, {Name: "isa.decode_ns.armv8", Unit: "ns"},

	{Name: "fi.golden_s", Unit: "s"}, {Name: "fi.checkpoint_build_s", Unit: "s"}, {Name: "fi.checkpoints", Unit: "count"},
	{Name: "fi.checkpoint_resident_mb", Unit: "MB"}, {Name: "fi.inject_calls", Unit: "count"}, {Name: "fi.inject_s", Unit: "s"},
	{Name: "fi.inject_p50_ms", Unit: "ms"}, {Name: "fi.inject_p95_ms", Unit: "ms"}, {Name: "fi.restore_share", Unit: "ratio"},
	{Name: "fi.amortization_x", Unit: "x"}, {Name: "fi.pruned_share", Unit: "ratio"}, {Name: "fi.from_reset_share", Unit: "ratio"},
	{Name: "fi.classify_us", Unit: "us"},
	{Name: "fi.outcome.vanished", Unit: "count"}, {Name: "fi.outcome.ona", Unit: "count"}, {Name: "fi.outcome.omm", Unit: "count"},
	{Name: "fi.outcome.ut", Unit: "count"}, {Name: "fi.outcome.hang", Unit: "count"},

	{Name: "fault.list_us", Unit: "us"}, {Name: "profile.extract_ms", Unit: "ms"},
	{Name: "prop.trace_ms", Unit: "ms"}, {Name: "prop.traces", Unit: "count"},

	{Name: "campaign.groups", Unit: "count"}, {Name: "campaign.jobs", Unit: "count"}, {Name: "campaign.faultfree_s", Unit: "s"},
	{Name: "campaign.inject_busy_s", Unit: "s"}, {Name: "campaign.pool_util", Unit: "ratio"},
	{Name: "campaign.first_row_s", Unit: "s"}, {Name: "campaign.file_put_us", Unit: "us"},

	{Name: "store.puts", Unit: "count"}, {Name: "store.put_us_p50", Unit: "us"}, {Name: "store.put_us_p99", Unit: "us"},
	{Name: "store.delete_us", Unit: "us"}, {Name: "store.get_us", Unit: "us"}, {Name: "store.query_ms", Unit: "ms"},
	{Name: "store.compact_ms", Unit: "ms"}, {Name: "store.open_ms", Unit: "ms"}, {Name: "store.segments", Unit: "count"},
	{Name: "store.garbage_rows", Unit: "count"}, {Name: "store.bytes_per_row", Unit: "B"},

	{Name: "dist.wire_requests.lease", Unit: "count"}, {Name: "dist.wire_requests.complete", Unit: "count"},
	{Name: "dist.wire_requests.event", Unit: "count"}, {Name: "dist.wire_requests.submit", Unit: "count"},
	{Name: "dist.wire_requests.fetch", Unit: "count"},
	{Name: "dist.lease_us_p50", Unit: "us"}, {Name: "dist.complete_us_p50", Unit: "us"}, {Name: "dist.submit_ms", Unit: "ms"},
	{Name: "dist.fetch_ms", Unit: "ms"}, {Name: "dist.status_us", Unit: "us"}, {Name: "dist.wire_bytes_per_inj", Unit: "B"},
	{Name: "dist.shards", Unit: "count"}, {Name: "dist.empty_lease_share", Unit: "ratio"}, {Name: "dist.leases_reissued", Unit: "count"},
	{Name: "dist.journal_append_us", Unit: "us"}, {Name: "dist.restore_queue_ms", Unit: "ms"},

	{Name: "pc.mach_execute_share", Unit: "ratio"}, {Name: "pc.mach_fetch_share", Unit: "ratio"}, {Name: "pc.cache_share", Unit: "ratio"},
	{Name: "pc.mem_share", Unit: "ratio"}, {Name: "pc.isa_share", Unit: "ratio"}, {Name: "pc.runtime_memclr_share", Unit: "ratio"},
	{Name: "pc.runtime_gc_share", Unit: "ratio"}, {Name: "pc.other_share", Unit: "ratio"},

	{Name: "budget.unattributed_share", Unit: "ratio"},
}

func endToEndDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func layerDef(name string) (metricDef, bool) {
	for _, d := range layerMetrics {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// appliesTo reports whether the workload exercises the metric.
func (d metricDef) appliesTo(workload string) bool {
	if d.Workloads == nil {
		return true
	}
	for _, w := range d.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// workload is one named set of inputs; why is the one-line reason
// BENCHMARK.json and README.md give for it.
type workload struct {
	name string
	why  string
	run  func(*pass) error
}

var workloads = []workload{
	{"sim_golden", "12 pinned guests run fault-free on one goroutine: only mach/cache/mem/isa work, so a simulator change shows undiluted", runSimGolden},
	{"inject_deep", "12 scenarios x 3 fault domains x many faults through campaign.Engine: the product path, post-restore suffix dominates", runInjectDeep},
	{"matrix_wide", "54 scenarios x 2 faults through the same engine: golden, profile and checkpoint capture dominate, the opposite trade-off", runMatrixWide},
	{"inject_queue", "the inject_deep matrix through queue, journal, fsynced segmented store and loopback workers for two tenants: the fabric's cost", runInjectQueue},
	{"service_churn", "no simulation: fsynced puts, overwrites beside reads, wire round trips and a restart over relabelled rows: store, codec, journal, wire", runServiceChurn},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// pass is the state of one workload pass in this process.
type pass struct {
	o       options
	scratch string
	w       int
	rec     *recorder // nil on an untraced pass

	attempted, failed int
	checks            []check
	metrics           map[string]float64
	layers            map[string]float64
	exact             map[string]float64
	rowsSHA           string
	setups            []float64                     // seconds each set-up took, the kept one first
	setUpAgain        func() (time.Duration, error) // builds and discards one more set-up
	samples           map[string][]float64          // per-operation timings behind layer metrics
	beatBusy          float64                       // inject_queue: injection seconds reported by progress beats
	poolWall          float64                       // wall seconds of the pooled timed section
}

func newPass(o options, scratch string) *pass {
	p := &pass{o: o, scratch: scratch, w: workers(),
		metrics: map[string]float64{}, layers: map[string]float64{}, exact: map[string]float64{},
		samples: map[string][]float64{}}
	if o.trace {
		p.rec = newRecorder()
	}
	return p
}

// scale is the work multiplier -seconds asks for.
func (p *pass) scale() float64 { return p.o.seconds / defaultSeconds }

// scaled sizes a count of the reference workload, never below floor.
func (p *pass) scaled(n, floor int) int {
	return max(floor, int(math.Round(float64(n)*p.scale())))
}

// ops counts n attempted operations of which bad failed or were refused.
func (p *pass) ops(n, bad int) {
	p.attempted += n
	p.failed += bad
}

// check records one output check; a failed check is a failed operation.
func (p *pass) check(name string, ok bool, detail string) {
	if ok {
		detail = ""
	}
	p.checks = append(p.checks, check{Name: name, OK: ok, Detail: detail})
	p.attempted++
	if !ok {
		p.failed++
	}
}

// metric records one end-to-end metric; a workload that does not exercise
// the metric omits it rather than reporting a number that means nothing.
func (p *pass) metric(name string, v float64) {
	d, ok := endToEndDef(name)
	if !ok {
		panic("bench: undeclared end-to-end metric " + name)
	}
	if d.appliesTo(p.o.workload) {
		p.metrics[name] = v
	}
}

// layer records one per-layer metric; untraced passes carry none.
func (p *pass) layer(name string, v float64) {
	if _, ok := layerDef(name); !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	if p.o.trace {
		p.layers[name] = v
	}
}

// sample adds one per-operation timing (seconds) under a layer-metric key.
func (p *pass) sample(key string, d time.Duration) {
	p.samples[key] = append(p.samples[key], d.Seconds())
}

// layerMedian publishes the median of the samples under key, scaled to the
// metric's unit; nothing when no sample was taken.
func (p *pass) layerMedian(name, key string, perSecond float64) {
	if s := p.samples[key]; len(s) > 0 {
		p.layer(name, median(s)*perSecond)
	}
}

// headline publishes the workload's product under the gated names: work
// units per wall second and CPU milliseconds per unit.
func (p *pass) headline(work, wallS, cpuS float64) {
	p.metric("work_per_s", work/wallS)
	p.metric("cpu_ms_per_work", cpuS*1e3/work)
}

// setUp runs the workload's set-up once, timed, before the process has run
// anything else, and returns what it built for the timed section. The
// set-up is kept so that repeatSetUps can run it again once the pass has
// been measured.
func setUp[T any](p *pass, build func() (T, error), discard func(T)) (T, error) {
	t0 := time.Now()
	v, err := build()
	if err != nil {
		return v, fmt.Errorf("set-up: %w", err)
	}
	p.setups = append(p.setups, time.Since(t0).Seconds())
	p.setUpAgain = func() (time.Duration, error) {
		t0 := time.Now()
		v, err := build()
		d := time.Since(t0)
		if err == nil {
			discard(v)
		}
		return d, err
	}
	return v, nil
}

// repeatSetUps steadies setup_s: one set-up in a fresh process is a single
// noisy sample, and a set-up of microseconds needs many for a steady median.
// It runs last: the timed section, CPU and peak RSS are measured, every other
// metric is published and the trace is written, so the repeats feed setup_s
// and nothing else. The set-up repeats until all set-ups together have taken
// setupBudget, so a set-up longer than that (service_churn's seed campaign)
// runs once; a smoke run repeats a short set-up once.
func (p *pass) repeatSetUps() {
	setupBudget, maxReps := 250*time.Millisecond, 200
	if p.o.quick {
		setupBudget, maxReps = 50*time.Millisecond, 2
	}
	if p.setUpAgain == nil {
		return
	}
	// Start from a collected heap already returned to the OS, the nearest
	// thing to a fresh process: a microsecond set-up reads 40 % slower while
	// the runtime sweeps or scavenges what the workload left behind.
	debug.FreeOSMemory()
	for sum(p.setups) < setupBudget.Seconds() && len(p.setups) < maxReps {
		d, err := p.setUpAgain()
		if err != nil {
			p.check("set_up_repeats", false, err.Error())
			return
		}
		p.setups = append(p.setups, d.Seconds())
	}
}

// finish publishes the metrics every workload has.
func (p *pass) finish() {
	if len(p.setups) > 0 {
		p.metric("setup_s", median(p.setups))
	}
	if p.attempted > 0 {
		p.metric("failed_share", float64(p.failed)/float64(p.attempted))
	}
}

// median returns the middle of xs (mean of the two middles for even n).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// reportTails are the tail percentiles a timing may be reported at, as the
// share of samples beyond each: p75, p90, p95, p99, p99.9, p99.99.
var reportTails = []int{4, 10, 20, 100, 1000, 10000}

// highPercentile picks the highest reporting percentile that still has at
// least ten of n samples beyond it; ok is false when even p75 has fewer.
func highPercentile(n int) (q float64, ok bool) {
	for i := len(reportTails) - 1; i >= 0; i-- {
		if n/reportTails[i] >= 10 {
			return 1 - 1/float64(reportTails[i]), true
		}
	}
	return 0, false
}

// iqrShare is the distance between the first and third quartile as a share
// of the median — the spread the driver computes (statistics.quantiles,
// n=4, exclusive method).
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k)*float64(len(s)+1)/4 - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			return s[0]
		}
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs((at(3) - at(1)) / m)
}
