// The typed event stream of an Engine run. Every phase transition of every
// campaign is published as one Event value on the engine's Events channel:
// CLIs consume it for live progress, the Collector folds it into summaries,
// and tests assert on the taxonomy directly — replacing the func(*Result) /
// func(string) callback zoo the schedulers grew before the Engine existed.
package campaign

import (
	"fmt"
	"io"
	"sync"
	"time"

	"serfi/internal/fault"
	"serfi/internal/npb"
)

// Event is one typed progress notification from an Engine run. The concrete
// types are ScenarioStarted, GoldenDone, JobDone, ScenarioDone and
// MatrixDone; MatrixDone is always the last event of a run, so a consumer
// may stop after it without waiting for the channel to close.
type Event interface{ event() }

// ScenarioStarted opens one scenario group: the fault-free phases (image
// build, golden run, profiling, checkpoint selection) are about to run
// once for every fault-domain campaign listed in Domains.
type ScenarioStarted struct {
	Scenario npb.Scenario
	Seed     int64
	Domains  []fault.Model
}

// GoldenDone reports the completed fault-free phases of one scenario group:
// the reference-run headline numbers plus the snapshot capture stats.
type GoldenDone struct {
	Scenario npb.Scenario
	Seed     int64
	Golden   GoldenSummary
	WallSec  float64 // host wall clock of the golden phase
	// The checkpoint set selected from the golden run's captures: the count
	// and the RAM payload of the delta chain.
	Checkpoints     int
	CheckpointBytes int
}

// CheckpointTag compresses the capture stats into a progress-line column
// ("ckpt=16 mem=1.2MiB", or "ckpt=off" when snapshots are disabled). Both CLIs print it, so the
// per-scenario checkpoint counts the telemetry tests pin appear on every
// surface the same way.
func (e GoldenDone) CheckpointTag() string {
	if e.Checkpoints == 0 {
		return "ckpt=off"
	}
	return fmt.Sprintf("ckpt=%d mem=%s", e.Checkpoints, byteSize(e.CheckpointBytes))
}

// byteSize renders a byte count compactly ("412B", "3.5KiB", "9.1MiB").
func byteSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// JobDone reports one completed injection job (a batch of faults). WallSec
// is the host wall-clock span of this job alone — the per-job spans that
// Result.ExclusiveCompute sums — and Done/Total track the campaign's
// injection progress.
type JobDone struct {
	Scenario npb.Scenario
	Domain   fault.Model
	Lo, Hi   int     // fault-index range [Lo, Hi) of the job
	WallSec  float64 // host wall clock of this job
	Done     int     // injection runs finished for this campaign so far
	Total    int     // injection runs the campaign will execute
}

// Key returns the campaign's database identity.
func (e JobDone) Key() string { return Key(e.Scenario, e.Domain) }

// ScenarioDone retires one (scenario, domain) campaign: Result is set on
// success, Err on failure. Campaigns abandoned by context cancellation
// produce no ScenarioDone — MatrixDone carries the tally.
type ScenarioDone struct {
	Key    string
	Result *Result // nil when Err is set
	Err    error
}

// MatrixDone is the final event of every Engine run: how many campaigns
// completed fresh, were skipped via the store, or failed (including those
// abandoned on cancellation), plus the run's first error in job order (the
// context error when the run was cancelled).
type MatrixDone struct {
	Completed int
	Skipped   int
	Failed    int
	WallSec   float64
	Err       error
}

// NewMatrixDone tallies a finished matrix into its terminal event — shared
// by Engine.RunMatrix and the distributed coordinator's Wait. results and
// errs are in job order; cause is the context error when the run was
// cancelled. Everything without a result counts as failed, including
// campaigns never scheduled under cancellation, which carry no error.
func NewMatrixDone(results []*Result, errs []error, skipped int, cause error, wallSec float64) MatrixDone {
	have := 0
	for _, r := range results {
		if r != nil {
			have++
		}
	}
	md := MatrixDone{Completed: have - skipped, Skipped: skipped, Failed: len(results) - have, WallSec: wallSec, Err: cause}
	for _, err := range errs {
		if md.Err != nil {
			break
		}
		md.Err = err
	}
	return md
}

func (ScenarioStarted) event() {}
func (GoldenDone) event()      {}
func (JobDone) event()         {}
func (ScenarioDone) event()    {}
func (MatrixDone) event()      {}

// Collector folds an Engine event stream into live progress lines and an
// end-of-run summary — the one consumer both CLIs share instead of bespoke
// printing. It is safe for use from one consuming goroutine while other
// goroutines read the summary accessors.
type Collector struct {
	w     io.Writer
	total int

	mu        sync.Mutex
	completed int
	failed    int
	skipped   int
	results   []*Result
	cover     map[string][]JobSpan // per-campaign fault ranges seen via JobDone
	totals    map[string]int       // per-campaign injection totals (JobDone.Total)
	firstJob  time.Time            // when the first JobDone arrived (ETA epoch)
	err       error
}

// NewCollector returns a collector writing progress lines to w (nil
// discards them). total is the expected campaign count, used only for the
// [done/total] progress prefix; 0 leaves the prefix out.
func NewCollector(w io.Writer, total int) *Collector {
	return &Collector{w: w, total: total}
}

// Consume folds events until the stream ends: either MatrixDone arrives or
// the channel is closed. It is the goroutine body callers pair with an
// Engine run.
func (c *Collector) Consume(events <-chan Event) {
	for ev := range events {
		if c.Handle(ev) {
			return
		}
	}
}

// Start runs Consume on its own goroutine: events is the channel to hand
// WithEvents, and wait returns once the run's MatrixDone has been folded.
func (c *Collector) Start() (events chan Event, wait func()) {
	// 64 events of slack keep a burst of job beats from stalling the pool
	// on the progress printer.
	events = make(chan Event, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Consume(events)
	}()
	return events, func() { <-done }
}

// Handle folds one event and reports whether it was the final MatrixDone.
func (c *Collector) Handle(ev Event) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev := ev.(type) {
	case JobDone:
		// Fold the job's fault range into the campaign's coverage. Ranges
		// are merged, not summed: a re-issued distributed shard (or any
		// other duplicated beat) reports the same [Lo, Hi) twice, and the
		// progress accounting must count each fault once — the same rule
		// the coordinator's status page applies to its Injected total.
		if c.cover == nil {
			c.cover = make(map[string][]JobSpan)
			c.totals = make(map[string]int)
		}
		if c.firstJob.IsZero() {
			c.firstJob = time.Now()
		}
		if ev.Hi > ev.Lo {
			key := ev.Key()
			c.cover[key] = append(c.cover[key], JobSpan{Lo: ev.Lo, Hi: ev.Hi, WallSec: ev.WallSec})
			c.totals[key] = ev.Total
		}
	case GoldenDone:
		c.printf("%s%-24s golden %.1fs %s\n", c.prefix(), ev.Scenario.ID(), ev.WallSec, ev.CheckpointTag())
	case ScenarioDone:
		if ev.Err != nil {
			c.failed++
			c.printf("%s%-24s FAILED: %v\n", c.prefix(), ev.Key, ev.Err)
			return false
		}
		c.completed++
		c.results = append(c.results, ev.Result)
		c.printf("%s%-24s %s %s%s\n", c.prefix(), ev.Key, ev.Result.Counts, savingsTag(ev.Result), c.rateTagLocked())
	case MatrixDone:
		c.skipped, c.err = ev.Skipped, ev.Err
		// Count failures the engine saw but never announced per campaign
		// (cancellation abandons campaigns without a ScenarioDone each).
		if ev.Failed > c.failed {
			c.failed = ev.Failed
		}
		return true
	}
	return false
}

// prefix renders the [done/total] progress column.
func (c *Collector) prefix() string {
	if c.total <= 0 {
		return ""
	}
	return fmt.Sprintf("[%3d/%3d] ", c.completed+c.failed, c.total)
}

func (c *Collector) printf(format string, args ...any) {
	if c.w != nil {
		fmt.Fprintf(c.w, format, args...)
	}
}

// Injected returns the number of distinct injection runs reported via
// JobDone events so far, with overlapping fault ranges counted once. On a
// distributed run this reconciles with the coordinator status page's
// Injected total (both surfaces count every fault exactly once, however
// many times a re-issued shard re-executed it).
func (c *Collector) Injected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, spans := range c.cover {
		total += CoverageCount(spans)
	}
	return total
}

// statsLocked sums distinct injections and merged pool-busy seconds across
// campaigns. Both sides merge by fault-index range (CoverageCount /
// MergeJobSpans), so duplicated work — a re-issued distributed shard, a job
// re-executed across a cancel/resume — skews neither the numerator nor the
// denominator of the derived rate.
func (c *Collector) statsLocked() (injected int, busySec float64) {
	for _, spans := range c.cover {
		injected += CoverageCount(spans)
		busySec += MergeJobSpans(spans)
	}
	return injected, busySec
}

// Rate returns the observed injection throughput per pool-busy second
// (distinct injections over merged job spans — a per-worker number that is
// stable across worker counts); ok is false before any job has completed.
func (c *Collector) Rate() (perSec float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rateLocked()
}

func (c *Collector) rateLocked() (float64, bool) {
	injected, busy := c.statsLocked()
	if injected == 0 || busy <= 0 {
		return 0, false
	}
	return float64(injected) / busy, true
}

// ETA estimates the wall-clock time left to finish every remaining
// injection at the observed wall rate (distinct injections since the first
// JobDone). Campaigns that have reported no JobDone yet are estimated at
// the mean per-campaign total of those that have; skipped campaigns cost
// nothing. ok is false before any job has completed. On a resumed matrix
// only fresh work enters both the numerator and the clock, so stored
// campaigns do not skew the estimate.
func (c *Collector) ETA() (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.etaLocked()
}

func (c *Collector) etaLocked() (time.Duration, bool) {
	injected, _ := c.statsLocked()
	if injected == 0 || c.firstJob.IsZero() {
		return 0, false
	}
	elapsed := time.Since(c.firstJob).Seconds()
	if elapsed <= 0 {
		return 0, false
	}
	remaining, totalSum := 0, 0
	for key, total := range c.totals {
		if rem := total - CoverageCount(c.cover[key]); rem > 0 {
			remaining += rem
		}
		totalSum += total
	}
	if c.total > 0 && len(c.totals) > 0 {
		// Campaigns not yet injecting (including ones that failed before
		// their first job — a slight overestimate) at the observed mean.
		if unstarted := c.total - c.skipped - len(c.totals); unstarted > 0 {
			remaining += unstarted * totalSum / len(c.totals)
		}
	}
	wallRate := float64(injected) / elapsed
	return time.Duration(float64(remaining) / wallRate * float64(time.Second)), true
}

// rateTagLocked renders the progress-line rate column (" 123 inj/s
// eta=1m30s"), empty before the first completed job.
func (c *Collector) rateTagLocked() string {
	rate, ok := c.rateLocked()
	if !ok {
		return ""
	}
	tag := fmt.Sprintf(" %.1f inj/s", rate)
	if eta, ok := c.etaLocked(); ok && eta > 0 {
		tag += fmt.Sprintf(" eta=%s", eta.Round(time.Second))
	}
	return tag
}

// Completed returns how many campaigns finished fresh.
func (c *Collector) Completed() int { c.mu.Lock(); defer c.mu.Unlock(); return c.completed }

// Skipped returns how many campaigns the store already held.
func (c *Collector) Skipped() int { c.mu.Lock(); defer c.mu.Unlock(); return c.skipped }

// Failed returns how many campaigns failed or were abandoned.
func (c *Collector) Failed() int { c.mu.Lock(); defer c.mu.Unlock(); return c.failed }

// Err returns the run error announced by MatrixDone.
func (c *Collector) Err() error { c.mu.Lock(); defer c.mu.Unlock(); return c.err }

// Results returns the freshly completed campaigns in completion order.
func (c *Collector) Results() []*Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Result(nil), c.results...)
}

// savingsTag compresses a campaign's snapshot-engine telemetry into the
// progress-line column ("save=2.3x prune=12%", "save=off" when the campaign
// ran from reset, "save=all" when no fault needed simulating).
func savingsTag(r *Result) string {
	save, prune, ok := r.SnapshotSavings()
	if !ok {
		return "save=off"
	}
	if r.SimulatedInstr == 0 {
		return fmt.Sprintf("save=all prune=%.0f%%", 100*prune)
	}
	return fmt.Sprintf("save=%.1fx prune=%.0f%%", save, 100*prune)
}
