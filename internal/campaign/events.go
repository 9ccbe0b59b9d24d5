// The typed event stream of an Engine run. Every phase transition of every
// campaign is published as one Event value on the engine's Events channel:
// the Collector folds it into every CLI's progress lines and summaries,
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
	// and the resident payload of the delta chain, RAM pages and distinct
	// cache-state chunks (fi.CheckpointSet.MemBytes).
	Checkpoints     int
	CheckpointBytes int
}

// CheckpointTag compresses the capture stats into a progress-line column
// ("ckpt=64 mem=6.3MiB", or "ckpt=off" when snapshots are disabled). The
// Collector prints it on every run's golden line, so the per-scenario
// checkpoint counts the telemetry tests pin appear on every surface the
// same way.
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

// JobDone reports one completed injection job (a batch of faults; on a
// coordinator, one accepted shard). WallSec is the host wall-clock span of
// this job alone — the per-job spans that Result.ExclusiveCompute sums — and
// Done/Total track the campaign's injection progress.
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
// end-of-run summary — the one consumer every CLI run shares instead of
// bespoke printing. It is safe for use from one consuming goroutine while
// other goroutines read the summary accessors.
type Collector struct {
	w     io.Writer
	total int
	now   func() time.Time

	mu        sync.Mutex
	completed int
	failed    int
	skipped   int
	results   []*Result
	done      map[string]int // per-campaign largest JobDone.Done
	totals    map[string]int // per-campaign JobDone.Total
	start     time.Time      // when the first event arrived (rate epoch)
	err       error
}

// NewCollector returns a collector writing progress lines to w (nil
// discards them). total is the number of campaigns the run will execute,
// used for the [done/total] progress prefix and the ETA; 0 leaves the
// prefix out. Campaigns a store already holds send no event, so they do
// not belong in total.
func NewCollector(w io.Writer, total int) *Collector {
	return &Collector{w: w, total: total, now: time.Now}
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
	// 64 events of slack keep a burst of JobDone events from stalling the
	// pool on the progress printer.
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
	if c.start.IsZero() {
		c.start = c.now()
	}
	switch ev := ev.(type) {
	case JobDone:
		// Done is the campaign's fold count at its source, each fault once:
		// the engine's after a job, the coordinator's after an accepted
		// shard. Sends from concurrent jobs may arrive out of order, so the
		// largest one wins.
		if c.done == nil {
			c.done = make(map[string]int)
			c.totals = make(map[string]int)
		}
		key := ev.Key()
		c.done[key] = max(c.done[key], ev.Done)
		c.totals[key] = ev.Total
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
// JobDone events so far. On a distributed run it equals the coordinator
// status page's Injected total: both read the fold, which counts every
// fault exactly once, however many times a re-issued shard re-executed it.
func (c *Collector) Injected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injectedLocked()
}

func (c *Collector) injectedLocked() int {
	n := 0
	for _, done := range c.done {
		n += done
	}
	return n
}

// rateTagLocked renders the progress-line rate column (" 12.5 inj/s
// eta=1m30s"), empty before the first completed job. The rate is distinct
// injections per wall second since the run's first event (an engine's first
// ScenarioStarted, a coordinator's first accepted shard), and the ETA is the
// injections still to run at that rate. Campaigns that have reported no
// JobDone yet are estimated at the mean per-campaign total of those that
// have (one that failed before its first job is a slight overestimate).
func (c *Collector) rateTagLocked() string {
	injected := c.injectedLocked()
	elapsed := c.now().Sub(c.start).Seconds()
	if injected == 0 || elapsed <= 0 {
		return ""
	}
	rate := float64(injected) / elapsed
	remaining, totalSum := 0, 0
	for key, total := range c.totals {
		remaining += max(total-c.done[key], 0)
		totalSum += total
	}
	if unstarted := c.total - len(c.totals); unstarted > 0 {
		remaining += unstarted * totalSum / len(c.totals)
	}
	tag := fmt.Sprintf(" %.1f inj/s", rate)
	if eta := time.Duration(float64(remaining) / rate * float64(time.Second)).Round(time.Second); eta > 0 {
		tag += fmt.Sprintf(" eta=%s", eta)
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
