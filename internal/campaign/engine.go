// The campaign Engine: a constructed, reusable orchestrator around the
// shared-worker-pool matrix scheduler. One Engine carries its tuning
// (workers, job size, snapshots, fault models) as functional options;
// RunMatrix(ctx, jobs) threads the context through every phase — golden
// runs, checkpoint selection and injection job loops — so a campaign
// cancels promptly at job granularity and returns partial results plus
// ctx.Err(). Progress is published as a typed event stream (events.go) and
// completed campaigns land in a Store (store.go), whose pre-loaded keys
// double as the resume set.
//
// The engine only schedules: one worker pool executes group builds and
// batched injection jobs as interleavable tasks; jobs for the same scenario
// under several fault domains share one Group (group.go) whose fault-free
// work runs once, every injection job is one Group.Inject shard, and each
// campaign's shards meet in its Fold.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"serfi/internal/fault"
	"serfi/internal/npb"
	"serfi/internal/obs"
)

// Engine is the reusable campaign orchestrator. Construct one with New,
// then run any number of matrices through RunMatrix; an Engine holds no
// per-run state, so it is safe to reuse (sequentially or concurrently)
// across runs. The exception is a shared event stream: runs emitting into
// one WithEvents channel need one consumer per run (see WithEvents), so
// concurrent runs should use separate engines with separate channels.
type Engine struct {
	workers    int
	jobSize    int
	snapshots  int // campaign convention: 0 = default, negative = off
	faults     int
	models     []fault.Model
	store      Store
	events     chan<- Event
	fullCopy   bool // test-only: the full-copy checkpoint reference engine
	traceProp  bool
	recordRuns bool
	metrics    *obs.Registry
	tracer     *obs.Tracer
}

// Option configures an Engine.
type Option func(*Engine)

// Workers bounds the host worker pool; 0 (the default) uses GOMAXPROCS.
func Workers(n int) Option { return func(e *Engine) { e.workers = n } }

// JobSize groups faults into injection jobs — the paper batches
// simulations per HPC job to amortize scheduling; 0 picks DefaultJobSize.
func JobSize(n int) Option { return func(e *Engine) { e.jobSize = n } }

// Snapshots sets the per-scenario checkpoint count: 0 (the default) picks
// fi.DefaultCheckpoints, negative disables snapshot acceleration (every
// injection re-executes from reset). Outcome counts are bit-identical
// either way.
func Snapshots(n int) Option { return func(e *Engine) { e.snapshots = n } }

// Faults sets the per-campaign fault count.
func Faults(n int) Option { return func(e *Engine) { e.faults = n } }

// Models sets the fault domains JobsFor expands each scenario into; empty
// (the default) means the paper's register domain only.
func Models(ms ...fault.Model) Option {
	return func(e *Engine) { e.models = append([]fault.Model(nil), ms...) }
}

// TraceProp turns on fault-propagation tracing: every injection whose
// outcome is not masked (Vanished/ONA) is re-run against a golden twin
// through prop.Tracer, its Trace attached to the Result and folded into the
// campaign's prop summary. Tracing re-executes only the unmasked minority
// of runs and is strictly additive — outcome counts, fault lists and
// untraced database rows are byte-identical with tracing off.
func TraceProp() Option { return func(e *Engine) { e.traceProp = true } }

// RecordRuns persists the per-fault rows of every campaign: results are
// marked RecordRuns, so the store writes v4 database rows carrying each
// run's fault tuple and outcome (plus escape class and divergence latency
// when TraceProp is also on) — the raw material of the sensitivity
// attribution layer (internal/sens). Purely additive: fault lists,
// outcomes and scheduling are untouched, and campaigns without the option
// keep writing v2/v3 rows byte for byte.
func RecordRuns() Option { return func(e *Engine) { e.recordRuns = true } }

// WithStore attaches a results store: campaigns whose key the store
// already holds are skipped (their stored results returned in place — the
// resume path), and every freshly completed campaign is Put in completion
// order. nil (the default) keeps results in memory only.
func WithStore(s Store) Option { return func(e *Engine) { e.store = s } }

// WithEvents attaches the typed event stream. The engine sends
// ScenarioStarted/GoldenDone/JobDone/ScenarioDone events as phases
// complete and exactly one terminal MatrixDone per RunMatrix call; sends
// block until received, so every run needs a live consumer draining the
// channel until that run's MatrixDone (Collector.Consume returns there —
// start a fresh Consume goroutine per run). The engine never closes the
// channel, so the channel itself may be reused across sequential runs;
// concurrent runs must not share one (their streams would interleave and
// the first MatrixDone would detach the consumer mid-flight).
func WithEvents(ch chan<- Event) Option { return func(e *Engine) { e.events = ch } }

// New constructs an Engine from functional options; zero-value settings
// resolve to the documented defaults at run time.
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// JobsFor expands scenarios into scheduler jobs under the engine's fault
// models. Each scenario draws the seed baseSeed+i where i is its position
// in the full npb.Scenarios() list (the historical convention shared by
// CLI campaigns and the experiment matrix), so a subset run, a resumed run
// and the full matrix all draw identical fault lists for the same
// (scenario, domain) pair. Domain campaigns of one scenario share its
// seed. A scenario outside the catalog draws baseSeed unmodified.
func (e *Engine) JobsFor(scs []npb.Scenario, baseSeed int64) []ScenarioJob {
	models := e.models
	if len(models) == 0 {
		models = []fault.Model{fault.Reg}
	}
	jobs := make([]ScenarioJob, 0, len(scs)*len(models))
	for _, sc := range scs {
		seed := baseSeed
		if i, ok := npb.Index(sc); ok {
			seed += int64(i)
		}
		for _, d := range models {
			jobs = append(jobs, ScenarioJob{Scenario: sc, Domain: d, Seed: seed})
		}
	}
	return jobs
}

// emit publishes one event when a stream is attached.
func (e *Engine) emit(ev Event) {
	if e.events != nil {
		e.events <- ev
	}
}

// cancelledBy reports whether err is the context's own cancellation error
// (such campaigns are tallied in MatrixDone instead of announced one by
// one).
func cancelledBy(ctx context.Context, err error) bool {
	return ctx.Err() != nil && errors.Is(err, ctx.Err())
}

// domainState tracks one (scenario, domain) campaign within its group: the
// campaign's fold plus the scheduler's countdown.
type domainState struct {
	idx int // index into the jobs / results slices

	// mu guards the fold and err: injection jobs complete concurrently.
	mu sync.Mutex
	Fold
	err error // first non-cancellation job failure, fatal for the campaign

	remaining atomic.Int64 // injection jobs left
	cancelled atomic.Bool  // some injection job was abandoned by ctx
}

// scenarioState tracks one open scenario group — every domain campaign of
// one (scenario, seed) pair — across its scheduler tasks.
type scenarioState struct {
	job     ScenarioJob // scenario+seed of the group
	domains []*domainState
	group   *Group // nil until built, and again once the group closes

	openDomains atomic.Int64 // domain campaigns still running
	t0          time.Time
	tid         int // the group's trace track
}

// RunMatrix executes every scenario job through the shared scheduler and
// returns results in job order. Jobs whose key the engine's store already
// holds are skipped and answered from the store. The context cancels the
// run at job granularity: in-flight injection jobs abandon between run
// slices, no further work starts, completed campaigns are already durable
// in the store, and RunMatrix returns the partial results plus ctx.Err().
// On a non-cancellation failure the first error (in job order) is
// reported; unaffected scenarios still complete and are returned. A matrix
// naming one campaign key twice is refused before anything runs.
func (e *Engine) RunMatrix(ctx context.Context, jobs []ScenarioJob) ([]*Result, error) {
	t0 := time.Now()
	em := newEngineMetrics(e.metrics)
	n := len(jobs)
	results := make([]*Result, n)
	if err := ValidateJobs(jobs); err != nil {
		e.emit(MatrixDone{Failed: n, Err: err})
		return results, err
	}
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	jobSize := e.jobSize
	if jobSize <= 0 {
		jobSize = DefaultJobSize
	}
	// Open scenario groups hold golden state and checkpoints: bound them
	// (memory backpressure) by the pool, at most 8.
	maxOpen := min(workers, 8)
	faults := e.faults

	errs := make([]error, n)
	skipped := 0

	ranges := ShardRanges(faults, jobSize) // every campaign's injection jobs
	// The task queue is sized for every task the matrix can ever enqueue,
	// so no producer — worker or feeder — ever blocks on it.
	tasks := make(chan func(), n*(len(ranges)+1))
	sem := make(chan struct{}, maxOpen) // open-scenario slots
	var open sync.WaitGroup             // fresh scenarios still in flight
	var dbMu sync.Mutex                 // serializes store appends + ScenarioDone events

	var workerWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for t := range tasks {
				t()
			}
		}()
	}

	// fail records one campaign's error and announces it — unless the
	// campaign was merely abandoned by cancellation, which MatrixDone
	// tallies instead.
	fail := func(ds *domainState, err error) {
		wrapped := fmt.Errorf("%s: %w", ds.Job.Key(), err)
		errs[ds.idx] = wrapped
		em.campaigns.With("failed").Inc()
		if !cancelledBy(ctx, err) {
			e.emit(ScenarioDone{Key: ds.Job.Key(), Err: wrapped})
		}
	}

	// closeGroup retires an open scenario group, recording err (if any) for
	// every domain campaign in it that has no result yet.
	closeGroup := func(st *scenarioState, err error) {
		if err != nil {
			for _, ds := range st.domains {
				if results[ds.idx] == nil && errs[ds.idx] == nil {
					fail(ds, err)
				}
			}
		}
		if st.group != nil {
			_, resident := st.group.Checkpoints()
			em.ckptResident.Add(-float64(resident))
			st.group = nil // drop checkpoint RAM before releasing the slot
		}
		<-sem
		open.Done()
	}

	// domainDone retires one domain campaign; the group slot is released
	// when its last domain finishes. Sibling domains keep running after one
	// domain fails.
	domainDone := func(st *scenarioState, ds *domainState, err error) {
		if err != nil {
			fail(ds, err)
		}
		if st.openDomains.Add(-1) == 0 {
			closeGroup(st, nil)
		}
	}

	// assemble turns a fully folded campaign into its Result, stores it and
	// announces it. Every job of the campaign has returned, so the fold is
	// no longer shared.
	assemble := func(st *scenarioState, ds *domainState) {
		g := st.group
		res := ds.Result(g.Summary(), g.Features, g.APICalls)
		res.GoldenWallSec = g.GoldenWallSec
		res.CampaignWallSec = time.Since(st.t0).Seconds()
		res.RecordRuns = e.recordRuns
		results[ds.idx] = res
		em.campaigns.With("completed").Inc()
		em.prunedRuns.Add(float64(res.PrunedRuns))
		// One mutex serializes the store stream and the event order across
		// completing workers, and guarantees the record is durable before
		// its ScenarioDone is observable.
		dbMu.Lock()
		var err error
		if e.store != nil {
			if err = e.store.Put(res); err != nil {
				err = fmt.Errorf("stream record: %w", err)
			}
		}
		if err == nil {
			e.emit(ScenarioDone{Key: res.Key(), Result: res})
		}
		dbMu.Unlock()
		domainDone(st, ds, err)
	}

	// finishDomain retires a domain whose last injection job just returned:
	// a campaign with any job abandoned by cancellation has no result, and
	// a failed job (a should-never-happen tracer twin mispositioning) fails
	// the domain rather than silently dropping runs.
	finishDomain := func(st *scenarioState, ds *domainState) {
		switch {
		case ds.cancelled.Load():
			domainDone(st, ds, context.Cause(ctx))
		case ds.err != nil:
			domainDone(st, ds, ds.err)
		default:
			assemble(st, ds)
		}
	}

	// inject runs one injection job — one shard of the campaign — and folds
	// it. Aborted jobs fold nothing: the campaign carries no result, and a
	// resumed matrix re-executes (and re-counts) the whole range.
	inject := func(st *scenarioState, ds *domainState, lo, hi int) {
		em.jobsRunning.Add(1)
		endSpan := e.tracer.Start(fmt.Sprintf("inject [%d,%d)", lo, hi), "inject", st.tid,
			map[string]string{"campaign": ds.Job.Key()})
		jt0 := time.Now()
		sh, err := st.group.Inject(ctx, ds.Job.Domain, faults, lo, hi, e.traceProp)
		span := time.Since(jt0).Seconds()
		endSpan()
		em.jobsRunning.Add(-1)
		if cancelledBy(ctx, err) {
			ds.cancelled.Store(true)
			return
		}
		ds.mu.Lock()
		if err == nil {
			err = ds.Add(lo, hi, sh, span)
		}
		if err != nil && ds.err == nil {
			ds.err = err
		}
		folded := ds.Folded
		ds.mu.Unlock()
		if err != nil {
			return
		}
		em.jobsDone.Inc()
		// Outcome counters update in one batch per job, tallied locally
		// first.
		tally := map[string]int{}
		for _, r := range sh.Runs {
			tally[r.Outcome.String()]++
		}
		for o, n := range tally {
			em.injections.With(o).Add(float64(n))
		}
		e.emit(JobDone{
			Scenario: ds.Job.Scenario,
			Domain:   ds.Job.Domain,
			Lo:       lo,
			Hi:       hi,
			WallSec:  span,
			Done:     folded,
			Total:    faults,
		})
	}

	golden := func(st *scenarioState) {
		if err := ctx.Err(); err != nil {
			closeGroup(st, err)
			return
		}
		st.t0 = time.Now()
		st.tid = e.tracer.TID(GroupKey(st.job.Scenario.ID(), st.job.Seed))
		doms := make([]fault.Model, len(st.domains))
		for i, ds := range st.domains {
			doms[i] = ds.Job.Domain
		}
		em.scenariosStarted.Inc()
		e.emit(ScenarioStarted{Scenario: st.job.Scenario, Seed: st.job.Seed, Domains: doms})
		g, err := buildGroup(ctx, st.job.Scenario, st.job.Seed, e.snapshots, e.tracer, e.fullCopy)
		if err != nil {
			closeGroup(st, err)
			return
		}
		st.group = g
		ckpts, resident := g.Checkpoints()
		em.goldensDone.Inc()
		em.ckptResident.Add(float64(resident))
		e.emit(GoldenDone{
			Scenario:        st.job.Scenario,
			Seed:            st.job.Seed,
			Golden:          g.Summary(),
			WallSec:         g.GoldenWallSec,
			Checkpoints:     ckpts,
			CheckpointBytes: resident,
		})
		// Arm every domain campaign of the group before any finishes: all
		// share the group, each folds its own shards.
		st.openDomains.Store(int64(len(st.domains)))
		for _, ds := range st.domains {
			ds.remaining.Store(int64(len(ranges)))
			for _, r := range ranges {
				ds, lo, hi := ds, r[0], r[1]
				em.jobsQueued.Inc()
				tasks <- func() {
					if ctx.Err() != nil {
						ds.cancelled.Store(true)
					} else {
						inject(st, ds, lo, hi)
					}
					if ds.remaining.Add(-1) == 0 {
						finishDomain(st, ds)
					}
				}
			}
		}
	}

	// Feed scenario groups in order: jobs sharing a (scenario, seed) pair —
	// the same scenario under several fault domains — run their fault-free
	// phases once. The semaphore provides memory backpressure while the
	// buffered queue keeps workers from ever blocking; cancellation stops
	// the feeder at the next free slot.
	groups := make(map[string]*scenarioState, n)
	var order []*scenarioState
	for i, job := range jobs {
		r, err := Recorded(e.store, job, faults)
		if err != nil {
			errs[i] = err
			e.emit(ScenarioDone{Key: job.Key(), Err: err})
			continue
		}
		if r != nil {
			results[i] = r
			skipped++
			em.campaigns.With("skipped").Inc()
			continue
		}
		gkey := GroupKey(job.Scenario.ID(), job.Seed)
		st := groups[gkey]
		if st == nil {
			st = &scenarioState{job: job}
			groups[gkey] = st
			order = append(order, st)
		}
		st.domains = append(st.domains, &domainState{idx: i, Fold: NewFold(job, faults, e.traceProp)})
	}
feed:
	for _, st := range order {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break feed
		}
		open.Add(1)
		st := st
		tasks <- func() { golden(st) }
	}
	open.Wait()
	close(tasks)
	workerWG.Wait()

	md := NewMatrixDone(results, errs, skipped, ctx.Err(), time.Since(t0).Seconds())
	e.emit(md)
	return results, md.Err
}
