// The coordinator half of the fabric: the submission queue, shard
// bookkeeping, the HTTP+JSON protocol handlers, result folding into the
// canonical campaign.Store and event stream, and the status page.
//
// A coordinator is always a queue (queue.go): submissions arrive through
// Submit or /v1/submit, each scoped to a tenant namespace, the lease
// scheduler fair-shares the fleet across tenants, and the queue survives
// restarts through the submission journal (journal.go) plus the store's
// resume path. Drain closes intake; once every submission of a draining
// queue is terminal, workers are told Done and Wait returns. The
// single-matrix service (NewCoordinator) is a queue with one entry that was
// told to drain at construction.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/obs"
	"serfi/internal/profile"
	"serfi/internal/sens"
)

// Defaults for the tunables every coordinator option can override.
const (
	// DefaultShardSize is how many faults one lease covers. It matches the
	// local scheduler's injection job size: a shard is the distributed
	// analogue of an injection job.
	DefaultShardSize = campaign.DefaultJobSize
	// DefaultLeaseTTL is how long a worker may sit on a shard before the
	// coordinator re-issues it. Generous on purpose: a shard's cost is
	// dominated by the first shard of a scenario (the golden run, which
	// also captures the checkpoints), and a premature re-issue only wastes work, never
	// corrupts results.
	DefaultLeaseTTL = 5 * time.Minute
	// defaultRetryMs is the back-off hint handed to workers when every
	// remaining shard is leased, or the queue is momentarily empty.
	defaultRetryMs = 200
)

// ErrCancelled is the cause Wait reports when a submission it waited for
// was withdrawn through /v1/cancel rather than run to completion.
var ErrCancelled = errors.New("submission cancelled")

// submission is one queued campaign matrix: the jobs and fault count a
// local Engine.RunMatrix would take, the tenant namespace its rows land
// in, and the per-campaign folding state.
type submission struct {
	id        string
	tenant    string
	faults    int
	traceProp bool
	store     campaign.Store // tenant-scoped view of the coordinator store
	jobs      []campaign.ScenarioJob
	camps     []*campState
	results   []*campaign.Result
	errs      []error
	campsLeft int
	skipped   int
	failed    int
	cancelled bool
	t0        time.Time
	endT      time.Time // terminal timestamp (zero while running)

	done chan struct{} // closed when the last campaign retires
}

// state reports the submission's lifecycle state.
func (s *submission) state() string {
	switch {
	case s.cancelled:
		return "cancelled"
	case s.campsLeft > 0:
		return "running"
	case s.failed > 0:
		return "failed"
	default:
		return "done"
	}
}

// campState is one (scenario, domain) campaign's state on the coordinator:
// the fold its accepted shards accumulate in (campaign.Fold — the identity
// it was sharded from, Job and Faults, included), the scenario-level
// metadata reported by the first completed shard (which every later shard's
// golden summary is checked against), and the lease bookkeeping.
type campState struct {
	sub   *submission // owning submission (nil only in table-level tests)
	idx   int         // position in the submission's jobs / results slices
	key   string
	group string // campaign.GroupKey of the job: what a worker builds once, so what leases are affine to
	campaign.Fold

	shardsLeft int  // shards not yet folded
	skipped    bool // answered from the store at startup (no shards)
	started    bool
	t0         time.Time // first lease grant (campaign wall span opens)

	haveMeta   bool
	metaWorker string // who reported the metadata every later shard must match
	golden     campaign.GoldenSummary
	features   map[string]float64
	apiCalls   uint64

	done bool
	err  error
}

// tenant is the campaign's namespace, via its owning submission.
func (cs *campState) tenant() string {
	if cs.sub == nil {
		return ""
	}
	return cs.sub.tenant
}

// workerInfo is the per-worker telemetry behind the status page.
type workerInfo struct {
	shards   int
	runs     int
	capacity int
	lastSeen time.Time
}

// Coordinator serves campaign shards to workers. Construct with NewQueue
// (Submit enqueues matrices; the process serves until drained or stopped)
// or with NewCoordinator, the one-matrix shorthand. Mount Handler on a
// server or hand it to loopback clients; Serve does listen+wait in one call.
type Coordinator struct {
	shardSize int
	ttl       time.Duration
	store     campaign.Store
	events    chan<- campaign.Event
	now       func() time.Time

	mu      sync.Mutex
	subs    []*submission
	subByID map[string]*submission
	nextSeq int
	table   *leaseTable
	workers map[string]*workerInfo
	t0      time.Time
	muted   bool // terminal MatrixDone announced; drop late handler events
	journal *Journal
	// draining is closed by Drain: intake is shut, and once every submission
	// is terminal the fleet is told Done. The only lifecycle state there is.
	draining chan struct{}

	// Observability state (obs.go): the coordinator's private instrument
	// registry, the latest cumulative metric snapshot per worker name, and
	// the matrix-wide outcome tally.
	cm         *coordMetrics
	workerFams map[string][]obs.Family
	outcomes   map[string]int
}

// CoordOption configures a Coordinator.
type CoordOption func(*Coordinator)

// ShardSize sets how many faults one lease covers; 0 picks
// DefaultShardSize. Shard size never affects results — only lease
// granularity (how much a dead worker can lose) and protocol overhead.
func ShardSize(n int) CoordOption { return func(c *Coordinator) { c.shardSize = n } }

// LeaseTTL sets how long a lease may stay unacknowledged before the shard
// is re-issued; 0 picks DefaultLeaseTTL.
func LeaseTTL(d time.Duration) CoordOption { return func(c *Coordinator) { c.ttl = d } }

// WithStore attaches the canonical results store: campaigns whose key the
// store already holds are answered from it (the resume path, exactly like
// the local Engine), and every freshly assembled campaign is Put in
// completion order. The store should be a campaign.TenantStore (e.g. OpenSegmentedStore) so named tenants can be
// scoped; submissions for named tenants over a flat store are rejected.
func WithStore(st campaign.Store) CoordOption { return func(c *Coordinator) { c.store = st } }

// WithEvents attaches a typed campaign event stream. The coordinator sends
// one JobDone per accepted shard as its completion folds, ScenarioDone as
// campaigns assemble (or fail) and exactly one terminal MatrixDone from
// Wait; the same consumer contract as campaign.Engine applies (one live
// consumer per run, draining until MatrixDone — or, on a queue nobody Waits
// on, for as long as workers are attached).
func WithEvents(ch chan<- campaign.Event) CoordOption { return func(c *Coordinator) { c.events = ch } }

// withNow overrides the coordinator clock (lease-expiry tests).
func withNow(f func() time.Time) CoordOption { return func(c *Coordinator) { c.now = f } }

// NewCoordinator shards one matrix: the same jobs and per-campaign fault
// count a local Engine.RunMatrix would take, submitted to a fresh queue
// that is drained at once — so workers are told Done when the matrix
// retires and Wait returns its results. The fabric inherits the Engine's
// seed convention unchanged, so a distributed run reproduces a local run
// bit for bit.
func NewCoordinator(jobs []campaign.ScenarioJob, faults int, opts ...CoordOption) (*Coordinator, error) {
	c := NewQueue(opts...)
	if _, err := c.Submit(SubmitSpec{Jobs: jobs, Faults: faults}); err != nil {
		return nil, err
	}
	c.Drain()
	return c, nil
}

// enqueue validates one submission spec, journals it when a journal is
// attached, and only then threads it into the queue: store-answered
// campaigns retire immediately, the rest become pending shards. A spec that
// is refused, or whose journal append fails, leaves the queue exactly as it
// was, its ID counter included. Caller holds c.mu (RestoreQueue replays
// before the queue is shared and before its journal is attached, so replay
// appends nothing).
func (c *Coordinator) enqueue(spec SubmitSpec) (*submission, error) {
	if err := campaign.ValidateJobs(spec.Jobs, spec.Faults); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	if !campaign.ValidTenant(spec.Tenant) {
		return nil, fmt.Errorf("dist: invalid tenant namespace %q", spec.Tenant)
	}
	view, err := campaign.TenantView(c.store, spec.Tenant)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	seq := c.nextSeq + 1
	sub := &submission{
		id:        spec.ID,
		tenant:    spec.Tenant,
		faults:    spec.Faults,
		traceProp: spec.TraceProp,
		store:     view,
		jobs:      spec.Jobs,
		results:   make([]*campaign.Result, len(spec.Jobs)),
		errs:      make([]error, len(spec.Jobs)),
		t0:        c.now(),
		done:      make(chan struct{}),
	}
	if sub.id == "" {
		// Sequential, stepping over any ID a caller has already chosen.
		for c.subByID[fmt.Sprintf("m%06d", seq)] != nil {
			seq++
		}
		sub.id = fmt.Sprintf("m%06d", seq)
	}
	if c.subByID[sub.id] != nil {
		return nil, fmt.Errorf("dist: submission %s already exists", sub.id)
	}
	tn := tenantLabel(sub.tenant)
	for i, job := range spec.Jobs {
		key := job.Key()
		// A campaign still running under another live submission of the
		// same tenant would race it on the store; refuse up front.
		for _, other := range c.subs {
			if other.tenant != sub.tenant || other.campsLeft == 0 {
				continue
			}
			for _, oc := range other.camps {
				if oc.key == key && !oc.done {
					return nil, fmt.Errorf("dist: campaign %s already queued by submission %s", key, other.id)
				}
			}
		}
		st := &campState{sub: sub, idx: i, key: key, group: campaign.GroupKey(job.Scenario.ID(), job.Seed),
			Fold: campaign.NewFold(job, spec.Faults, spec.TraceProp)}
		r, err := campaign.Recorded(view, job, spec.Faults)
		if err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
		if r != nil {
			sub.results[i] = r
			st.done = true
			st.skipped = true
			sub.skipped++
		}
		sub.camps = append(sub.camps, st)
		if !st.done {
			sub.campsLeft++
		}
	}
	// The spec is valid. Write ahead: the journal holds the submission
	// before the queue acts on it, so what a client is told was accepted
	// survives a restart, and what failed to journal was never accepted.
	if c.journal != nil {
		err := c.journal.Append(JournalEntry{
			Op:        "submit",
			ID:        sub.id,
			Tenant:    sub.tenant,
			Faults:    sub.faults,
			TraceProp: sub.traceProp,
			Jobs:      WireJobs(sub.jobs),
		})
		if err != nil {
			return nil, journalError{fmt.Errorf("dist: journal submission %s: %w", sub.id, err)}
		}
	}
	// Commit. Metrics only move past this point, so a rejected submission
	// leaves no trace.
	c.nextSeq = seq
	for _, st := range sub.camps {
		if st.skipped {
			c.cm.campaigns.With("skipped", tn).Inc()
		}
	}
	c.subs = append(c.subs, sub)
	c.subByID[sub.id] = sub
	c.table.add(sub.camps, c.shardSize)
	if sub.campsLeft == 0 {
		sub.endT = c.now()
		close(sub.done)
	}
	return sub, nil
}

// emit is the one path every transition is announced on: the attached
// event stream, if any. Caller holds c.mu; after the terminal MatrixDone
// (muted, set under the same mutex) late handler events are dropped, so
// MatrixDone is always the stream's last event and no handler can block on
// a channel whose consumer already detached.
func (c *Coordinator) emit(ev campaign.Event) {
	if c.events != nil && !c.muted {
		c.events <- ev
	}
}

// finish snapshots every submission's results in submission then job order,
// announces the terminal MatrixDone exactly once and mutes further handler
// events. A cancelled submission is the cause when nothing else is. Holding
// the mutex serializes with any handler mid-emit: its send completes (the
// consumer is still draining), then MatrixDone goes out last.
func (c *Coordinator) finish(cause error) ([]*campaign.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var results []*campaign.Result
	var errs []error
	skipped := 0
	for _, sub := range c.subs {
		results = append(results, sub.results...)
		errs = append(errs, sub.errs...)
		skipped += sub.skipped
		if sub.cancelled && cause == nil {
			cause = fmt.Errorf("dist: %s: %w", sub.id, ErrCancelled)
		}
	}
	md := campaign.NewMatrixDone(results, errs, skipped, cause, c.now().Sub(c.t0).Seconds())
	c.emit(md)
	c.muted = true
	return results, md.Err
}

// Wait blocks until the queue has drained — Drain was called and every
// submission is terminal (assembled, failed or cancelled) — or until ctx
// cancels, then emits the terminal MatrixDone and returns the results in
// submission then job order: for NewCoordinator's one matrix, the same
// contract as Engine.RunMatrix. On cancellation the partial results plus
// ctx.Err() are returned; campaigns already assembled are durable in the
// store, and a new coordinator over the same store resumes where this one
// stopped.
func (c *Coordinator) Wait(ctx context.Context) ([]*campaign.Result, error) {
	select {
	case <-c.draining:
	case <-ctx.Done():
		return c.finish(ctx.Err())
	}
	c.mu.Lock()
	subs := c.subs // intake is closed: the list is final
	c.mu.Unlock()
	for _, sub := range subs {
		select {
		case <-sub.done:
		case <-ctx.Done():
			return c.finish(ctx.Err())
		}
	}
	return c.finish(nil)
}

// doneLinger is how long Serve keeps answering the protocol after the
// queue drains, so workers sitting in their retry-poll loop observe the
// Done reply and exit cleanly instead of finding a closed port. (The worker
// that folds the final shard learns Done from its CompleteReply and needs
// no linger at all.)
const doneLinger = 1500 * time.Millisecond

// Serve listens on addr, serves the wire protocol plus the status page, and
// waits for the queue to drain (see Wait) — which, for a queue nobody
// drains, means until ctx cancels. After a drain the server lingers briefly
// (doneLinger) so polling workers see the Done signal, then the listener
// closes.
func (c *Coordinator) Serve(ctx context.Context, addr string) ([]*campaign.Result, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		// Announce the terminal event even when the run never starts, so an
		// attached Collector goroutine unblocks instead of hanging its CLI.
		c.finish(err)
		return nil, err
	}
	srv := &http.Server{Handler: c.Handler()}
	go srv.Serve(ln)
	results, werr := c.Wait(ctx)
	if ctx.Err() == nil {
		time.Sleep(doneLinger)
	}
	shctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(shctx); err != nil {
		srv.Close()
	}
	return results, werr
}

// Handler returns the coordinator's HTTP handler: the /v1 wire protocol
// (lease/complete/events plus the queue's submit/matrices/cancel/fetch), a
// human-readable status page at /, the cluster-wide Prometheus exposition
// at /metrics, the live dashboard at /dash, and the standard pprof
// endpoints under /debug/pprof/.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathLease, c.handleLease)
	mux.HandleFunc(PathComplete, c.handleComplete)
	mux.HandleFunc(PathEvents, c.handleEvents)
	mux.HandleFunc(PathStatus, c.handleStatus)
	mux.HandleFunc(PathSubmit, c.handleSubmit)
	mux.HandleFunc(PathMatrices, c.handleMatrices)
	mux.HandleFunc(PathCancel, c.handleCancel)
	mux.HandleFunc(PathFetch, c.handleFetch)
	mux.HandleFunc("/metrics", c.handleMetrics)
	mux.HandleFunc("/dash", c.handleDash)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", c.handlePage)
	return mux
}

// decode parses one JSON request body and enforces the protocol version.
func decode(w http.ResponseWriter, r *http.Request, proto *int, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
		return false
	}
	if *proto != ProtoVersion {
		writeJSON(w, http.StatusBadRequest, errorReply{
			Error: fmt.Sprintf("protocol version %d, coordinator speaks %d", *proto, ProtoVersion)})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// touch refreshes one worker's liveness row on a lease request or a
// completion. Caller holds c.mu.
func (c *Coordinator) touch(name string) *workerInfo {
	wi := c.workers[name]
	if wi == nil {
		wi = &workerInfo{}
		c.workers[name] = wi
	}
	wi.lastSeen = c.now()
	return wi
}

// reapLocked returns overdue leases to pending and fails the campaign of
// any shard whose lease has now expired maxShardAttempts times: a fault
// that kills or hangs every worker it touches must fail its campaign
// loudly, not loop on lease expiry. Caller holds c.mu.
func (c *Coordinator) reapLocked() {
	for _, sh := range c.table.expire() {
		if sh.camp.done {
			continue // a sibling shard already failed it
		}
		c.cm.shards.With("failed", tenantLabel(sh.camp.tenant())).Inc()
		c.failCampaign(sh.camp, fmt.Errorf("shard [%d,%d) abandoned: its lease expired %d times, last held by worker %q",
			sh.lo, sh.hi, maxShardAttempts, sh.worker))
	}
}

// drainedLocked reports the Done flag piggybacked to workers: the queue is
// draining and every shard it ever held is retired, which is exactly when
// every submission is terminal. A queue that was not told to drain never
// tells workers to exit — an idle fleet polls for the next submission.
// Caller holds c.mu.
func (c *Coordinator) drainedLocked() bool {
	return c.isDraining() && c.table.done == c.table.total
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decode(w, r, &req.Proto, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	wi := c.touch(req.Worker)
	if req.Capacity > 0 {
		wi.capacity = req.Capacity
	}
	c.reapLocked()
	sh, allRetired := c.table.acquire(req.Worker)
	if sh == nil {
		if allRetired && c.isDraining() {
			c.cm.leaseRequests.With("done", "none").Inc()
			writeJSON(w, http.StatusOK, LeaseReply{Proto: ProtoVersion, Done: true})
			return
		}
		c.cm.leaseRequests.With("retry", "none").Inc()
		writeJSON(w, http.StatusOK, LeaseReply{Proto: ProtoVersion, RetryMs: defaultRetryMs})
		return
	}
	camp := sh.camp
	c.cm.leaseRequests.With("grant", tenantLabel(camp.tenant())).Inc()
	c.cm.grants.With(affinityNames[sh.affinity]).Inc()
	if !camp.started {
		camp.started = true
		camp.t0 = c.now()
	}
	writeJSON(w, http.StatusOK, LeaseReply{Proto: ProtoVersion, Lease: &Lease{
		ID:        sh.leaseID,
		Key:       camp.key,
		Scenario:  camp.Job.Scenario.ID(),
		Domain:    camp.Job.Domain.String(),
		Seed:      camp.Job.Seed,
		Faults:    camp.Faults,
		Lo:        sh.lo,
		Hi:        sh.hi,
		TTLMs:     int(c.ttl / time.Millisecond),
		TraceProp: camp.TraceProp,
	}})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decode(w, r, &req.Proto, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	wi := c.touch(req.Worker)
	if len(req.Metrics) > 0 {
		// Latest cumulative snapshot wins; see obs.go for the merge rule.
		c.workerFams[req.Worker] = req.Metrics
	}
	sh, stale := c.table.complete(req.LeaseID, req.Worker, req.Key, req.Lo, req.Hi)
	if stale {
		c.cm.shards.With("stale", "none").Inc()
		writeJSON(w, http.StatusOK, CompleteReply{Proto: ProtoVersion, Stale: true, Done: c.drainedLocked()})
		return
	}
	camp := sh.camp
	tn := tenantLabel(camp.tenant())
	// A shard the worker could not execute, or whose shape does not match
	// its lease (the fold rejects it untouched), fails the campaign.
	var err error
	if req.Err != "" {
		err = errors.New(req.Err)
	} else if camp.haveMeta && req.Golden != camp.golden {
		// Simulation is deterministic: a golden run two workers disagree on
		// is a stale binary, another model or a host soft error.
		err = fmt.Errorf("golden run mismatch: worker %q reports %+v, worker %q reported %+v",
			req.Worker, req.Golden, camp.metaWorker, camp.golden)
	} else {
		err = camp.Add(sh.lo, sh.hi, campaign.Shard{
			Runs:           req.Runs,
			Traces:         req.Traces,
			SimulatedInstr: req.SimulatedInstr,
			FromResetInstr: req.FromResetInstr,
			PrunedRuns:     req.PrunedRuns,
		}, req.WallSec)
	}
	if err != nil {
		c.cm.shards.With("failed", tn).Inc()
		c.failCampaign(camp, err)
		writeJSON(w, http.StatusOK, CompleteReply{Proto: ProtoVersion, Accepted: true, Done: c.drainedLocked()})
		return
	}
	if !camp.haveMeta {
		camp.haveMeta = true
		camp.metaWorker = req.Worker
		camp.golden = req.Golden
		camp.features = req.Features
		camp.apiCalls = req.APICalls
	}
	for i := range req.Runs {
		o := req.Runs[i].Outcome.String()
		c.outcomes[o]++
		c.cm.injections.With(o).Inc()
	}
	c.cm.shards.With("accepted", tn).Inc()
	c.cm.shardSeconds.Observe(req.WallSec)
	wi.shards++
	wi.runs += len(req.Runs)
	// The fold is the one progress count. Announced before the campaign can
	// assemble, so its ScenarioDone stays its last event.
	c.emit(campaign.JobDone{
		Scenario: camp.Job.Scenario,
		Domain:   camp.Job.Domain,
		Lo:       sh.lo,
		Hi:       sh.hi,
		WallSec:  req.WallSec,
		Done:     camp.Folded,
		Total:    camp.Faults,
	})
	camp.shardsLeft--
	if camp.shardsLeft == 0 && !camp.done {
		c.assemble(camp)
	}
	writeJSON(w, http.StatusOK, CompleteReply{Proto: ProtoVersion, Accepted: true, Done: c.drainedLocked()})
}

// handleEvents answers a progress beat and changes nothing. Ignored: a
// shard's completion is its progress; kept for bench/ (ROADMAP item 8).
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	var req EventRequest
	if decode(w, r, &req.Proto, &req) {
		writeJSON(w, http.StatusOK, EventReply{Proto: ProtoVersion})
	}
}

// assemble turns one fully folded campaign into its canonical Result, puts
// it in the store and announces it — the distributed twin of the Engine's
// assemble step, over the same fold. Caller holds c.mu.
func (c *Coordinator) assemble(camp *campState) {
	sub := camp.sub
	res := camp.Result(camp.golden, profile.FeaturesFromMap(camp.features), camp.apiCalls)
	res.CampaignWallSec = c.now().Sub(camp.t0).Seconds()
	if sub.store != nil {
		if err := sub.store.Put(res); err != nil {
			c.failCampaign(camp, fmt.Errorf("stream record: %w", err))
			return
		}
	}
	sub.results[camp.idx] = res
	camp.done = true
	c.cm.campaigns.With("completed", tenantLabel(sub.tenant)).Inc()
	c.emit(campaign.ScenarioDone{Key: camp.key, Result: res})
	c.campDone(sub)
}

// failCampaign retires a campaign with an error, dropping its remaining
// shards so the lease table still drains. Caller holds c.mu.
func (c *Coordinator) failCampaign(camp *campState, err error) {
	if camp.done {
		return
	}
	sub := camp.sub
	camp.done = true
	camp.err = fmt.Errorf("%s: %w", camp.key, err)
	sub.errs[camp.idx] = camp.err
	sub.failed++
	c.cm.campaigns.With("failed", tenantLabel(sub.tenant)).Inc()
	c.table.retireCampaign(camp)
	c.emit(campaign.ScenarioDone{Key: camp.key, Err: camp.err})
	c.campDone(sub)
}

// campDone retires one campaign slot of a submission; the submission
// finishes when none remain. Caller holds c.mu.
func (c *Coordinator) campDone(sub *submission) {
	sub.campsLeft--
	if sub.campsLeft != 0 {
		return
	}
	sub.endT = c.now()
	close(sub.done)
	// Prune retired shards so acquire scans stay proportional to live work,
	// not to everything ever submitted.
	c.table.pruneDone()
}

// matrixStatusLocked renders one submission's queue row. Caller holds c.mu.
func (c *Coordinator) matrixStatusLocked(sub *submission) MatrixStatus {
	ms := MatrixStatus{
		ID:        sub.id,
		Tenant:    sub.tenant,
		State:     sub.state(),
		Campaigns: len(sub.camps),
		Skipped:   sub.skipped,
		Failed:    sub.failed,
	}
	end := sub.endT
	if end.IsZero() {
		end = c.now()
	}
	ms.ElapsedSec = end.Sub(sub.t0).Seconds()
	for _, camp := range sub.camps {
		if camp.done {
			ms.CampaignsDone++
		}
		if camp.skipped {
			continue // answered from the store: counted in Skipped, not here
		}
		ms.Injections += camp.Faults
		ms.Injected += camp.Folded
	}
	return ms
}

// Matrix snapshots one submission (also served at /v1/matrices with an ID):
// its queue row, and one row per campaign sorted by key.
func (c *Coordinator) Matrix(id string) (MatricesReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sub := c.subByID[id]
	if sub == nil {
		return MatricesReply{}, fmt.Errorf("dist: unknown submission %q", id)
	}
	mr := MatricesReply{Proto: ProtoVersion, Matrices: []MatrixStatus{c.matrixStatusLocked(sub)}}
	for _, camp := range sub.camps {
		row := CampaignStatus{
			Key:     camp.key,
			Tenant:  sub.tenant,
			Matrix:  sub.id,
			Faults:  camp.Faults,
			Done:    camp.done,
			Skipped: camp.skipped,
			Failed:  camp.err != nil,
		}
		// Progress is the fold (a store-answered campaign has none).
		// Vulnerability: the unmasked rate over folded results, with its 95%
		// Wilson interval; store-answered campaigns read the stored counts
		// instead.
		row.Injected = camp.Folded
		unmasked, n := camp.Unmasked, camp.Folded
		if r := sub.results[camp.idx]; camp.skipped && r != nil {
			unmasked, n = r.Counts.Unmasked(), r.Counts.Total()
		}
		if n > 0 {
			row.Unmasked = unmasked
			row.Sampled = n
			row.CILo, row.CIHi = sens.Wilson95(unmasked, n)
		}
		mr.CampaignList = append(mr.CampaignList, row)
	}
	sort.Slice(mr.CampaignList, func(i, j int) bool { return mr.CampaignList[i].Key < mr.CampaignList[j].Key })
	return mr, nil
}

// Status snapshots the coordinator's aggregate state (also served at
// /v1/status): the campaign tallies are the sums of the submissions' queue
// rows.
func (c *Coordinator) Status() StatusReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	now := c.now()
	st := StatusReply{
		Proto:         ProtoVersion,
		Shards:        c.table.total,
		ShardsDone:    c.table.done,
		ShardsLeased:  c.table.leased,
		ShardsPending: c.table.pending,
		Reissued:      c.table.reissued,
		ElapsedSec:    now.Sub(c.t0).Seconds(),
	}
	live := 0
	for _, sub := range c.subs {
		ms := c.matrixStatusLocked(sub)
		st.Campaigns += ms.Campaigns
		st.CampaignsDone += ms.CampaignsDone
		st.Skipped += ms.Skipped
		st.Failed += ms.Failed
		st.Injections += ms.Injections
		st.Injected += ms.Injected
		if sub.campsLeft > 0 {
			live++
		}
	}
	// An idle queue nobody told to drain is not done: a submit may still come.
	st.Done = c.isDraining() && live == 0
	if len(c.outcomes) > 0 {
		st.Outcomes = make(map[string]int, len(c.outcomes))
		for k, v := range c.outcomes {
			st.Outcomes[k] = v
		}
	}
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wi := c.workers[name]
		liveLeases := 0
		for _, sh := range c.table.shards {
			if sh.state == shardLeased && sh.worker == name {
				liveLeases++
			}
		}
		st.Workers = append(st.Workers, WorkerStatus{
			Name:        name,
			Live:        liveLeases,
			Shards:      wi.shards,
			Runs:        wi.runs,
			Capacity:    wi.capacity,
			LastSeenSec: now.Sub(wi.lastSeen).Seconds(),
		})
	}
	return st
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Status())
}

// handlePage renders the status page at /: the classic text report inside
// an HTML shell. Worker names are caller-controlled wire strings, so every
// dynamic value is HTML-escaped before it reaches the page.
func (c *Coordinator) handlePage(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	st, matrices := c.Status(), c.MatrixList()
	var b bytes.Buffer
	fmt.Fprintf(&b, "serfi distributed campaign coordinator (protocol v%d)\n\n", st.Proto)
	fmt.Fprintf(&b, "campaigns  %d/%d done (%d skipped, %d failed)\n",
		st.CampaignsDone, st.Campaigns, st.Skipped, st.Failed)
	fmt.Fprintf(&b, "shards     %d/%d done, %d leased, %d pending, %d re-issued\n",
		st.ShardsDone, st.Shards, st.ShardsLeased, st.ShardsPending, st.Reissued)
	fmt.Fprintf(&b, "injections %d/%d classified\n", st.Injected, st.Injections)
	fmt.Fprintf(&b, "elapsed    %.1fs\n", st.ElapsedSec)
	// The submissions table shows once there is a queue to speak of: more
	// than one submission, or a named tenant (dash.go's script: same rule).
	if len(matrices) > 1 || (len(matrices) == 1 && matrices[0].Tenant != "") {
		fmt.Fprintf(&b, "\n%-10s %-12s %-10s %10s %10s\n", "matrix", "tenant", "state", "campaigns", "injected")
		for _, ms := range matrices {
			fmt.Fprintf(&b, "%-10s %-12s %-10s %6d/%-3d %10d\n",
				ms.ID, tenantLabel(ms.Tenant), ms.State, ms.CampaignsDone, ms.Campaigns, ms.Injected)
		}
	}
	if len(st.Workers) > 0 {
		fmt.Fprintf(&b, "\n%-24s %6s %8s %8s %10s\n", "worker", "live", "shards", "runs", "last seen")
		for _, ws := range st.Workers {
			fmt.Fprintf(&b, "%-24s %6d %8d %8d %9.1fs\n", ws.Name, ws.Live, ws.Shards, ws.Runs, ws.LastSeenSec)
		}
	}
	if len(st.Outcomes) > 0 {
		keys := make([]string, 0, len(st.Outcomes))
		for k := range st.Outcomes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "\n%-24s %8s\n", "outcome", "count")
		for _, k := range keys {
			fmt.Fprintf(&b, "%-24s %8d\n", k, st.Outcomes[k])
		}
	}
	if st.Done {
		fmt.Fprintln(&b, "\nmatrix complete")
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<!DOCTYPE html>\n<html><head><title>serfi coordinator</title></head><body>\n")
	fmt.Fprintf(w, "<p><a href=\"/dash\">live dashboard</a> · <a href=\"/metrics\">metrics</a> · <a href=\"/v1/status\">status JSON</a></p>\n")
	fmt.Fprintf(w, "<pre>%s</pre>\n</body></html>\n", html.EscapeString(b.String()))
}
