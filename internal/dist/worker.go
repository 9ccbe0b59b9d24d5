// The worker half of the fabric: pull leases, build the leased scenario's
// campaign.Group locally (image, golden reference, checkpoints, fault list
// — every one a deterministic function of the scenario and seed), run
// exactly the leased fault index range through Group.Inject, and post the
// shard back. A worker is the local campaign engine with the scheduling
// inverted: the executor is the same code, but instead of feeding a worker
// pool from an in-process matrix, each pool slot feeds itself from the
// coordinator, and an LRU of groups stands in for the engine's open slots.
package dist

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
	"serfi/internal/obs"
)

// Worker pulls shards from one coordinator and executes them. Construct
// with NewWorker; Run blocks until the coordinator reports the matrix done,
// the context cancels, or the coordinator stays unreachable past the retry
// budget.
type Worker struct {
	cl        *Client
	name      string
	parallel  int
	snapshots int // checkpoints per scenario; <= 0 = none

	draining atomic.Bool

	gmu    sync.Mutex
	groups map[string]*cacheEntry
	seq    int64
}

// WorkerOption configures a Worker.
type WorkerOption func(*Worker)

// Name sets the worker's stable name on the coordinator's status page;
// the default is host-pid.
func Name(s string) WorkerOption { return func(w *Worker) { w.name = s } }

// Parallel sets how many leases the worker executes concurrently; 0 (the
// default) uses one slot. Shards are independent, so any parallelism is
// sound.
func Parallel(n int) WorkerOption { return func(w *Worker) { w.parallel = n } }

// Snapshots sets the per-scenario checkpoint count (default
// fi.DefaultCheckpoints); n <= 0 disables snapshot acceleration, as in
// fi.CheckpointOptions. Results are bit-identical at any count.
func Snapshots(n int) WorkerOption { return func(w *Worker) { w.snapshots = n } }

// maxOpenGroups bounds how many scenario groups (golden state +
// checkpoints) a worker caches at once.
const maxOpenGroups = 2

// NewWorker returns a worker bound to one coordinator client.
func NewWorker(cl *Client, opts ...WorkerOption) *Worker {
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	w := &Worker{
		cl:        cl,
		name:      fmt.Sprintf("%s-%d", host, os.Getpid()),
		snapshots: fi.DefaultCheckpoints,
		groups:    make(map[string]*cacheEntry),
	}
	for _, opt := range opts {
		opt(w)
	}
	if w.parallel <= 0 {
		w.parallel = 1
	}
	return w
}

// Drain puts the worker into graceful-shutdown mode: every lease slot
// finishes the shard it holds (results are posted as usual), takes no new
// lease, and Run returns nil once all slots have parked. Safe to call from
// a signal handler; calling it more than once is a no-op.
func (w *Worker) Drain() { w.draining.Store(true) }

// maxLeaseErrs is how many consecutive unreachable-coordinator round trips
// a lease loop tolerates before giving up.
const maxLeaseErrs = 20

// Run pulls and executes leases until the coordinator reports the matrix
// done. Cancellation returns ctx.Err(); in-flight shards are abandoned
// (their leases expire and the coordinator re-issues them).
func (w *Worker) Run(ctx context.Context) error {
	errs := make([]error, w.parallel)
	var wg sync.WaitGroup
	for i := 0; i < w.parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.loop(ctx)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// loop is one lease slot: lease, execute, complete, repeat.
func (w *Worker) loop(ctx context.Context) error {
	fails := 0
	backoff := func() error {
		fails++
		d := time.Duration(fails) * 100 * time.Millisecond
		if d > 3*time.Second {
			d = 3 * time.Second
		}
		return sleep(ctx, d)
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.draining.Load() {
			// Draining: this slot's previous shard (if any) was completed
			// above; park without leasing again.
			return nil
		}
		reply, err := w.cl.LeaseCapacity(ctx, w.name, w.parallel)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if fails+1 >= maxLeaseErrs {
				return fmt.Errorf("dist: coordinator unreachable: %w", err)
			}
			if err := backoff(); err != nil {
				return err
			}
			continue
		}
		fails = 0
		if reply.Done {
			return nil
		}
		if reply.Lease == nil {
			wait := time.Duration(reply.RetryMs) * time.Millisecond
			if wait <= 0 {
				wait = defaultRetryMs * time.Millisecond
			}
			if err := sleep(ctx, wait); err != nil {
				return err
			}
			continue
		}
		req, err := w.exec(ctx, reply.Lease)
		if err != nil {
			return err // only cancellation aborts exec; shard errors travel in req.Err
		}
		done, err := w.complete(ctx, req)
		if err != nil {
			return err
		}
		if done {
			// The matrix finished with this shard: exit without another
			// lease round trip (the coordinator may shut down any moment).
			return nil
		}
	}
}

// complete posts one shard result, retrying transient failures — a shard
// the coordinator never hears about would burn a full lease TTL. The
// returned done mirrors the coordinator's matrix-finished flag.
func (w *Worker) complete(ctx context.Context, req CompleteRequest) (bool, error) {
	for attempt := 1; ; attempt++ {
		reply, err := w.cl.Complete(ctx, req)
		if err == nil {
			return reply.Done, nil // accepted or stale; both retire the shard here
		}
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		if attempt >= maxLeaseErrs {
			return false, fmt.Errorf("dist: completing shard %s[%d,%d): %w", req.Key, req.Lo, req.Hi, err)
		}
		if err := sleep(ctx, time.Duration(attempt)*100*time.Millisecond); err != nil {
			return false, err
		}
	}
}

// exec runs one leased shard. Scenario-level failures (bad scenario ID,
// image build or golden-run errors, an unknown domain, a tracer failure)
// are reported to the coordinator in CompleteRequest.Err, failing the
// campaign there exactly like a local engine run; only context cancellation
// returns a non-nil error.
func (w *Worker) exec(ctx context.Context, l *Lease) (CompleteRequest, error) {
	req := CompleteRequest{Worker: w.name, LeaseID: l.ID, Key: l.Key, Lo: l.Lo, Hi: l.Hi}
	fail := func(err error) (CompleteRequest, error) {
		if ctx.Err() != nil {
			return req, ctx.Err() // lease expires, shard re-issued
		}
		req.Err = err.Error()
		return req, nil
	}
	ce, err := w.acquire(ctx, l)
	if err != nil {
		return fail(err)
	}
	defer w.release(ce)
	g := ce.group
	model, err := fault.ParseModel(l.Domain)
	if err != nil {
		return fail(err)
	}

	// The whole range is one Group.Inject: the coordinator counts the
	// shard's progress when its completion folds.
	t0 := time.Now()
	sh, err := g.Inject(ctx, model, l.Faults, l.Lo, l.Hi, l.TraceProp)
	if err != nil {
		return fail(err)
	}
	req.WallSec = time.Since(t0).Seconds()
	req.Runs, req.Traces = sh.Runs, sh.Traces
	req.SimulatedInstr, req.FromResetInstr, req.PrunedRuns = sh.SimulatedInstr, sh.FromResetInstr, sh.PrunedRuns
	req.Golden = g.Summary()
	req.Features = g.Features.Map()
	req.APICalls = g.APICalls
	// Piggyback this process's cumulative metric snapshot (fi, mach, mem,
	// wire families) so the coordinator can serve cluster-wide /metrics.
	req.Metrics = obs.Default.Snapshot()
	return req, nil
}

// cacheEntry is one slot of the worker's group LRU: a campaign.Group being
// built or built, shared by every shard of that (scenario, seed) pair.
type cacheEntry struct {
	key   string
	refs  int
	stamp int64 // LRU clock; updated on release

	ready chan struct{} // closed once built
	err   error
	group *campaign.Group
}

// acquire returns the cache entry holding a lease's built scenario group,
// building it on first use and evicting the least-recently-used idle group
// beyond the cache bound. The first acquirer builds; concurrent acquirers
// wait.
func (w *Worker) acquire(ctx context.Context, l *Lease) (*cacheEntry, error) {
	gkey := campaign.GroupKey(l.Scenario, l.Seed)
	w.gmu.Lock()
	ce := w.groups[gkey]
	build := false
	if ce == nil {
		w.evictLocked()
		ce = &cacheEntry{key: gkey, ready: make(chan struct{})}
		w.groups[gkey] = ce
		build = true
	}
	ce.refs++
	w.gmu.Unlock()

	if build {
		var sc npb.Scenario
		if sc, ce.err = npb.ParseID(l.Scenario); ce.err == nil {
			t0 := time.Now()
			ce.group, ce.err = campaign.BuildGroup(ctx, sc, l.Seed, w.snapshots, nil)
			obsGroupBuilds.With(l.Scenario).Inc()
			obsGroupBuildSeconds.Observe(time.Since(t0).Seconds())
		}
		close(ce.ready)
	}
	select {
	case <-ce.ready:
	case <-ctx.Done():
		w.release(ce)
		return nil, ctx.Err()
	}
	if ce.err != nil {
		w.release(ce)
		return nil, ce.err
	}
	return ce, nil
}

// release drops one reference and stamps the entry for LRU eviction.
func (w *Worker) release(ce *cacheEntry) {
	w.gmu.Lock()
	ce.refs--
	w.seq++
	ce.stamp = w.seq
	w.gmu.Unlock()
}

// evictLocked drops idle groups until the cache fits maxOpenGroups-1
// entries (room for the incoming one). Groups still referenced stay —
// correctness over the bound. Caller holds w.gmu.
func (w *Worker) evictLocked() {
	for len(w.groups) >= maxOpenGroups {
		var victim *cacheEntry
		for _, ce := range w.groups {
			if ce.refs > 0 {
				continue
			}
			select {
			case <-ce.ready:
			default:
				continue // still building
			}
			if victim == nil || ce.stamp < victim.stamp {
				victim = ce
			}
		}
		if victim == nil {
			return
		}
		delete(w.groups, victim.key)
	}
}
