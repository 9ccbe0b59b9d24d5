// Fabric observability: the coordinator's metric instruments (a private
// per-coordinator registry, so many coordinators in one process — the test
// suites build dozens — never share mutable series), the cluster-wide
// /metrics endpoint that merges worker-pushed registry snapshots into the
// coordinator's own.
//
// Worker snapshots are cumulative per worker: the coordinator keeps only
// the latest snapshot per worker name and sums across workers at scrape
// time, so re-pushes never double-count. (In-process loopback workers share
// one process registry; their snapshots alias, which only the synthetic
// loopback topology can produce.)
package dist

import (
	"net/http"
	"sort"

	"serfi/internal/obs"
)

// Client- and worker-side instruments, on the process registry (a worker
// process pushes these to its coordinator like every other obs.Default
// family, so the cluster /metrics shows per-path round-trip volume and how
// often each scenario's fault-free pass ran: once, if affinity held).
var (
	obsWireRequests = obs.Default.CounterVec("serfi_dist_wire_requests_total", "Coordinator protocol round trips issued by this process, by path.", "path")
	obsWireErrors   = obs.Default.CounterVec("serfi_dist_wire_errors_total", "Failed coordinator protocol round trips, by path.", "path")

	obsGroupBuilds       = obs.Default.CounterVec("serfi_dist_group_builds_total", "Scenario groups (image, golden run, checkpoints) built by workers, by scenario.", "scenario")
	obsGroupBuildSeconds = obs.Default.Histogram("serfi_dist_group_build_seconds", "Wall time of one worker-side scenario group build.", obs.ExpBuckets(0.01, 4, 8))
)

// tenantLabel renders a tenant namespace as a metric label value: the
// anonymous namespace scrapes as "default", and rows that cannot be
// attributed to a tenant (retry/done lease answers, stale shards) use
// "none" at the call sites.
func tenantLabel(ns string) string {
	if ns == "" {
		return "default"
	}
	return ns
}

// coordMetrics is one coordinator's instrument bundle on its private
// registry.
type coordMetrics struct {
	reg *obs.Registry

	leaseRequests obs.CounterVec // result: grant | retry | done; tenant
	grants        obs.CounterVec // affinity: own | fresh | steal
	shards        obs.CounterVec // result: accepted | stale | failed; tenant
	shardSeconds  obs.Histogram  // wall clock of accepted shards

	shardsPending obs.Gauge
	shardsLeased  obs.Gauge
	shardsDone    obs.Gauge
	reissued      obs.Gauge
	workersKnown  obs.Gauge
	campaignsDone obs.Gauge
	injected      obs.Gauge

	// Queue-level families: pending depth per tenant and the submission
	// lifecycle tally.
	queueDepth  obs.GaugeVec // pending shards, by tenant
	submissions obs.GaugeVec // queued matrices, by state

	// Engine-level families, fed by the coordinator's fold path. The
	// coordinator is the cluster's orchestration layer — it classifies
	// folded runs and retires campaigns exactly where a local Engine
	// would — so the cluster /metrics covers the engine families even
	// though no campaign.Engine runs in the coordinator process.
	injections obs.CounterVec // by outcome
	campaigns  obs.CounterVec // by status and tenant
}

func newCoordMetrics() *coordMetrics {
	r := obs.NewRegistry()
	return &coordMetrics{
		reg:           r,
		leaseRequests: r.CounterVec("serfi_dist_lease_requests_total", "Lease requests answered, by result and tenant.", "result", "tenant"),
		grants:        r.CounterVec("serfi_dist_grants_total", "Leases granted, by how the shard ranked for its worker: its own group, a group nobody held, or one stolen from another worker.", "affinity"),
		shards:        r.CounterVec("serfi_dist_shards_total", "Shard completions posted, by result and tenant.", "result", "tenant"),
		shardSeconds:  r.Histogram("serfi_dist_shard_seconds", "Worker-reported wall clock of accepted shards.", obs.ExpBuckets(0.01, 4, 8)),
		shardsPending: r.Gauge("serfi_dist_shards_pending", "Shards with no live lease."),
		shardsLeased:  r.Gauge("serfi_dist_shards_leased", "Shards currently leased."),
		shardsDone:    r.Gauge("serfi_dist_shards_done", "Shards folded."),
		reissued:      r.Gauge("serfi_dist_leases_reissued", "Expired leases handed out again."),
		workersKnown:  r.Gauge("serfi_dist_workers", "Workers that have ever asked this coordinator for a lease or posted a completion."),
		campaignsDone: r.Gauge("serfi_dist_campaigns_done", "Campaigns assembled or failed."),
		injected:      r.Gauge("serfi_dist_injected", "Injection results folded (each fault once)."),
		queueDepth:    r.GaugeVec("serfi_dist_queue_depth", "Pending shards awaiting a lease, by tenant.", "tenant"),
		submissions:   r.GaugeVec("serfi_dist_submissions", "Queued campaign matrices, by lifecycle state.", "state"),
		injections:    r.CounterVec("serfi_campaign_injections_total", "Classified injection runs, by outcome.", "outcome"),
		campaigns:     r.CounterVec("serfi_campaign_campaigns_total", "Retired (scenario, domain) campaigns, by status and tenant.", "status", "tenant"),
	}
}

// syncGaugesLocked refreshes the scrape-time gauges from the lease table
// and each submission's status row. Caller holds c.mu.
func (c *Coordinator) syncGaugesLocked() {
	c.cm.shardsPending.Set(float64(c.table.pending))
	c.cm.shardsLeased.Set(float64(c.table.leased))
	c.cm.shardsDone.Set(float64(c.table.done))
	c.cm.reissued.Set(float64(c.table.reissued))
	c.cm.workersKnown.Set(float64(len(c.workers)))
	done, injected := 0, 0
	states := map[string]int{"running": 0, "done": 0, "failed": 0, "cancelled": 0}
	for _, sub := range c.subs {
		ms := c.matrixStatusLocked(sub)
		states[ms.State]++
		done += ms.CampaignsDone
		injected += ms.Injected
	}
	c.cm.campaignsDone.Set(float64(done))
	c.cm.injected.Set(float64(injected))
	for state, n := range states {
		c.cm.submissions.With(state).Set(float64(n))
	}
	// Per-tenant queue state. Gauges for tenants whose queue just drained
	// are pinned to zero rather than dropped: a scrape series that vanishes
	// mid-run reads as a gap, a zero reads as an empty queue.
	depth := c.table.pendingByTenant()
	for _, sub := range c.subs {
		if _, ok := depth[sub.tenant]; !ok {
			depth[sub.tenant] = 0
		}
	}
	for ns, n := range depth {
		c.cm.queueDepth.With(tenantLabel(ns)).Set(float64(n))
	}
}

// handleMetrics serves the cluster-wide Prometheus exposition: the
// coordinator's own families merged with the latest snapshot each worker
// pushed alongside a completed shard.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.reapLocked()
	c.syncGaugesLocked()
	merged := c.cm.reg.Snapshot()
	names := make([]string, 0, len(c.workerFams))
	for name := range c.workerFams {
		names = append(names, name)
	}
	// Deterministic merge order so identical state renders identically.
	sort.Strings(names)
	for _, name := range names {
		merged = obs.MergeFamilies(merged, c.workerFams[name])
	}
	c.mu.Unlock()
	w.Header().Set("Content-Type", obs.ContentType)
	obs.WriteFamilies(w, merged)
}
