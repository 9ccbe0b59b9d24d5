// Package dist is the distributed campaign fabric: a coordinator/worker
// subsystem that shards a campaign matrix across processes and machines.
//
// The coordinator takes the same []campaign.ScenarioJob the local Engine
// does, splits each campaign's fault list into lease-based shards (a shard
// is a campaign key plus a fault index range plus the campaign's seed),
// serves the shards over a small versioned HTTP+JSON wire protocol, re-issues
// leases whose deadline passes (so a killed worker loses at most the shards
// it held), and folds completed shard results into the canonical
// campaign.Store and event stream. A worker pulls leases, rebuilds the
// scenario locally (image, golden reference, checkpoints, fault list — all
// deterministic functions of the scenario and seed), injects exactly the
// leased index range through the checkpointed fi path, and posts the results
// back.
//
// Determinism is the contract: because fault domains freeze their draw
// orders (internal/fault) and the seed convention is centralized
// (campaign.Engine.JobsFor), a sharded distributed run is bit-identical —
// same JSONL records, same outcome counts — to a single-process
// Engine.RunMatrix at the same seed, for any worker count and any shard
// size. The golden-compat tests in this package pin that equivalence.
package dist

import (
	"serfi/internal/campaign"
	"serfi/internal/fi"
	"serfi/internal/obs"
	"serfi/internal/prop"
)

// ProtoVersion is the wire protocol version. Every request carries it and
// the coordinator rejects mismatches up front, so a stale worker fails
// loudly instead of corrupting a campaign. v2 added the submission queue
// (/v1/submit, /v1/matrices, /v1/cancel, /v1/fetch), tenant namespaces and
// worker capacity advertisement; v1 clients are rejected with a clear
// version error.
const ProtoVersion = 2

// Wire endpoints. All are POST JSON except PathStatus, which also answers
// GET (the status page reads it).
const (
	PathLease    = "/v1/lease"
	PathComplete = "/v1/complete"
	PathEvents   = "/v1/events"
	PathStatus   = "/v1/status"
	PathSubmit   = "/v1/submit"
	PathMatrices = "/v1/matrices"
	PathCancel   = "/v1/cancel"
	PathFetch    = "/v1/fetch"
)

// LeaseRequest asks the coordinator for one shard.
type LeaseRequest struct {
	Proto  int    `json:"proto"`
	Worker string `json:"worker"` // stable worker name, for status/telemetry
	// Capacity advertises how many leases the worker executes concurrently
	// (its parallel slot count), so the status page and scheduler can see
	// fleet capacity. 0 means unreported (a v2 client that never set it).
	Capacity int `json:"capacity,omitempty"`
}

// LeaseReply answers a lease request: exactly one of Lease set (work to
// do), Done true (the whole matrix is finished — the worker may exit), or
// RetryMs > 0 (every remaining shard is currently leased; ask again later).
type LeaseReply struct {
	Proto   int    `json:"proto"`
	Done    bool   `json:"done,omitempty"`
	RetryMs int    `json:"retry_ms,omitempty"`
	Lease   *Lease `json:"lease,omitempty"`
}

// Lease is one shard grant: the campaign identity (key, scenario, domain,
// seed, total fault count — everything a worker needs to rebuild the exact
// fault list) plus the half-open index range [Lo, Hi) this lease covers and
// the TTL after which the coordinator may re-issue it.
type Lease struct {
	ID       int64  `json:"id"`
	Key      string `json:"key"`      // campaign.Key (scenario ID, domain-qualified)
	Scenario string `json:"scenario"` // npb scenario ID, e.g. "armv8/IS/SER-1"
	Domain   string `json:"domain"`   // fault.Model spelling, e.g. "reg"
	Seed     int64  `json:"seed"`     // fault-list seed of the campaign
	Faults   int    `json:"faults"`   // total campaign fault count (list length)
	Lo       int    `json:"lo"`
	Hi       int    `json:"hi"`
	TTLMs    int    `json:"ttl_ms"`
	// TraceProp asks the worker to propagation-trace every unmasked run of
	// the shard and ship the traces back in CompleteRequest.Traces.
	TraceProp bool `json:"trace_prop,omitempty"`
}

// CompleteRequest posts one executed shard back. Runs holds the per-fault
// results of exactly [Lo, Hi) in index order. The scenario-level metadata
// (golden summary, profile features, API-call count) is a deterministic
// function of the scenario, so every shard of a campaign reports identical
// values; the coordinator takes them from whichever shard completes first.
// Err, when non-empty, reports that the worker could not execute the shard
// (the scenario failed to build or the golden run failed) — the coordinator
// fails the whole campaign, exactly like a local Engine run would.
type CompleteRequest struct {
	Proto   int    `json:"proto"`
	Worker  string `json:"worker"`
	LeaseID int64  `json:"lease_id"`
	Key     string `json:"key"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	Err     string `json:"err,omitempty"`

	Runs []fi.Result `json:"runs,omitempty"`
	// Traces, present when the lease asked for propagation tracing, is
	// parallel to Runs: Traces[i] is the trace of Runs[i], null for masked
	// runs. The coordinator folds them by fault index, so assembly order
	// never affects the result.
	Traces   []*prop.Trace          `json:"traces,omitempty"`
	Golden   campaign.GoldenSummary `json:"golden"`
	Features map[string]float64     `json:"features,omitempty"`
	APICalls uint64                 `json:"api_calls"`

	// Shard telemetry, folded into the campaign Result's observability
	// fields and the status page.
	SimulatedInstr uint64  `json:"simulated_instr,omitempty"`
	FromResetInstr uint64  `json:"from_reset_instr,omitempty"`
	PrunedRuns     int     `json:"pruned_runs,omitempty"`
	WallSec        float64 `json:"wall_sec,omitempty"`

	// Metrics is a cumulative snapshot of the worker process's metric
	// registry, piggybacked on each completion so the coordinator can serve
	// cluster-wide /metrics without scraping workers. Cumulative means the
	// coordinator keeps only the latest snapshot per worker name — summing
	// successive pushes from one worker would double-count.
	Metrics []obs.Family `json:"metrics,omitempty"`
}

// CompleteReply acknowledges a shard. Stale means the lease was no longer
// current — it expired and the shard was re-issued (or already completed by
// another worker); the results were discarded, which is harmless because a
// re-executed shard produces bit-identical results. Done piggybacks the
// matrix-finished signal so the worker that folds the last shard exits
// without another lease round trip (the coordinator may be gone by then).
type CompleteReply struct {
	Proto    int  `json:"proto"`
	Accepted bool `json:"accepted"`
	Stale    bool `json:"stale,omitempty"`
	Done     bool `json:"done,omitempty"`
}

// EventRequest is a progress beat for a range inside a leased shard. The
// coordinator acknowledges it and ignores it: a shard's completion is its
// progress. Kept for bench/, which still posts one.
type EventRequest struct {
	Proto    int     `json:"proto"`
	Worker   string  `json:"worker"`
	LeaseID  int64   `json:"lease_id"`
	Key      string  `json:"key"`
	Lo       int     `json:"lo"` // batch range within the shard
	Hi       int     `json:"hi"`
	WallSec  float64 `json:"wall_sec"`
	Scenario string  `json:"scenario"`
	Domain   string  `json:"domain"`
}

// EventReply acknowledges a progress beat; ignored, kept for bench/.
type EventReply struct {
	Proto int `json:"proto"`
}

// StatusReply is the coordinator's aggregate state: campaign and shard
// progress, lease health, the outcome tally and per-worker activity — no
// list that grows with the queue's history (a submission's rows are asked
// for by ID on /v1/matrices). Workers are sorted by name, so status output
// is stable across polls.
type StatusReply struct {
	Proto         int  `json:"proto"`
	Done          bool `json:"done"` // drained: told to drain, every submission terminal
	Campaigns     int  `json:"campaigns"`
	CampaignsDone int  `json:"campaigns_done"`
	Skipped       int  `json:"skipped"` // answered from the store at startup
	Failed        int  `json:"failed"`
	Shards        int  `json:"shards"`
	ShardsDone    int  `json:"shards_done"`
	ShardsLeased  int  `json:"shards_leased"`
	ShardsPending int  `json:"shards_pending"` // no live lease (pending+leased+done = shards)
	Reissued      int  `json:"reissued"`       // expired leases handed out again
	// Injected counts injection results folded into campaign state —
	// every fault exactly once, re-issued shards never twice. It equals a
	// Collector's count by construction: each accepted completion emits
	// one JobDone carrying the same fold count. Injections is the matrix
	// total over campaigns this coordinator actually runs (store-answered
	// campaigns appear in Skipped, not here).
	Injected   int     `json:"injected"`
	Injections int     `json:"injections"`
	ElapsedSec float64 `json:"elapsed_sec"`

	// Outcomes tallies folded injection results by outcome taxonomy class
	// (vanished, application hang, silent data corruption, ...), matrix-wide.
	Outcomes map[string]int `json:"outcomes,omitempty"`

	Workers []WorkerStatus `json:"workers,omitempty"`
}

// CampaignStatus is one campaign's row in a per-submission matrices reply,
// sorted by key. Injected is progress: the results of completed shards
// folded so far.
type CampaignStatus struct {
	Key      string `json:"key"`
	Tenant   string `json:"tenant,omitempty"` // owning submission's namespace
	Matrix   string `json:"matrix,omitempty"` // owning submission ID
	Faults   int    `json:"faults"`
	Injected int    `json:"injected"`
	Done     bool   `json:"done"`
	Skipped  bool   `json:"skipped,omitempty"`
	Failed   bool   `json:"failed,omitempty"`
	// Vulnerability snapshot over the results folded so far: unmasked
	// outcomes out of Sampled classified faults, with the 95% Wilson
	// interval around the rate. Zero-valued until the first shard folds.
	Unmasked int     `json:"unmasked,omitempty"`
	Sampled  int     `json:"sampled,omitempty"`
	CILo     float64 `json:"ci_lo,omitempty"`
	CIHi     float64 `json:"ci_hi,omitempty"`
}

// WorkerStatus is one worker's row on the status page.
type WorkerStatus struct {
	Name        string  `json:"name"`
	Live        int     `json:"live"`               // leases currently held
	Shards      int     `json:"shards"`             // shards completed
	Runs        int     `json:"runs"`               // faults classified
	Capacity    int     `json:"capacity,omitempty"` // advertised parallel slots
	LastSeenSec float64 `json:"last_seen_sec"`      // since its last lease request or completion
}

// WireJob is one campaign job of a submission on the wire: the scenario ID,
// the domain spelling ("" for the register domain) and the campaign's
// fault-list seed — exactly the identity triple of campaign.ScenarioJob.
type WireJob struct {
	Scenario string `json:"s"`
	Domain   string `json:"d,omitempty"`
	Seed     int64  `json:"seed"`
}

// SubmitRequest enqueues one campaign matrix (refused once the coordinator
// is draining).
// ID is optional: a client-generated submission ID makes resubmission after
// a lost reply idempotent (the coordinator returns the existing submission
// instead of enqueueing a duplicate); empty lets the coordinator assign one.
type SubmitRequest struct {
	Proto     int       `json:"proto"`
	ID        string    `json:"id,omitempty"`
	Tenant    string    `json:"tenant,omitempty"`
	Jobs      []WireJob `json:"jobs"`
	Faults    int       `json:"faults"`
	TraceProp bool      `json:"trace_prop,omitempty"`
	// Ignored: every campaign records its runs; kept for bench/ (ROADMAP item 8).
	RecordRuns bool `json:"record_runs,omitempty"`
}

// SubmitReply acknowledges a submission: its (possibly assigned) ID and how
// many of its campaigns were answered from the store immediately.
type SubmitReply struct {
	Proto     int    `json:"proto"`
	ID        string `json:"id"`
	Campaigns int    `json:"campaigns"`
	Skipped   int    `json:"skipped"` // answered from the store, no shards
	Shards    int    `json:"shards"`
}

// MatricesRequest asks for the submission queue, or with ID for one
// submission and its campaign rows.
type MatricesRequest struct {
	Proto int    `json:"proto"`
	ID    string `json:"id,omitempty"`
}

// MatricesReply lists the submission queue, submission order preserved. To a
// request with an ID it holds that submission's row alone, and CampaignList
// its campaigns.
type MatricesReply struct {
	Proto        int              `json:"proto"`
	Matrices     []MatrixStatus   `json:"matrices,omitempty"`
	CampaignList []CampaignStatus `json:"campaign_list,omitempty"`
}

// MatrixStatus is one submission's row: identity, lifecycle state and
// progress.
type MatrixStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	// State is "running" (shards pending or in flight), "done" (every
	// campaign assembled), "failed" (at least one campaign failed; the rest
	// completed) or "cancelled".
	State         string  `json:"state"`
	Campaigns     int     `json:"campaigns"`
	CampaignsDone int     `json:"campaigns_done"`
	Skipped       int     `json:"skipped"`
	Failed        int     `json:"failed"`
	Injections    int     `json:"injections"` // total faults across live campaigns
	Injected      int     `json:"injected"`   // results folded so far
	ElapsedSec    float64 `json:"elapsed_sec"`
}

// CancelRequest withdraws one submission: pending shards are dropped,
// in-flight shards complete harmlessly as stale, campaigns already
// assembled stay in the store.
type CancelRequest struct {
	Proto int    `json:"proto"`
	ID    string `json:"id"`
}

// CancelReply acknowledges a cancellation. Cancelled is false when the
// submission had already finished (its terminal state is in State).
type CancelReply struct {
	Proto     int    `json:"proto"`
	Cancelled bool   `json:"cancelled"`
	State     string `json:"state"`
}

// FetchRequest downloads one finished submission's folded database.
type FetchRequest struct {
	Proto int    `json:"proto"`
	ID    string `json:"id"`
}

// FetchReply carries the submission's campaign records as a JSONL blob —
// the exact canonical rows (campaign.WriteDB bytes), so a fetched database
// is byte-identical to a local Engine run at the same seed after key sort.
type FetchReply struct {
	Proto int    `json:"proto"`
	ID    string `json:"id"`
	State string `json:"state"`
	DB    string `json:"db"`
}

// errorReply is the JSON body of every non-200 protocol answer.
type errorReply struct {
	Error string `json:"error"`
}
