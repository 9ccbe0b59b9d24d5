// The queue face of the coordinator: construction, multi-tenant submission,
// drain, listing, cancellation and result fetch. An open queue never tells
// workers the matrix is done — an idle fleet polls for the next submission;
// Drain closes intake, after which the last terminal submission releases
// the fleet.
package dist

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/obs"
)

// SubmitSpec is one campaign matrix entering the queue: the same jobs and
// fault count a local Engine.RunMatrix would take, plus the queue-level
// envelope (tenant namespace, per-submission engine flags, an optional
// caller-chosen ID for idempotent resubmission).
type SubmitSpec struct {
	// ID names the submission. Empty picks the next sequential ID
	// ("m000001", ...), skipping IDs already taken. Submitting an ID that
	// already exists is an error on the Go API; the wire handler answers an
	// identical resubmission idempotently instead, so a client that lost a
	// reply can safely resubmit, and refuses any other.
	ID string
	// Tenant is the namespace the matrix's rows land in ("" = the default
	// namespace; see campaign.ValidTenant for the character set).
	Tenant     string
	Jobs       []campaign.ScenarioJob
	Faults     int
	TraceProp  bool
	RecordRuns bool
}

// NewQueue builds a coordinator: an empty submission queue over the usual
// options. Serve it (or mount its Handler) for as long as the service
// should live, and feed it with Submit or the /v1/submit endpoint. The
// store should be a campaign.TenantStore (e.g. OpenSegmentedStore) so
// named tenants can be scoped.
func NewQueue(opts ...CoordOption) *Coordinator {
	c := &Coordinator{
		shardSize:  DefaultShardSize,
		ttl:        DefaultLeaseTTL,
		now:        time.Now,
		subByID:    make(map[string]*submission),
		workers:    make(map[string]*workerInfo),
		draining:   make(chan struct{}),
		cm:         newCoordMetrics(),
		workerFams: make(map[string][]obs.Family),
		outcomes:   make(map[string]int),
		sse:        newSSEHub(),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.shardSize <= 0 {
		c.shardSize = DefaultShardSize
	}
	if c.ttl <= 0 {
		c.ttl = DefaultLeaseTTL
	}
	c.table = newLeaseTable(nil, c.shardSize, c.ttl, c.now)
	c.t0 = c.now()
	return c
}

// Drain closes intake: Submit and /v1/submit refuse from here on, the
// submissions already queued still run, and once the last of them is
// terminal workers are told Done and Wait returns. Calling it again is a
// no-op.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.isDraining() {
		close(c.draining)
	}
}

// isDraining reports whether Drain was called.
func (c *Coordinator) isDraining() bool {
	select {
	case <-c.draining:
		return true
	default:
		return false
	}
}

// Submit enqueues one matrix and returns its submission ID. Campaigns the
// tenant's store already holds — which must match their fault count and
// seed, the campaign.ValidateResume rule — are answered from it at once
// (the resume path, exactly like the local Engine); the rest become pending
// shards, fair-shared against every other tenant's. Safe to call while the
// queue is serving traffic.
func (c *Coordinator) Submit(spec SubmitSpec) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sub, err := c.submitLocked(spec)
	if err != nil {
		return "", err
	}
	return sub.id, nil
}

// submitLocked is the one intake path: refuse on a draining queue, enqueue,
// then journal (when a journal is attached) before anything is
// acknowledged. Caller holds c.mu.
func (c *Coordinator) submitLocked(spec SubmitSpec) (*submission, error) {
	if c.isDraining() {
		return nil, fmt.Errorf("dist: coordinator is draining (a one-shot serve): this instance accepts no further submissions")
	}
	sub, err := c.enqueue(spec)
	if err != nil || c.journal == nil {
		return sub, err
	}
	err = c.journal.Append(JournalEntry{
		Op:         "submit",
		ID:         sub.id,
		Tenant:     sub.tenant,
		Faults:     sub.faults,
		TraceProp:  sub.traceProp,
		RecordRuns: sub.recordRuns,
		Jobs:       wireFromJobs(sub.jobs),
	})
	if err != nil {
		return nil, journalError{fmt.Errorf("dist: journal submission %s: %w", sub.id, err)}
	}
	return sub, nil
}

// journalError marks a failed journal append: the one submit failure that
// is not the request's fault.
type journalError struct{ error }

// CancelSubmission cancels a queued matrix: every unfinished campaign's
// shards are dropped from the lease table and the submission goes
// terminal. Campaigns already assembled stay in the store — cancellation
// stops future work, it does not undo durable results. Cancelling a
// submission that is already terminal is a no-op; the returned state is
// the submission's state after the call.
func (c *Coordinator) CancelSubmission(id string) (state string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sub := c.subByID[id]
	if sub == nil {
		return "", fmt.Errorf("dist: unknown submission %q", id)
	}
	if sub.campsLeft == 0 {
		return sub.state(), nil
	}
	sub.cancelled = true
	for _, camp := range sub.camps {
		if camp.done {
			continue
		}
		camp.done = true
		c.table.retireCampaign(camp)
		c.cm.campaigns.With("cancelled", tenantLabel(sub.tenant)).Inc()
	}
	sub.campsLeft = 0
	sub.endT = c.now()
	close(sub.done)
	c.table.pruneDone()
	if c.journal != nil {
		if jerr := c.journal.Append(JournalEntry{Op: "cancel", ID: sub.id}); jerr != nil {
			return sub.state(), fmt.Errorf("dist: journal cancel %s: %w", sub.id, jerr)
		}
	}
	return sub.state(), nil
}

// MatrixList snapshots the queue, submission order preserved.
func (c *Coordinator) MatrixList() []MatrixStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]MatrixStatus, 0, len(c.subs))
	for _, sub := range c.subs {
		out = append(out, c.matrixStatusLocked(sub))
	}
	return out
}

// WaitSubmission blocks until the submission goes terminal (done, failed
// or cancelled). It returns immediately for terminal submissions and
// errors for unknown IDs.
func (c *Coordinator) WaitSubmission(id string) error {
	c.mu.Lock()
	sub := c.subByID[id]
	c.mu.Unlock()
	if sub == nil {
		return fmt.Errorf("dist: unknown submission %q", id)
	}
	<-sub.done
	return nil
}

// FetchDB renders one submission's assembled results as a campaign
// database blob (the campaign.WriteDB JSONL encoding), key-sorted like a
// folded local database. Campaigns not yet assembled — still running,
// failed, or dropped by cancellation — are simply absent from the blob.
func (c *Coordinator) FetchDB(id string) (state string, db []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sub := c.subByID[id]
	if sub == nil {
		return "", nil, fmt.Errorf("dist: unknown submission %q", id)
	}
	results := make([]*campaign.Result, 0, len(sub.results))
	for _, r := range sub.results {
		if r != nil {
			results = append(results, r)
		}
	}
	sort.Slice(results, func(i, j int) bool {
		return campaign.Key(results[i].Scenario, results[i].Domain) < campaign.Key(results[j].Scenario, results[j].Domain)
	})
	var buf bytes.Buffer
	if err := campaign.WriteDB(&buf, results); err != nil {
		return "", nil, err
	}
	return sub.state(), buf.Bytes(), nil
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decode(w, r, &req.Proto, &req) {
		return
	}
	jobs, err := jobsFromWire(req.Jobs)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
		return
	}
	spec := SubmitSpec{
		ID:         req.ID,
		Tenant:     req.Tenant,
		Jobs:       jobs,
		Faults:     req.Faults,
		TraceProp:  req.TraceProp,
		RecordRuns: req.RecordRuns,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Idempotent resubmission: a client that lost the reply re-posts the
	// same request (tenant, jobs, fault count, flags) with the same ID and
	// gets the original acknowledgement back. Anything else under a taken ID
	// is refused.
	sub := c.subByID[req.ID]
	if sub == nil {
		sub, err = c.submitLocked(spec)
	} else if sub.tenant != spec.Tenant || sub.faults != spec.Faults || sub.traceProp != spec.TraceProp ||
		sub.recordRuns != spec.RecordRuns || !slices.Equal(sub.jobs, spec.Jobs) {
		writeJSON(w, http.StatusConflict, errorReply{
			Error: fmt.Sprintf("dist: submission %s already exists with another tenant or matrix", req.ID)})
		return
	}
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(journalError)) {
			code = http.StatusInternalServerError // the coordinator's fault: clients retry
		}
		writeJSON(w, code, errorReply{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, SubmitReply{
		Proto: ProtoVersion, ID: sub.id, Campaigns: len(sub.camps),
		Skipped: sub.skipped, Shards: c.shardsOfLocked(sub),
	})
}

// shardsOfLocked counts the shards a submission contributed to the lease
// table. Caller holds c.mu.
func (c *Coordinator) shardsOfLocked(sub *submission) int {
	n := 0
	for _, camp := range sub.camps {
		if camp.skipped {
			continue
		}
		n += len(campaign.ShardRanges(camp.Faults, c.shardSize))
	}
	return n
}

func (c *Coordinator) handleMatrices(w http.ResponseWriter, r *http.Request) {
	var req MatricesRequest
	if !decode(w, r, &req.Proto, &req) {
		return
	}
	if req.ID == "" {
		writeJSON(w, http.StatusOK, MatricesReply{Proto: ProtoVersion, Matrices: c.MatrixList()})
	} else if mr, err := c.Matrix(req.ID); err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
	} else {
		writeJSON(w, http.StatusOK, mr)
	}
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	var req CancelRequest
	if !decode(w, r, &req.Proto, &req) {
		return
	}
	state, err := c.CancelSubmission(req.ID)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, CancelReply{Proto: ProtoVersion, Cancelled: state == "cancelled", State: state})
}

func (c *Coordinator) handleFetch(w http.ResponseWriter, r *http.Request) {
	var req FetchRequest
	if !decode(w, r, &req.Proto, &req) {
		return
	}
	state, db, err := c.FetchDB(req.ID)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, FetchReply{Proto: ProtoVersion, ID: req.ID, State: state, DB: string(db)})
}
