package dist

// Client retry pins: transient failures (5xx, transport errors) retry with
// jittered exponential backoff under a bounded budget; 4xx rejections
// never retry. And Watch reads one submission per poll.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"serfi/internal/campaign"
)

// flakyHandler answers 503 for the first fail requests, then delegates.
type flakyHandler struct {
	fail int
	next http.Handler
	hits int
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.hits++
	if h.hits <= h.fail {
		writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: "coordinator warming up"})
		return
	}
	h.next.ServeHTTP(w, r)
}

// stubSleep replaces the client's backoff sleep, recording requested
// delays instead of waiting.
func stubSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func TestClientRetriesTransientErrors(t *testing.T) {
	coord, err := NewCoordinator(compatJobs()[:1], compatFaults)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyHandler{fail: 3, next: coord.Handler()}
	cl := NewLoopbackClient(flaky)
	var delays []time.Duration
	cl.sleep = stubSleep(&delays)

	reply, err := cl.Lease(context.Background(), "w0")
	if err != nil {
		t.Fatalf("lease through flaky coordinator: %v", err)
	}
	if reply.Lease == nil {
		t.Fatal("no lease granted after retries")
	}
	if flaky.hits != 4 {
		t.Errorf("round trips = %d, want 4 (3 failures + success)", flaky.hits)
	}
	if len(delays) != 3 {
		t.Fatalf("backoff sleeps = %d, want 3", len(delays))
	}
	// Exponential with ±50% jitter: attempt n sleeps in [0.5, 1.5) × 50ms·2ⁿ.
	base := 50 * time.Millisecond
	for i, d := range delays {
		lo, hi := base/2, base+base/2
		if d < lo || d >= hi {
			t.Errorf("backoff %d = %v, want in [%v, %v)", i, d, lo, hi)
		}
		base *= 2
	}
}

func TestClientRetryBudgetExhausted(t *testing.T) {
	flaky := &flakyHandler{fail: 1 << 30, next: http.NotFoundHandler()}
	cl := NewLoopbackClient(flaky)
	cl.retries = 2
	var delays []time.Duration
	cl.sleep = stubSleep(&delays)

	_, err := cl.Lease(context.Background(), "w0")
	if err == nil {
		t.Fatal("permanently failing coordinator did not error")
	}
	if flaky.hits != 3 {
		t.Errorf("round trips = %d, want 3 (budget of 2 retries)", flaky.hits)
	}
	// The budget-exhausting error still carries the coordinator's body.
	var re *retryableError
	if !errors.As(err, &re) {
		t.Errorf("final error lost its transient classification: %v", err)
	}
}

func TestClientNeverRetries4xx(t *testing.T) {
	coord, err := NewCoordinator(compatJobs()[:1], compatFaults)
	if err != nil {
		t.Fatal(err)
	}
	counter := &flakyHandler{fail: 0, next: coord.Handler()}
	cl := NewLoopbackClient(counter)
	var delays []time.Duration
	cl.sleep = stubSleep(&delays)

	// A wrong-proto request is a 400: rejected once, never resent.
	var reply LeaseReply
	err = cl.post(context.Background(), PathLease, LeaseRequest{Proto: 99, Worker: "old"}, &reply)
	if err == nil {
		t.Fatal("wrong-proto request accepted")
	}
	if counter.hits != 1 {
		t.Errorf("4xx retried: %d round trips", counter.hits)
	}
	if len(delays) != 0 {
		t.Errorf("4xx slept %v before failing", delays)
	}
}

// TestClientWatch: Watch reports each changed row once, returns the
// terminal one, and errors on a submission the queue does not hold.
func TestClientWatch(t *testing.T) {
	coord, err := NewCoordinator(compatJobs()[:1], compatFaults)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewLoopbackClient(coord.Handler())
	polls := 0
	cl.sleep = func(ctx context.Context, d time.Duration) error {
		if polls++; polls == 2 { // two identical "running" rows, then the change
			_, err := coord.CancelSubmission("m000001")
			return err
		}
		return nil
	}
	var seen []string
	ms, err := cl.Watch(context.Background(), "m000001", func(ms MatrixStatus) { seen = append(seen, ms.State) })
	if err != nil || ms.State != "cancelled" {
		t.Fatalf("Watch = %+v, %v", ms, err)
	}
	if len(seen) != 2 || seen[0] != "running" || seen[1] != "cancelled" {
		t.Errorf("onChange saw %v, want [running cancelled]", seen)
	}
	if _, err := cl.Watch(context.Background(), "m000009", func(MatrixStatus) {}); err == nil {
		t.Error("watching an unknown submission did not error")
	}
}

// requestLog records the path and submission ID of every request it passes
// on.
type requestLog struct {
	next http.Handler
	reqs []string
}

func (h *requestLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	var req MatricesRequest
	json.Unmarshal(body, &req)
	h.reqs = append(h.reqs, r.URL.Path+" "+req.ID)
	r.Body = io.NopCloser(bytes.NewReader(body))
	h.next.ServeHTTP(w, r)
}

// TestClientWatchPollsOneSubmission: every Watch poll is one /v1/matrices
// request for the watched ID — not a listing of the whole queue.
func TestClientWatchPollsOneSubmission(t *testing.T) {
	coord := NewQueue()
	var ids []string
	for _, jobs := range [][]campaign.ScenarioJob{compatJobs()[:1], compatJobs()[3:]} {
		id, err := coord.Submit(SubmitSpec{Jobs: jobs, Faults: compatFaults})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	log := &requestLog{next: coord.Handler()}
	cl := NewLoopbackClient(log)
	polls := 0
	cl.sleep = func(ctx context.Context, d time.Duration) error {
		if polls++; polls == 3 {
			_, err := coord.CancelSubmission(ids[1])
			return err
		}
		return nil
	}
	ms, err := cl.Watch(context.Background(), ids[1], func(MatrixStatus) {})
	if err != nil || ms.ID != ids[1] || ms.State != "cancelled" {
		t.Fatalf("Watch = %+v, %v", ms, err)
	}
	if len(log.reqs) != polls+1 {
		t.Errorf("%d requests for %d polls and the terminal read: %v", len(log.reqs), polls, log.reqs)
	}
	for _, req := range log.reqs {
		if req != PathMatrices+" "+ids[1] {
			t.Errorf("Watch sent %q, want only %s for %s", req, PathMatrices, ids[1])
		}
	}
}
