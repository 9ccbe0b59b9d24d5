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
	"strings"
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

// TestWorkerStopsOnRefusal: a worker whose lease the coordinator refuses
// (here every lease answers 400, as a protocol version mismatch does) makes
// one round trip and returns the coordinator's message, rather than
// retrying the refusal until it reports the coordinator unreachable.
func TestWorkerStopsOnRefusal(t *testing.T) {
	const refusal = "protocol version 1, coordinator speaks 2"
	hits := 0
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		writeJSON(w, http.StatusBadRequest, errorReply{Error: refusal})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := NewWorker(NewLoopbackClient(h), Name("w")).Run(ctx)
	if err == nil || !strings.Contains(err.Error(), refusal) || hits != 1 {
		t.Errorf("worker returned %v after %d lease round trips, want the refusal after 1", err, hits)
	}
}

// lossyTransport serves every request through h and loses the reply of the
// first lost requests to path: the handler has run, the client sees a
// transport error.
type lossyTransport struct {
	h     http.Handler
	path  string
	lost  int
	sends int // requests to path
}

func (t *lossyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := loopbackTransport{h: t.h}.RoundTrip(req)
	if req.URL.Path == t.path {
		if t.sends++; t.sends <= t.lost {
			return nil, errors.New("connection reset after the request was sent")
		}
	}
	return resp, err
}

// TestSubmitLostReplyIsNotResent: a submission without an ID whose reply is
// lost after the coordinator queued it is not resent — a resend would be
// refused as a duplicate of itself, or queue it twice — and the error says
// it may have been accepted. One with an ID is resent and acknowledged.
func TestSubmitLostReplyIsNotResent(t *testing.T) {
	ctx := context.Background()
	coord := NewQueue(WithStore(segStore(t)))
	lossy := &lossyTransport{h: coord.Handler(), path: PathSubmit, lost: 1}
	cl := newClient(&Client{base: "http://loopback", hc: &http.Client{Transport: lossy}})
	var delays []time.Duration
	cl.sleep = stubSleep(&delays)

	_, err := cl.Submit(ctx, SubmitRequest{Jobs: WireJobs(compatJobs()[:1]), Faults: compatFaults})
	if err == nil || !strings.Contains(err.Error(), "may have been accepted") || !strings.Contains(err.Error(), "serfi ls -join") {
		t.Errorf("Submit with a lost reply = %v, want an error saying it may have been accepted", err)
	}
	if lossy.sends != 1 {
		t.Errorf("an ID-less submission was sent %d times", lossy.sends)
	}
	if ms := coord.MatrixList(); len(ms) != 1 || ms[0].ID != "m000001" {
		t.Errorf("queue = %+v, want the one submission m000001", ms)
	}

	lossy.sends = 0
	reply, err := cl.Submit(ctx, SubmitRequest{ID: "x1", Tenant: "bob", Jobs: WireJobs(compatJobs()[:1]), Faults: compatFaults})
	if err != nil || reply.ID != "x1" || lossy.sends != 2 {
		t.Errorf("Submit x1 with a lost reply = %+v, %v after %d sends, want the resend acknowledged", reply, err, lossy.sends)
	}
	if n := len(coord.MatrixList()); n != 2 {
		t.Errorf("queue holds %d submissions, want 2", n)
	}
}
