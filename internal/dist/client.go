// The worker side of the wire: a small JSON POST client with two
// transports — real HTTP for cluster deployments, and a loopback transport
// that drives a coordinator's http.Handler in-process through the full
// request/response marshal path (no sockets), which is what the
// golden-compat tests and the benchmark harness use.
//
// Transient failures (transport errors, 5xx answers) retry with jittered
// exponential backoff inside post, so callers see one round trip per
// logical request. 4xx answers never retry: the coordinator rejected the
// request's content (bad protocol version, unknown submission, invalid
// tenant) and resending the same bytes cannot help.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// maxRetries is the retry budget per logical request: the first attempt
// plus this many re-sends on transient failure.
const maxRetries = 4

// Client speaks the coordinator protocol. Construct with NewClient (HTTP)
// or NewLoopbackClient (in-process). Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	// retries is maxRetries and sleep is the package's sleep; fields so
	// tests can shrink the budget and stub the wait.
	retries int
	sleep   func(context.Context, time.Duration) error

	mu  sync.Mutex
	rng *rand.Rand
}

// NewClient returns a client for a coordinator at addr ("host:8340" or a
// full "http://host:8340" base URL).
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return newClient(&Client{
		base: strings.TrimRight(addr, "/"),
		hc:   &http.Client{Timeout: 2 * time.Minute},
	})
}

// NewLoopbackClient returns a client that serves every request directly
// from h — the coordinator's Handler — in the calling goroutine. The full
// wire path (routing, JSON encode/decode, protocol version checks, status
// codes) is exercised; only the TCP socket is elided.
func NewLoopbackClient(h http.Handler) *Client {
	return newClient(&Client{
		base: "http://loopback",
		hc:   &http.Client{Transport: loopbackTransport{h: h}},
	})
}

func newClient(c *Client) *Client {
	c.retries = maxRetries
	c.sleep = sleep
	c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	return c
}

// sleep waits for d or until ctx cancels.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// backoff returns the jittered delay before retry attempt n (0-based):
// 50ms doubling per attempt, ±50% uniform jitter, capped near 2s. The
// jitter decorrelates a fleet of workers hammering a briefly unavailable
// coordinator.
func (c *Client) backoff(attempt int) time.Duration {
	base := 50 * time.Millisecond << attempt
	if base > 2*time.Second {
		base = 2 * time.Second
	}
	c.mu.Lock()
	f := 0.5 + c.rng.Float64() // uniform in [0.5, 1.5)
	c.mu.Unlock()
	return time.Duration(float64(base) * f)
}

// post sends one JSON request and decodes the JSON reply into out,
// retrying transient failures under the client's retry budget. Non-2xx
// answers surface the coordinator's error body.
func (c *Client) post(ctx context.Context, path string, in, out any) (err error) {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		err = c.postOnce(ctx, path, body, out)
		if err == nil {
			return nil
		}
		var re *retryableError
		if !errors.As(err, &re) || attempt >= c.retries {
			return err
		}
		if serr := c.sleep(ctx, c.backoff(attempt)); serr != nil {
			return err // context cancelled mid-backoff: report the wire error
		}
	}
}

// retryableError wraps a transient failure: a transport error or a 5xx
// answer. Everything else (4xx, malformed replies) fails immediately.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// postOnce performs a single round trip.
func (c *Client) postOnce(ctx context.Context, path string, body []byte, out any) (err error) {
	obsWireRequests.With(path).Inc()
	defer func() {
		if err != nil {
			obsWireErrors.With(path).Inc()
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return &retryableError{err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return &retryableError{err}
	}
	if resp.StatusCode != http.StatusOK {
		werr := fmt.Errorf("dist: %s: HTTP %d", path, resp.StatusCode)
		var er errorReply
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			werr = fmt.Errorf("dist: %s: %s", path, er.Error)
		}
		if resp.StatusCode >= 500 {
			return &retryableError{werr}
		}
		return werr
	}
	return json.Unmarshal(data, out)
}

// Lease asks the coordinator for one shard.
func (c *Client) Lease(ctx context.Context, worker string) (LeaseReply, error) {
	return c.LeaseCapacity(ctx, worker, 0)
}

// LeaseCapacity asks for one shard while advertising the worker's parallel
// slot count (0 leaves the coordinator's view unchanged).
func (c *Client) LeaseCapacity(ctx context.Context, worker string, capacity int) (LeaseReply, error) {
	var reply LeaseReply
	err := c.post(ctx, PathLease, LeaseRequest{Proto: ProtoVersion, Worker: worker, Capacity: capacity}, &reply)
	return reply, err
}

// Complete posts one executed shard.
func (c *Client) Complete(ctx context.Context, req CompleteRequest) (CompleteReply, error) {
	req.Proto = ProtoVersion
	var reply CompleteReply
	err := c.post(ctx, PathComplete, req, &reply)
	return reply, err
}

// Event posts one progress beat, which the coordinator acknowledges and
// ignores (a shard's completion is its progress). Kept for bench/.
func (c *Client) Event(ctx context.Context, req EventRequest) error {
	req.Proto = ProtoVersion
	var reply EventReply
	return c.post(ctx, PathEvents, req, &reply)
}

// Submit enqueues one campaign matrix on a queue coordinator.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (SubmitReply, error) {
	req.Proto = ProtoVersion
	var reply SubmitReply
	err := c.post(ctx, PathSubmit, req, &reply)
	return reply, err
}

// Matrices lists the queue's submissions, submission order preserved.
func (c *Client) Matrices(ctx context.Context) (MatricesReply, error) {
	var reply MatricesReply
	err := c.post(ctx, PathMatrices, MatricesRequest{Proto: ProtoVersion}, &reply)
	return reply, err
}

// Matrix fetches one submission: its queue row and its campaign rows. A
// reply that is not exactly that row — a coordinator that ignores the ID
// lists the whole queue — is an error, not a misread.
func (c *Client) Matrix(ctx context.Context, id string) (MatricesReply, error) {
	var reply MatricesReply
	if err := c.post(ctx, PathMatrices, MatricesRequest{Proto: ProtoVersion, ID: id}, &reply); err != nil {
		return reply, err
	}
	if len(reply.Matrices) != 1 || reply.Matrices[0].ID != id {
		return MatricesReply{}, fmt.Errorf("dist: %s: asked for submission %s, got %d rows", PathMatrices, id, len(reply.Matrices))
	}
	return reply, nil
}

// watchInterval is how often Watch polls the submission.
const watchInterval = 2 * time.Second

// Watch polls submission id until it goes terminal and returns its final
// row. onChange sees the first row and every later one that differs in
// anything but elapsed time. A cancelled ctx returns the last row seen with
// ctx.Err().
func (c *Client) Watch(ctx context.Context, id string, onChange func(MatrixStatus)) (MatrixStatus, error) {
	var last MatrixStatus
	for {
		mr, err := c.Matrix(ctx, id)
		if err != nil {
			return last, err
		}
		seen := last
		last = mr.Matrices[0]
		seen.ElapsedSec = last.ElapsedSec
		if last != seen {
			onChange(last)
		}
		if last.State != "running" {
			return last, nil
		}
		if err := c.sleep(ctx, watchInterval); err != nil {
			return last, err
		}
	}
}

// String is the progress line the watching CLIs print.
func (ms MatrixStatus) String() string {
	return fmt.Sprintf("%s %s: campaigns %d/%d, injections %d/%d",
		ms.ID, ms.State, ms.CampaignsDone, ms.Campaigns, ms.Injected, ms.Injections)
}

// CancelMatrix cancels one queued submission.
func (c *Client) CancelMatrix(ctx context.Context, id string) (CancelReply, error) {
	var reply CancelReply
	err := c.post(ctx, PathCancel, CancelRequest{Proto: ProtoVersion, ID: id}, &reply)
	return reply, err
}

// Fetch downloads one submission's assembled results as a campaign
// database blob.
func (c *Client) Fetch(ctx context.Context, id string) (FetchReply, error) {
	var reply FetchReply
	err := c.post(ctx, PathFetch, FetchRequest{Proto: ProtoVersion, ID: id}, &reply)
	return reply, err
}

// Status fetches the coordinator's aggregate state.
func (c *Client) Status(ctx context.Context) (StatusReply, error) {
	obsWireRequests.With(PathStatus).Inc()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathStatus, nil)
	if err != nil {
		return StatusReply{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		obsWireErrors.With(PathStatus).Inc()
		return StatusReply{}, err
	}
	defer resp.Body.Close()
	var st StatusReply
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("dist: %s: HTTP %d", PathStatus, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// loopbackTransport serves requests synchronously from an http.Handler.
type loopbackTransport struct {
	h http.Handler
}

func (t loopbackTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := &responseRecorder{header: make(http.Header), code: http.StatusOK}
	t.h.ServeHTTP(rec, req)
	return &http.Response{
		StatusCode: rec.code,
		Header:     rec.header,
		Body:       io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		Request:    req,
	}, nil
}

// responseRecorder is the minimal in-memory http.ResponseWriter behind the
// loopback transport (httptest.ResponseRecorder without the test-only
// dependencies).
type responseRecorder struct {
	header http.Header
	body   bytes.Buffer
	code   int
	wrote  bool
}

func (r *responseRecorder) Header() http.Header { return r.header }

func (r *responseRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
}

func (r *responseRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.body.Write(p)
}
