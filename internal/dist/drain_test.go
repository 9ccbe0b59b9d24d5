package dist

// Pins of the one lifecycle a coordinator has — an open queue, then a
// draining one — and of the two ways a completion or a lease must not be
// able to wedge it: an outcome code outside the taxonomy, and a shard whose
// every holder goes silent.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/fi"
)

// TestCancelledOneShotReturns: a one-entry queue whose entry is withdrawn
// over the wire tells workers Done and returns from Wait with the
// cancellation as the cause.
func TestCancelledOneShotReturns(t *testing.T) {
	coord, err := NewCoordinator(compatJobs()[:2], compatFaults, ShardSize(2))
	if err != nil {
		t.Fatal(err)
	}
	cl := NewLoopbackClient(coord.Handler())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if reply, err := cl.CancelMatrix(ctx, "m000001"); err != nil || !reply.Cancelled {
		t.Fatalf("cancel = %+v, %v", reply, err)
	}
	if r, err := cl.Lease(ctx, "w"); err != nil || !r.Done {
		t.Fatalf("lease after cancel = %+v, %v (want Done)", r, err)
	}
	results, err := coord.Wait(ctx)
	if !errors.Is(err, ErrCancelled) || !strings.Contains(err.Error(), "m000001") {
		t.Fatalf("Wait = %v, want submission m000001 cancelled", err)
	}
	for i, r := range results {
		if r != nil {
			t.Errorf("cancelled campaign %d produced a result", i)
		}
	}
	if ms := coord.MatrixList(); len(ms) != 1 || ms[0].State != "cancelled" {
		t.Errorf("matrix list = %+v", ms)
	}
}

// TestDrainTellsWorkersDone: an open queue never sends Done — neither empty
// nor with every submission terminal — and a drained one refuses intake,
// finishes what it holds and then releases the fleet, with each tenant's
// rows byte-equal to the local engine's.
func TestDrainTellsWorkersDone(t *testing.T) {
	jobs := compatJobs()
	m1, m2 := jobs[:2], jobs[2:]
	root := t.TempDir() + "/segs"
	st, err := campaign.OpenSegmentedStore(root)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewQueue(ShardSize(2), WithStore(st))
	cl := NewLoopbackClient(coord.Handler())
	ctx := context.Background()
	idle := func(when string) {
		t.Helper()
		if r, err := cl.Lease(ctx, "probe"); err != nil || r.Done || r.Lease != nil || r.RetryMs <= 0 {
			t.Fatalf("%s: idle lease = %+v, %v (want a retry hint)", when, r, err)
		}
	}
	idle("empty queue")

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = NewWorker(cl, Name(fmt.Sprintf("dw%d", i))).Run(ctx)
		}(i)
	}
	first, err := coord.Submit(SubmitSpec{Tenant: "alice", Jobs: m1, Faults: compatFaults})
	if err != nil {
		t.Fatal(err)
	}
	waitSubmissions(t, coord, first)
	idle("every submission terminal, not drained")

	var ids []string
	for _, spec := range []SubmitSpec{{Tenant: "alice", Jobs: m2}, {Tenant: "bob", Jobs: m1}} {
		spec.Faults = compatFaults
		id, err := coord.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	coord.Drain()
	if _, err := coord.Submit(SubmitSpec{Tenant: "bob", Jobs: m2, Faults: compatFaults}); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Errorf("draining queue accepted a submission: %v", err)
	}
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // the workers leave on Done; nobody drained them
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	for _, ms := range coord.MatrixList() {
		if ms.State != "done" {
			t.Errorf("matrix %+v not done", ms)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := tenantRecordLines(t, root, "alice"), engineReference(t, m1, m2); !reflect.DeepEqual(got, want) {
		t.Errorf("alice rows differ from the engine's:\n queue: %v\n ref:   %v", got, want)
	}
	if got, want := tenantRecordLines(t, root, "bob"), engineReference(t, m1); !reflect.DeepEqual(got, want) {
		t.Errorf("bob rows differ from the engine's:\n queue: %v\n ref:   %v", got, want)
	}
}

// TestDashFeedEncoding pins the feed's bytes per event kind, that the
// terminal event reaches late subscribers too, and that with nobody
// subscribed publishing marshals (allocates) nothing.
func TestDashFeedEncoding(t *testing.T) {
	job := campaign.JobDone{Scenario: compatJobs()[1].Scenario, Domain: compatJobs()[1].Domain,
		Lo: 2, Hi: 4, WallSec: 0.5, Done: 4, Total: 6}
	boom := campaign.ScenarioDone{Key: "k", Err: fmt.Errorf("k: %w", errors.New("boom"))}
	h := newSSEHub()
	for _, ev := range []campaign.Event{job, boom} {
		if n := testing.AllocsPerRun(100, func() { h.publish(ev) }); n != 0 {
			t.Errorf("publish(%T) with no subscriber allocates %v times", ev, n)
		}
	}
	ch := h.subscribe()
	for _, tc := range []struct {
		ev   campaign.Event
		want string
	}{
		{job, `{"type":"job","key":"armv8/IS/SER-1#mem","lo":2,"hi":4,"done":4,"total":6,"wall_sec":0.5}`},
		{campaign.ScenarioDone{Key: "k", Result: &campaign.Result{Faults: 6}}, `{"type":"scenario","key":"k","done":6,"total":6}`},
		{boom, `{"type":"scenario","key":"k","err":"boom","failed":true}`},
	} {
		h.publish(tc.ev)
		if got := string(<-ch); got != tc.want {
			t.Errorf("feed entry\n got %s\nwant %s", got, tc.want)
		}
	}
	h.publish(campaign.MatrixDone{})
	if _, live := <-ch; live {
		t.Error("MatrixDone did not close the subscriber")
	}
	if _, live := <-h.subscribe(); live {
		t.Error("a subscriber after MatrixDone is not told at once")
	}
}

// TestDashFeedFollowsEventStream: over a real server (the handler needs
// http.Flusher) a subscriber sees one entry per typed event, in the typed
// stream's order, ending with the matrix entry.
func TestDashFeedFollowsEventStream(t *testing.T) {
	events := make(chan campaign.Event, 256) // holds the whole run: nothing consumes until it ends
	coord, err := NewCoordinator(compatJobs()[:1], compatFaults, ShardSize(2), WithEvents(events))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	req, err := newSSERequest(context.Background(), srv.URL+"/dash/events")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	feed := bufio.NewScanner(resp.Body)
	if !feed.Scan() || !strings.HasPrefix(feed.Text(), ":") {
		t.Fatalf("feed did not open with its comment line: %q", feed.Text())
	}
	runCluster(t, coord, 2, batchSize(1)) // subscribed before the first beat

	var want []string
	for ev := range events {
		var de dashEvent
		switch ev := ev.(type) {
		case campaign.JobDone:
			de = dashEvent{Type: "job", Key: ev.Key(), Lo: ev.Lo, Hi: ev.Hi, Done: ev.Done, Total: ev.Total, WallSec: ev.WallSec}
		case campaign.ScenarioDone:
			de = dashEvent{Type: "scenario", Key: ev.Key, Done: compatFaults, Total: compatFaults}
		case campaign.MatrixDone:
			de = dashEvent{Type: "matrix"}
		}
		data, err := json.Marshal(de)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, "data: "+string(data))
		if de.Type == "matrix" {
			break
		}
	}
	var got []string
	for feed.Scan() {
		if feed.Text() != "" {
			got = append(got, feed.Text())
		}
	}
	if len(want) != compatFaults+2 || !reflect.DeepEqual(got, want) {
		t.Errorf("feed differs from the typed stream:\n feed:   %v\n stream: %v", got, want)
	}
}

// TestBadOutcomeFailsCampaignNotFold: a completion carrying an outcome code
// outside the taxonomy is acknowledged, fails its own campaign naming the
// code, and leaves the sibling campaign and Wait unharmed.
func TestBadOutcomeFailsCampaignNotFold(t *testing.T) {
	for _, code := range []int{9, -1} {
		t.Run(fmt.Sprint(code), func(t *testing.T) {
			coord, err := NewCoordinator(compatJobs()[:2], 2, ShardSize(2))
			if err != nil {
				t.Fatal(err)
			}
			cl := NewLoopbackClient(coord.Handler())
			ctx := context.Background()
			r, err := cl.Lease(ctx, "buggy")
			if err != nil || r.Lease == nil {
				t.Fatalf("lease: %+v, %v", r, err)
			}
			reply, err := cl.Complete(ctx, CompleteRequest{
				Worker: "buggy", LeaseID: r.Lease.ID, Key: r.Lease.Key, Lo: r.Lease.Lo, Hi: r.Lease.Hi,
				Runs: []fi.Result{{}, {Outcome: fi.Outcome(code)}},
			})
			if err != nil || !reply.Accepted {
				t.Fatalf("complete = %+v, %v (want accepted)", reply, err)
			}
			results := runClusterErr(t, coord, fmt.Sprintf("outcome code %d", code))
			if results[0] != nil || results[1] == nil || results[1].Counts.Total() != 2 {
				t.Errorf("results = %v, want only the sibling campaign assembled", results)
			}
			if s := coord.Status(); !s.Done || s.Failed != 1 || s.CampaignsDone != 2 {
				t.Errorf("status = %+v", s)
			}
		})
	}
}

// runClusterErr finishes coord with one loopback worker and returns Wait's
// results, requiring its error to mention want.
func runClusterErr(t *testing.T, coord *Coordinator, want string) []*campaign.Result {
	t.Helper()
	ctx := context.Background()
	werr := make(chan error, 1)
	go func() { werr <- NewWorker(NewLoopbackClient(coord.Handler()), Name("healthy")).Run(ctx) }()
	results, err := coord.Wait(ctx)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("matrix error = %v, want it to mention %q", err, want)
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	return results
}

// TestLeaseAttemptCap: a shard whose every holder goes silent is given up
// after maxShardAttempts expiries — its campaign fails naming the range and
// the last holder — instead of being re-issued forever.
func TestLeaseAttemptCap(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	coord, err := NewCoordinator(compatJobs()[:2], 4, ShardSize(2), LeaseTTL(time.Minute), withNow(clock.now))
	if err != nil {
		t.Fatal(err)
	}
	cl := NewLoopbackClient(coord.Handler())
	ctx := context.Background()
	poisoned := compatJobs()[0].Key()
	for i := 1; i <= maxShardAttempts; i++ {
		r, err := cl.Lease(ctx, fmt.Sprintf("victim%d", i))
		if err != nil || r.Lease == nil || r.Lease.Key != poisoned || r.Lease.Lo != 0 {
			t.Fatalf("attempt %d: lease = %+v, %v (want the first shard again)", i, r.Lease, err)
		}
		clock.advance(time.Minute + time.Second)
	}
	results := runClusterErr(t, coord, fmt.Sprintf(`shard [0,2) abandoned: its lease expired %d times, last held by worker "victim%d"`,
		maxShardAttempts, maxShardAttempts))
	if results[0] != nil || results[1] == nil {
		t.Errorf("results = %v, want only the sibling campaign assembled", results)
	}
	if s := coord.Status(); !s.Done || s.Failed != 1 || s.ShardsDone != s.Shards {
		t.Errorf("status = %+v", s)
	}
}
