package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"serfi/internal/campaign"
)

// drainEvents returns what the coordinator has emitted so far without
// waiting: every emit happens inside the handler, before its reply.
func drainEvents(ch <-chan campaign.Event) []campaign.Event {
	var out []campaign.Event
	for {
		select {
		case ev := <-ch:
			out = append(out, ev)
		default:
			return out
		}
	}
}

// TestCompletionsDriveProgress: a shard's completion is its progress. One
// campaign is driven by hand, shard by shard: running a shard emits nothing
// and leaves the campaign row at the previous fold, and each accepted
// completion emits exactly one JobDone whose Done is the status page's
// Injected. The campaign's last JobDone precedes its ScenarioDone.
func TestCompletionsDriveProgress(t *testing.T) {
	events := make(chan campaign.Event, 64)
	coord, err := NewCoordinator(compatJobs()[:1], compatFaults, ShardSize(2), WithEvents(events))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cl := NewLoopbackClient(coord.Handler())
	w := NewWorker(cl, Name("w"))
	folded := 0
	for i := 0; i < compatFaults/2; i++ {
		r, err := cl.Lease(ctx, w.name)
		if err != nil || r.Lease == nil {
			t.Fatalf("lease %d: %+v, %v", i, r, err)
		}
		req, err := w.exec(ctx, r.Lease)
		if err != nil || req.Err != "" {
			t.Fatalf("exec %d: %v %s", i, err, req.Err)
		}
		if evs := drainEvents(events); len(evs) != 0 {
			t.Errorf("shard %d ran but is not complete: events %+v, want none", i, evs)
		}
		mr, err := coord.Matrix("m000001")
		if err != nil {
			t.Fatal(err)
		}
		if got := mr.CampaignList[0].Injected; got != folded {
			t.Errorf("shard %d ran but is not complete: row reads %d injected, want %d", i, got, folded)
		}
		if reply, err := cl.Complete(ctx, req); err != nil || !reply.Accepted {
			t.Fatalf("completion %d = %+v, %v", i, reply, err)
		}
		folded += r.Lease.Hi - r.Lease.Lo
		evs := drainEvents(events)
		last := i == compatFaults/2-1
		want := 1 // the JobDone, then on the last shard the ScenarioDone
		if last {
			want = 2
		}
		if len(evs) != want {
			t.Fatalf("completion %d emitted %+v, want %d events", i, evs, want)
		}
		jd, ok := evs[0].(campaign.JobDone)
		if !ok || jd.Done != folded || jd.Done != coord.Status().Injected || jd.Lo != r.Lease.Lo || jd.Hi != r.Lease.Hi {
			t.Errorf("completion %d emitted %+v first, want JobDone [%d,%d) with Done %d = status Injected %d",
				i, evs[0], r.Lease.Lo, r.Lease.Hi, folded, coord.Status().Injected)
		}
		if _, ok := evs[len(evs)-1].(campaign.ScenarioDone); last && !ok {
			t.Errorf("last completion emitted %+v, want its JobDone then the ScenarioDone", evs)
		}
	}
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestBeatsAreIgnored: a progress beat on a live lease — the holder's over
// its range or part of it, one that lies about its range, one from a worker
// that does not hold the lease or for a lease never granted — is answered
// HTTP 200 with an EventReply and changes nothing: not /v1/status, not the
// submission's /v1/matrices rows, not /metrics, not the event stream.
func TestBeatsAreIgnored(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	events := make(chan campaign.Event, 64)
	coord, err := NewCoordinator(compatJobs()[:1], compatFaults, ShardSize(2), WithEvents(events), withNow(clock.now))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cl := NewLoopbackClient(coord.Handler())
	r, err := cl.Lease(ctx, "a")
	if err != nil || r.Lease == nil {
		t.Fatalf("lease: %+v, %v", r, err)
	}
	l := r.Lease
	post := func(path string, body []byte) (int, []byte) {
		t.Helper()
		var resp *http.Response
		var err error
		if body == nil {
			resp, err = cl.hc.Get(cl.base + path)
		} else {
			resp, err = cl.hc.Post(cl.base+path, "application/json", bytes.NewReader(body))
		}
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	matrices, err := json.Marshal(MatricesRequest{Proto: ProtoVersion, ID: "m000001"})
	if err != nil {
		t.Fatal(err)
	}
	surfaces := func() [3][]byte {
		_, status := post(PathStatus, nil)
		_, rows := post(PathMatrices, matrices)
		_, metrics := post("/metrics", nil)
		return [3][]byte{status, rows, metrics}
	}
	before := surfaces()
	for _, beat := range []struct {
		name string
		req  EventRequest
	}{
		{"valid", EventRequest{Worker: "a", LeaseID: l.ID, Key: l.Key, Lo: l.Lo, Hi: l.Hi, WallSec: 0.5}},
		{"valid partial", EventRequest{Worker: "a", LeaseID: l.ID, Key: l.Key, Lo: l.Lo, Hi: l.Lo + 1}},
		{"inverted", EventRequest{Worker: "a", LeaseID: l.ID, Key: l.Key, Lo: 3, Hi: 1}},
		{"wider than the lease", EventRequest{Worker: "a", LeaseID: l.ID, Key: l.Key, Lo: 0, Hi: 99}},
		{"wrong campaign", EventRequest{Worker: "a", LeaseID: l.ID, Key: "armv8/EP/SER-1", Lo: l.Lo, Hi: l.Hi}},
		{"not the holder", EventRequest{Worker: "b", LeaseID: l.ID, Key: l.Key, Lo: l.Lo, Hi: l.Hi}},
		{"never granted", EventRequest{Worker: "a", LeaseID: 999, Key: l.Key, Lo: l.Lo, Hi: l.Hi}},
	} {
		beat.req.Proto = ProtoVersion
		body, err := json.Marshal(beat.req)
		if err != nil {
			t.Fatal(err)
		}
		code, out := post(PathEvents, body)
		var reply EventReply
		if err := json.Unmarshal(out, &reply); code != http.StatusOK || err != nil || reply.Proto != ProtoVersion {
			t.Errorf("%s beat: HTTP %d %s, want 200 and an EventReply", beat.name, code, out)
		}
		after := surfaces()
		for i, name := range []string{PathStatus, PathMatrices, "/metrics"} {
			if !bytes.Equal(after[i], before[i]) {
				t.Errorf("%s beat changed %s:\n got %s\nwant %s", beat.name, name, after[i], before[i])
			}
		}
		if evs := drainEvents(events); len(evs) != 0 {
			t.Errorf("%s beat emitted %+v", beat.name, evs)
		}
	}
}
