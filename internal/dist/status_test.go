package dist

// Status is an aggregate: /v1/status does not grow with the queue's history,
// and a submission's campaign rows are asked for by ID on /v1/matrices.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fi"
)

// storedResult is the row a store holds for job once its campaign ran:
// every fault classified, unmasked of them escaping masking.
func storedResult(job campaign.ScenarioJob, unmasked int) *campaign.Result {
	r := &campaign.Result{Scenario: job.Scenario, Domain: job.Domain, Faults: compatFaults, Seed: job.Seed}
	r.Counts[fi.Vanished] = compatFaults - unmasked
	r.Counts[fi.OMM] = unmasked
	return r
}

// getStatus reads the raw /v1/status body.
func getStatus(t *testing.T, cl *Client) []byte {
	t.Helper()
	resp, err := cl.hc.Get(cl.base + PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestStatusIndependentOfHistory: a status poll costs the same after 300
// submissions as after one. When the reply listed every campaign and every
// submission ever queued, its body grew by a row per campaign per
// submission.
func TestStatusIndependentOfHistory(t *testing.T) {
	jobs := compatJobs()
	st := campaign.NewMemStore()
	for _, job := range jobs {
		if err := st.Put(storedResult(job, 1)); err != nil {
			t.Fatal(err)
		}
	}
	coord := NewQueue(WithStore(st))
	cl := NewLoopbackClient(coord.Handler())
	submit := func() {
		t.Helper()
		if _, err := coord.Submit(SubmitSpec{Jobs: jobs, Faults: compatFaults}); err != nil {
			t.Fatal(err)
		}
	}
	submit()
	first := getStatus(t, cl)
	const subs = 300
	for i := 1; i < subs; i++ {
		submit()
	}
	last := getStatus(t, cl)
	if float64(len(last)) >= 1.2*float64(len(first)) {
		t.Errorf("/v1/status is %d bytes after %d submissions, %d after one", len(last), subs, len(first))
	}
	for _, list := range []string{"campaign_list", "matrices"} {
		if strings.Contains(string(last), list) {
			t.Errorf("/v1/status carries %q", list)
		}
	}
	var s StatusReply
	if err := json.Unmarshal(last, &s); err != nil {
		t.Fatal(err)
	}
	if !s.Done || s.Campaigns != subs*len(jobs) || s.Skipped != s.Campaigns || s.CampaignsDone != s.Campaigns {
		t.Errorf("aggregate after %d store-answered submissions = %+v", subs, s)
	}
}

// TestMatrixCampaignRows: the rows of one submission, asked for by ID on the
// Go API and over the wire, are that submission's campaigns and no other
// tenant's, sorted by key — stored counts with their Wilson bounds for
// store-answered campaigns, live beat progress for running ones. An unknown
// ID is the caller's error, and /v1/matrices checks the protocol version.
func TestMatrixCampaignRows(t *testing.T) {
	jobs := compatJobs()[:2]
	st := campaign.NewMemStore()
	for i, job := range jobs {
		if err := st.Tenant("bob").Put(storedResult(job, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	coord := NewQueue(ShardSize(2), WithStore(st))
	alice, err := coord.Submit(SubmitSpec{Tenant: "alice", Jobs: jobs, Faults: compatFaults})
	if err != nil {
		t.Fatal(err)
	}
	bob, err := coord.Submit(SubmitSpec{Tenant: "bob", Jobs: jobs, Faults: compatFaults})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cl := NewLoopbackClient(coord.Handler())
	// One of alice's shards in flight, one fault of it reported.
	lr, err := cl.Lease(ctx, "w")
	if err != nil || lr.Lease == nil {
		t.Fatalf("lease: %+v, %v", lr, err)
	}
	l := lr.Lease
	if err := cl.Event(ctx, EventRequest{Worker: "w", LeaseID: l.ID, Key: l.Key, Lo: l.Lo, Hi: l.Lo + 1}); err != nil {
		t.Fatal(err)
	}

	var keys []string
	for _, job := range jobs {
		keys = append(keys, job.Key())
	}
	sort.Strings(keys)
	for _, sub := range []struct {
		id, tenant string
		stored     bool
	}{{alice, "alice", false}, {bob, "bob", true}} {
		mr, err := coord.Matrix(sub.id)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := cl.Matrix(ctx, sub.id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wire.CampaignList, mr.CampaignList) || wire.Matrices[0].ID != sub.id {
			t.Errorf("%s over the wire = %+v, on the Go API %+v", sub.id, wire, mr)
		}
		if len(mr.Matrices) != 1 || mr.Matrices[0].ID != sub.id || mr.Matrices[0].Tenant != sub.tenant {
			t.Errorf("%s: queue rows %+v, want its own alone", sub.id, mr.Matrices)
		}
		if len(mr.CampaignList) != len(keys) {
			t.Fatalf("%s: %d campaign rows, want %d: %+v", sub.id, len(mr.CampaignList), len(keys), mr.CampaignList)
		}
		for i, row := range mr.CampaignList {
			if row.Key != keys[i] || row.Matrix != sub.id || row.Tenant != sub.tenant || row.Skipped != sub.stored || row.Faults != compatFaults {
				t.Errorf("%s row %d = %+v, want campaign %s of this submission", sub.id, i, row, keys[i])
				continue
			}
			if !sub.stored {
				want := 0
				if row.Key == l.Key {
					want = 1
				}
				if row.Done || row.Injected != want || row.Sampled != 0 {
					t.Errorf("%s: live row %+v, want %d injected and nothing folded", sub.id, row, want)
				}
				continue
			}
			r, _ := st.Tenant("bob").Get(row.Key)
			rate := float64(row.Unmasked) / float64(row.Sampled)
			if !row.Done || row.Injected != 0 || row.Sampled != compatFaults || row.Unmasked != r.Counts.Unmasked() ||
				row.CILo < 0 || row.CIHi > 1 || row.CILo > rate || rate > row.CIHi || row.CILo == row.CIHi {
				t.Errorf("%s: stored row %+v, want counts %v and a Wilson interval around them", sub.id, row, r.Counts)
			}
		}
	}

	if _, err := coord.Matrix("m999999"); err == nil {
		t.Error("Matrix answered an unknown submission")
	}
	if _, err := cl.Matrix(ctx, "m999999"); err == nil || !strings.Contains(err.Error(), "unknown submission") {
		t.Errorf("Client.Matrix on an unknown submission: %v", err)
	}
	for body, want := range map[string]string{
		fmt.Sprintf(`{"proto":%d,"id":"m999999"}`, ProtoVersion):   "unknown submission",
		fmt.Sprintf(`{"proto":%d,"id":%q}`, ProtoVersion-1, alice): "protocol version",
	} {
		resp, err := cl.hc.Post(cl.base+PathMatrices, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 4 || !strings.Contains(string(reply), want) {
			t.Errorf("POST %s %s = HTTP %d %s, want a 4xx naming %q", PathMatrices, body, resp.StatusCode, reply, want)
		}
	}
}
