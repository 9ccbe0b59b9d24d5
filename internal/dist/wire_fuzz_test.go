package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fi"
)

// wirePaths are the POST endpoints FuzzWireHandlers drives, picked by the
// low bits of an input's path byte.
var wirePaths = []string{PathLease, PathComplete, PathEvents, PathSubmit, PathMatrices, PathCancel, PathFetch}

// FuzzWireHandlers: any body POSTed to any wire endpoint, with or without a
// failing journal under it, neither panics the coordinator nor changes a
// finished tenant's results. The fixture is a restored queue over a
// segmented store in which tenant bob's submission has finished and tenant
// alice's is running, with two of its shards leased to worker w and the
// first of them completed; after every input bob's /v1/fetch reply and the
// stored rows of bob's campaigns must be the bytes they were. Each input is
// a path byte (its low bits pick the endpoint, its high bit fails the
// journal's next fsync) and a body.
func FuzzWireHandlers(f *testing.F) {
	coord, cl, _, journalFile := faultyQueue(f)
	jobs := compatJobs()[:1]
	bob, err := coord.Submit(SubmitSpec{Tenant: "bob", Jobs: jobs, Faults: compatFaults})
	if err != nil {
		f.Fatal(err)
	}
	stop := startQueueWorkers(f, coord, 1)
	waitSubmissions(f, coord, bob)
	stop()
	view, err := campaign.TenantView(coord.store, "bob")
	if err != nil {
		f.Fatal(err)
	}
	// Alice's shards are run by hand, so a seed can hold the completion of
	// a live lease: that one reaches the fold.
	if _, err := coord.Submit(SubmitSpec{Tenant: "alice", Jobs: jobs, Faults: compatFaults}); err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	w := NewWorker(cl, Name("w"))
	var shards []CompleteRequest
	for i := 0; i < 2; i++ {
		r, err := cl.Lease(ctx, w.name)
		if err != nil || r.Lease == nil {
			f.Fatalf("lease %d: %+v, %v", i, r, err)
		}
		req, err := w.exec(ctx, r.Lease)
		if err != nil || req.Err != "" {
			f.Fatalf("exec %d: %v %s", i, err, req.Err)
		}
		req.Proto = ProtoVersion
		shards = append(shards, req)
	}
	if reply, err := cl.Complete(ctx, shards[0]); err != nil || !reply.Accepted {
		f.Fatalf("alice's first completion = %+v, %v (want accepted)", reply, err)
	}

	post := func(t testing.TB, path string, body []byte) []byte {
		resp, err := cl.hc.Post(cl.base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// Only bob's campaigns at fixture time: a fuzzed submit under tenant bob
	// may queue a new campaign for him, which is his own request.
	bobRows := func(t testing.TB) []byte {
		var rows []*campaign.Result
		for _, job := range jobs {
			r, ok := view.Get(job.Key())
			if !ok {
				t.Fatalf("bob's %s is gone from the store", job.Key())
			}
			rows = append(rows, r)
		}
		var buf bytes.Buffer
		if err := campaign.WriteDB(&buf, rows); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	marshal := func(v any) []byte {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	fetch := marshal(FetchRequest{Proto: ProtoVersion, ID: bob})
	wantFetch, wantRows := post(f, PathFetch, fetch), bobRows(f)

	job := jobs[0]
	f.Add(byte(3), marshal(SubmitRequest{Proto: ProtoVersion, Tenant: "mallory", Jobs: WireJobs(jobs), Faults: compatFaults}))
	f.Add(byte(5), marshal(CancelRequest{Proto: ProtoVersion, ID: bob}))
	f.Add(byte(1), marshal(CompleteRequest{Proto: ProtoVersion, Worker: "w", LeaseID: 999, Key: job.Key(), Hi: compatFaults}))
	f.Add(byte(2), marshal(EventRequest{Proto: ProtoVersion, Worker: "w", LeaseID: 999, Key: job.Key(), Hi: 1,
		Scenario: job.Scenario.ID(), Domain: job.Domain.String()}))
	f.Add(byte(0x80|3), marshal(SubmitRequest{Proto: ProtoVersion, Tenant: "carol", Jobs: WireJobs(compatJobs()[3:]), Faults: compatFaults}))
	// The second shard with one outcome out of range first, so the fold's
	// refusal runs; the intact completion after it finds the lease retired.
	bad := shards[1]
	bad.Runs = append([]fi.Result(nil), bad.Runs...)
	bad.Runs[0].Outcome = fi.NumOutcomes
	f.Add(byte(1), marshal(bad))
	f.Add(byte(1), marshal(shards[1]))

	f.Fuzz(func(t *testing.T, path byte, body []byte) {
		journalFile().syncErr = path&0x80 != 0
		post(t, wirePaths[int(path&0x7f)%len(wirePaths)], body)
		journalFile().syncErr = false
		if got := post(t, PathFetch, fetch); !bytes.Equal(got, wantFetch) {
			t.Errorf("bob's fetch changed:\n got %s\nwant %s", got, wantFetch)
		}
		if got := bobRows(t); !bytes.Equal(got, wantRows) {
			t.Errorf("bob's stored rows changed:\n got %s\nwant %s", got, wantRows)
		}
	})
}
