package dist

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"serfi/internal/campaign"
)

// wirePaths are the POST endpoints FuzzWireHandlers drives, picked by the
// low bits of an input's path byte.
var wirePaths = []string{PathLease, PathComplete, PathEvents, PathSubmit, PathMatrices, PathCancel, PathFetch}

// FuzzWireHandlers: any body POSTed to any wire endpoint, with or without a
// failing journal under it, neither panics the coordinator nor changes a
// finished tenant's results. The fixture is a restored queue over a
// segmented store in which tenant bob's submission has finished; after every
// input bob's /v1/fetch reply and the stored rows of bob's campaigns must be
// the bytes they were. Each input is a path byte (its low bits pick the
// endpoint, its high bit fails the journal's next fsync) and a body.
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
