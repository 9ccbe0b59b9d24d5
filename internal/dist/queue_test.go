package dist

// The campaign-queue pins: a persistent multi-tenant coordinator must
// reproduce sequential local engine runs byte for byte however its
// submissions interleave across tenants and workers, survive a coordinator
// restart mid-queue through the journal plus the store's resume path, keep
// the fair-share scheduler's lease gap bounded under contention, and
// handle cancellation as a queue operation that never disturbs durable
// results.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"serfi/internal/campaign"
)

// startQueueWorkers launches n loopback workers against a queue
// coordinator and returns a stop function that drains them (each worker
// finishes its leased shard, stops leasing and exits nil).
func startQueueWorkers(t testing.TB, coord *Coordinator, n int) (stop func()) {
	t.Helper()
	cl := NewLoopbackClient(coord.Handler())
	var wg sync.WaitGroup
	workers := make([]*Worker, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		w := NewWorker(cl, Name(fmt.Sprintf("qw%d", i)))
		workers[i] = w
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			errs[i] = w.Run(context.Background())
		}(i, w)
	}
	return func() {
		for _, w := range workers {
			w.Drain()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("queue worker %d: %v", i, err)
			}
		}
	}
}

// waitSubmissions blocks until every listed submission is terminal.
func waitSubmissions(t testing.TB, coord *Coordinator, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if err := coord.WaitSubmission(id); err != nil {
			t.Fatal(err)
		}
	}
}

// tenantRecordLines collects one tenant's canonical record rows from a
// segmented store directory, key-sorted — the byte-diff view of what the
// queue persisted for that namespace.
func tenantRecordLines(t *testing.T, root, ns string) []string {
	t.Helper()
	dir := filepath.Join(root, "t-"+ns)
	if ns == "" {
		dir = filepath.Join(root, "default")
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
			if l == "" || strings.HasPrefix(l, `{"footer"`) || strings.HasPrefix(l, `{"del"`) {
				continue
			}
			lines = append(lines, l)
		}
	}
	sort.Strings(lines)
	return lines
}

// engineReference runs the given matrices sequentially through local
// engines sharing one file store and returns its key-sorted lines — the
// determinism oracle every queue test compares against.
func engineReference(t *testing.T, matrices ...[]campaign.ScenarioJob) []string {
	t.Helper()
	path := t.TempDir() + "/engine.jsonl"
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range matrices {
		if _, err := campaign.New(campaign.Faults(compatFaults), campaign.WithStore(st)).RunMatrix(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return sortedRecords(t, path)
}

// TestQueueTwoTenantsMatchSequentialEngines is the queue determinism pin:
// two tenants submitting two matrices each to one coordinator with three
// workers — shards of all four matrices interleaving on the same fleet —
// must persist, per tenant, exactly the bytes four sequential local engine
// runs produce.
func TestQueueTwoTenantsMatchSequentialEngines(t *testing.T) {
	jobs := compatJobs()
	m1, m2 := jobs[:2], jobs[2:]
	refLines := engineReference(t, m1, m2)

	root := t.TempDir() + "/segs"
	st, err := campaign.OpenSegmentedStore(root)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewQueue(ShardSize(2), WithStore(st))
	stop := startQueueWorkers(t, coord, 3)

	var ids []string
	for _, tenant := range []string{"alice", "bob"} {
		for _, m := range [][]campaign.ScenarioJob{m1, m2} {
			id, err := coord.Submit(SubmitSpec{Tenant: tenant, Jobs: m, Faults: compatFaults})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	waitSubmissions(t, coord, ids...)
	stop()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tenant := range []string{"alice", "bob"} {
		if got := tenantRecordLines(t, root, tenant); !reflect.DeepEqual(got, refLines) {
			t.Errorf("tenant %s records differ from sequential engine runs:\n queue: %v\n ref:   %v", tenant, got, refLines)
		}
	}

	// The queue's own bookkeeping: four terminal submissions, all done.
	for _, ms := range coord.MatrixList() {
		if ms.State != "done" || ms.CampaignsDone != ms.Campaigns {
			t.Errorf("matrix %+v not done", ms)
		}
	}

	// And fetching a submission's database blob reproduces the engine's
	// rows for exactly that matrix.
	state, db, err := coord.FetchDB(ids[0])
	if err != nil || state != "done" {
		t.Fatalf("FetchDB: state=%q err=%v", state, err)
	}
	fetched := strings.Split(strings.TrimRight(string(db), "\n"), "\n")
	sort.Strings(fetched)
	wantRef := engineReference(t, m1)
	if !reflect.DeepEqual(fetched, wantRef) {
		t.Errorf("FetchDB blob differs from engine run:\n fetch: %v\n ref:   %v", fetched, wantRef)
	}
}

// TestQueueRestartResumesMidQueue kills the coordinator between two queued
// matrices and restarts it over the same journal and store: the completed
// submission is answered from the store, the unfinished one re-shards, and
// the final bytes still match the sequential engine reference.
func TestQueueRestartResumesMidQueue(t *testing.T) {
	jobs := compatJobs()
	m1, m2 := jobs[:2], jobs[2:]
	refLines := engineReference(t, m1, m2)

	dir := t.TempDir()
	root := filepath.Join(dir, "segs")
	journalPath := filepath.Join(dir, "queue.jsonl")

	st, err := campaign.OpenSegmentedStore(root)
	if err != nil {
		t.Fatal(err)
	}
	coord, journal, err := RestoreQueue(journalPath, ShardSize(2), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	id1, err := coord.Submit(SubmitSpec{Tenant: "alice", Jobs: m1, Faults: compatFaults})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := coord.Submit(SubmitSpec{Tenant: "alice", Jobs: m2, Faults: compatFaults})
	if err != nil {
		t.Fatal(err)
	}
	// Run the fleet only until the first submission lands, then kill the
	// coordinator: the second submission is somewhere between untouched and
	// partially folded — either way only assembled campaigns are durable.
	stop := startQueueWorkers(t, coord, 2)
	waitSubmissions(t, coord, id1)
	stop()
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: same journal, same store, a fresh process's coordinator.
	st2, err := campaign.OpenSegmentedStore(root)
	if err != nil {
		t.Fatal(err)
	}
	coord2, journal2, err := RestoreQueue(journalPath, ShardSize(2), WithStore(st2))
	if err != nil {
		t.Fatal(err)
	}
	defer journal2.Close()
	list := coord2.MatrixList()
	if len(list) != 2 {
		t.Fatalf("restored queue lists %d matrices, want 2: %+v", len(list), list)
	}
	if list[0].ID != id1 || list[0].State != "done" || list[0].Skipped != len(m1) {
		t.Errorf("restored first submission should be store-answered: %+v", list[0])
	}
	if list[1].ID != id2 {
		t.Errorf("restored second submission has ID %s, want %s", list[1].ID, id2)
	}
	stop2 := startQueueWorkers(t, coord2, 2)
	waitSubmissions(t, coord2, id1, id2)
	stop2()
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	if got := tenantRecordLines(t, root, "alice"); !reflect.DeepEqual(got, refLines) {
		t.Errorf("post-restart records differ from sequential engine runs:\n queue: %v\n ref:   %v", got, refLines)
	}

	// New IDs allocated after the restart continue past the journalled
	// sequence instead of recycling it.
	id3, err := coord2.Submit(SubmitSpec{Tenant: "bob", Jobs: m1, Faults: compatFaults})
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 || id3 == id2 {
		t.Errorf("restarted queue recycled submission ID %s", id3)
	}
	if _, err := coord2.CancelSubmission(id3); err != nil {
		t.Fatal(err)
	}
}

// TestQueueCancelDropsPendingKeepsDurable: cancelling a submission drops
// its pending shards and goes terminal, while campaigns another submission
// already persisted stay durable; a cancelled ID journals so a restart
// does not resurrect it.
func TestQueueCancelDropsPendingKeepsDurable(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "queue.jsonl")
	st := segStore(t)
	coord, journal, err := RestoreQueue(journalPath, ShardSize(2), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	id, err := coord.Submit(SubmitSpec{Tenant: "alice", Jobs: compatJobs()[:2], Faults: compatFaults})
	if err != nil {
		t.Fatal(err)
	}
	state, err := coord.CancelSubmission(id)
	if err != nil || state != "cancelled" {
		t.Fatalf("cancel: state=%q err=%v", state, err)
	}
	if st := coord.Status(); st.ShardsPending != 0 || st.ShardsLeased != 0 {
		t.Errorf("cancelled submission left live shards: %+v", st)
	}
	// Cancelling a terminal submission is a no-op reporting its state.
	if state, err := coord.CancelSubmission(id); err != nil || state != "cancelled" {
		t.Errorf("re-cancel: state=%q err=%v", state, err)
	}
	if _, err := coord.CancelSubmission("m999999"); err == nil {
		t.Error("cancelling an unknown submission did not error")
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	coord2, journal2, err := RestoreQueue(journalPath, ShardSize(2), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	defer journal2.Close()
	if list := coord2.MatrixList(); len(list) != 0 {
		t.Errorf("cancelled submission resurrected on restart: %+v", list)
	}
}

// TestQueueFairShareBoundedGap pins the tenant-rotation guarantee:
// under two-tenant contention grants alternate tenants, so a tenant with
// pending work never waits more than one grant — even when the other
// tenant has ten times the shards queued.
func TestQueueFairShareBoundedGap(t *testing.T) {
	big := &submission{tenant: "alice"}
	small := &submission{tenant: "bob"}
	camps := []*campState{
		{sub: big, Fold: campaign.Fold{Faults: 80}},
		{sub: small, Fold: campaign.Fold{Faults: 8}},
	}
	tab := newLeaseTable(camps, 4, time.Minute, time.Now)
	var order []string
	for {
		sh, _ := tab.acquire("w")
		if sh == nil {
			break
		}
		order = append(order, sh.camp.tenant())
	}
	if len(order) != 22 { // 20 alice shards + 2 bob shards
		t.Fatalf("granted %d shards, want 22: %v", len(order), order)
	}
	// While bob has pending shards, alice never gets two consecutive
	// grants: the gap between bob's grants is bounded by the tenant count.
	lastBob := -1
	for i, tn := range order {
		if tn == "bob" {
			if lastBob >= 0 && i-lastBob > 2 {
				t.Fatalf("bob starved for %d grants: %v", i-lastBob, order)
			}
			lastBob = i
		}
	}
	if lastBob < 2 || lastBob > 4 {
		t.Errorf("bob's shards not interleaved early: %v", order)
	}
}

// TestQueueSubmitValidation: the wire-level submit path rejects what the
// queue cannot honor and answers lost-reply resubmissions idempotently.
func TestQueueSubmitValidation(t *testing.T) {
	coord := NewQueue(WithStore(segStore(t)))
	cl := NewLoopbackClient(coord.Handler())
	ctx := context.Background()

	// One-shot coordinators refuse submissions outright.
	once, err := NewCoordinator(compatJobs()[:1], compatFaults)
	if err != nil {
		t.Fatal(err)
	}
	ocl := NewLoopbackClient(once.Handler())
	if _, err := ocl.Submit(ctx, SubmitRequest{Jobs: WireJobs(compatJobs()[:1]), Faults: compatFaults}); err == nil || !strings.Contains(err.Error(), "one-shot") {
		t.Errorf("one-shot coordinator accepted a submission: %v", err)
	}

	wire := WireJobs(compatJobs()[:2])
	reply, err := cl.Submit(ctx, SubmitRequest{Tenant: "alice", Jobs: wire, Faults: compatFaults})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Campaigns != 2 || reply.Shards == 0 {
		t.Errorf("submit reply = %+v", reply)
	}
	// Same ID again: idempotent acknowledgement, no duplicate queue entry.
	again, err := cl.Submit(ctx, SubmitRequest{ID: reply.ID, Tenant: "alice", Jobs: wire, Faults: compatFaults})
	if err != nil || again.ID != reply.ID {
		t.Fatalf("idempotent resubmit: %+v err=%v", again, err)
	}
	if got := len(coord.MatrixList()); got != 1 {
		t.Errorf("resubmission duplicated the queue: %d entries", got)
	}
	// A campaign still live under the same tenant is refused; under another
	// tenant it is an independent namespace and queues fine.
	if _, err := cl.Submit(ctx, SubmitRequest{Tenant: "alice", Jobs: wire[:1], Faults: compatFaults}); err == nil {
		t.Error("duplicate live campaign for one tenant accepted")
	}
	// The segmented store scopes tenants, so a second namespace is accepted.
	if _, err := cl.Submit(ctx, SubmitRequest{Tenant: "bob", Jobs: wire[:1], Faults: compatFaults}); err != nil {
		t.Errorf("independent tenant refused: %v", err)
	}
	if _, err := cl.Submit(ctx, SubmitRequest{Tenant: "no/slashes", Jobs: wire, Faults: compatFaults}); err == nil {
		t.Error("invalid tenant namespace accepted")
	}
	if _, err := cl.Submit(ctx, SubmitRequest{Tenant: "alice", Jobs: []WireJob{{Scenario: "bogus", Seed: 1}}, Faults: 2}); err == nil {
		t.Error("unparseable scenario accepted")
	}

	// Named tenants over a flat (non-TenantStore) backend are refused.
	flatPath := t.TempDir() + "/flat.jsonl"
	flat, err := campaign.OpenFileStore(flatPath)
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	fcoord := NewQueue(WithStore(flat))
	fcl := NewLoopbackClient(fcoord.Handler())
	if _, err := fcl.Submit(ctx, SubmitRequest{Tenant: "alice", Jobs: wire, Faults: compatFaults}); err == nil {
		t.Error("named tenant accepted over a flat store")
	}
}

// TestSubmitIDTakenByAnotherRequest: an ID a caller chose is never handed
// out again by the sequence, and answers only for the request that took it.
// alice takes m000002 before the sequence reaches it, so the next anonymous
// submission must get a fresh ID rather than a collision error. bob then
// posts m000002 with another tenant and matrix: he must be refused by name
// (a 4xx, never retried), not acknowledged as alice's submission.
func TestSubmitIDTakenByAnotherRequest(t *testing.T) {
	coord := NewQueue(WithStore(segStore(t)))
	cl := NewLoopbackClient(coord.Handler())
	ctx := context.Background()
	jobs := WireJobs(compatJobs())

	alice := SubmitRequest{ID: "m000002", Tenant: "alice", Jobs: jobs[:1], Faults: compatFaults}
	if _, err := cl.Submit(ctx, alice); err != nil {
		t.Fatal(err)
	}
	anon, err := cl.Submit(ctx, SubmitRequest{Jobs: jobs[:1], Faults: compatFaults})
	if err != nil {
		t.Fatalf("anonymous submission after a caller-chosen ID: %v", err)
	}
	if anon.ID == alice.ID {
		t.Fatalf("anonymous submission acknowledged as %s", anon.ID)
	}

	bob := SubmitRequest{ID: alice.ID, Tenant: "bob", Jobs: jobs[:2], Faults: compatFaults}
	reply, err := cl.Submit(ctx, bob)
	if err == nil {
		t.Fatalf("bob's different matrix under %s acknowledged: %+v", alice.ID, reply)
	}
	var re *retryableError
	if errors.As(err, &re) || !strings.Contains(err.Error(), alice.ID) {
		t.Errorf("bob's conflict = %v, want a 4xx naming %s", err, alice.ID)
	}
	// The same matrix with another fault count is another request too.
	changed := alice
	changed.Faults++
	if _, err := cl.Submit(ctx, changed); err == nil {
		t.Error("resubmission with another fault count acknowledged")
	}
	// alice's own lost-reply resubmission still gets her acknowledgement.
	again, err := cl.Submit(ctx, alice)
	if err != nil || again.ID != alice.ID || again.Campaigns != 1 {
		t.Errorf("alice's resubmission = %+v, %v", again, err)
	}
	if got := len(coord.MatrixList()); got != 2 {
		t.Errorf("queue holds %d submissions, want alice's and the anonymous one", got)
	}
}
