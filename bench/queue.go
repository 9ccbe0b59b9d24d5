package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/dist"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
	"serfi/internal/obs"
)

// queueShardSize is the lease granularity of the service workloads.
const queueShardSize = 4

// queueRig is the `serfi serve -data` configuration in one process: a
// journaled queue over an fsynced segmented store, and loopback workers
// that share W slots.
type queueRig struct {
	p       *pass
	dir     string
	store   *campaign.SegmentedStore
	coord   *dist.Coordinator
	journal *dist.Journal
	client  *dist.Client
	events  chan campaign.Event
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	closed                  bool
	opened                  time.Time     // when the store came up
	openStore, restoreQueue time.Duration // how long OpenSegmentedStore and RestoreQueue took
}

// SegmentedStore.Close clears the compaction queue field its background
// goroutine ranges over; if Close wins the race with that goroutine's first
// instruction, the goroutine blocks on a nil channel and Close waits for it
// forever (the store is outside this benchmark's paths; `go test -race`
// reports the same race). closeTimeout is the watchdog that turns such a
// hang into a failed check and a non-zero exit. closeGrace only makes the
// hang rare: a store younger than this waits before it is closed. A store
// that served a workload is far older, so no timed section sleeps here.
const (
	closeTimeout = 10 * time.Second
	closeGrace   = 2 * time.Millisecond
)

// closeStore closes st under the watchdog.
func closeStore(st *campaign.SegmentedStore, opened time.Time) error {
	time.Sleep(closeGrace - time.Since(opened))
	done := make(chan error, 1)
	go func() { done <- st.Close() }()
	select {
	case err := <-done:
		return err
	case <-time.After(closeTimeout):
		return fmt.Errorf("SegmentedStore.Close still blocked after %v", closeTimeout)
	}
}

// queueOpts are the knobs the workloads turn on the service.
type queueOpts struct {
	events       chan campaign.Event
	wrap         func(campaign.TenantStore) campaign.Store // timing wrapper between coordinator and store
	segmentBytes int64                                     // 0: the store's default rotation size
}

// openQueue opens (or reopens) the service over dir and notes how long the
// store and the queue took to come up.
func openQueue(p *pass, dir string, o queueOpts) (*queueRig, error) {
	t0 := time.Now()
	st, err := campaign.OpenSegmentedStore(filepath.Join(dir, "store"),
		campaign.SegmentSync(), campaign.CompactAfter(8), campaign.SegmentBytes(o.segmentBytes))
	openStore := time.Since(t0)
	if err != nil {
		return nil, err
	}
	var backing campaign.Store = st
	if o.wrap != nil {
		backing = o.wrap(st)
	}
	opts := []dist.CoordOption{dist.ShardSize(queueShardSize), dist.WithStore(backing)}
	if o.events != nil {
		opts = append(opts, dist.WithEvents(o.events))
	}
	t0 = time.Now()
	coord, journal, err := dist.RestoreQueue(filepath.Join(dir, "queue.jsonl"), opts...)
	restoreQueue := time.Since(t0)
	if err != nil {
		closeStore(st, t0)
		return nil, err
	}
	return &queueRig{p: p, dir: dir, store: st, coord: coord, journal: journal, events: o.events,
		client: dist.NewLoopbackClient(coord.Handler()), opened: time.Now(), openStore: openStore, restoreQueue: restoreQueue}, nil
}

// startWorkers joins at most two loopback workers that split w slots.
func (q *queueRig) startWorkers(w int) {
	ctx, cancel := context.WithCancel(context.Background())
	q.cancel = cancel
	n := min(2, w)
	for i := 0; i < n; i++ {
		slots := w / n
		if i < w%n {
			slots++
		}
		wk := dist.NewWorker(q.client, dist.Name(fmt.Sprintf("bench-w%d", i)), dist.Parallel(slots))
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			wk.Run(ctx) // returns on cancel; shard failures travel in the results
		}()
	}
}

// close stops the workers and closes journal and store, in the order
// `serfi serve` shuts down; an error (or a store that never closes) is a
// failed check. Closing twice is harmless, so callers defer it and also
// close early where the closed files are what they measure.
func (q *queueRig) close() {
	if q.closed {
		return
	}
	q.closed = true
	if q.cancel != nil {
		q.cancel()
		q.wg.Wait()
	}
	err := q.journal.Close()
	if cerr := closeStore(q.store, q.opened); err == nil {
		err = cerr
	}
	if err != nil {
		q.p.check("service_closed", false, err.Error())
	}
}

// dirBytes sums the regular files under root.
func dirBytes(root string) int64 {
	var total int64
	filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// tenantMatrix is one submission of the inject_queue plan.
type tenantMatrix struct {
	tenant string
	jobs   []campaign.ScenarioJob
}

// queuePlan splits the scenarios between a large and a small tenant in the
// seeded submission order: alice gets matrices of two scenarios each, bob
// (about a sixth of the work) matrices of one.
func queuePlan(scs []npb.Scenario, models []fault.Model, seed int64) (alice, bob []tenantMatrix) {
	order := rand.New(rand.NewSource(seed)).Perm(len(scs))
	shuffled := make([]npb.Scenario, len(scs))
	for i, j := range order {
		shuffled[i] = scs[j]
	}
	nBob := max(1, len(scs)/6)
	eng := campaign.New(campaign.Models(models...))
	rest := shuffled[:len(scs)-nBob]
	for i := 0; i < len(rest); i += 2 {
		alice = append(alice, tenantMatrix{"alice", eng.JobsFor(rest[i:min(i+2, len(rest))], seed)})
	}
	for _, sc := range shuffled[len(scs)-nBob:] {
		bob = append(bob, tenantMatrix{"bob", eng.JobsFor([]npb.Scenario{sc}, seed)})
	}
	return alice, bob
}

// runInjectQueue is the inject_deep matrix through the service path.
func runInjectQueue(p *pass) error {
	ctx := context.Background()
	scs := pinnedScenarios(p.o.quick)
	faults := p.scaled(16, 2)
	if p.o.quick {
		faults = 2
	}
	alice, bob := queuePlan(scs, deepModels(p.o.quick), p.o.seed)
	plan := append(append([]tenantMatrix(nil), alice...), bob...)
	campaigns := 0
	for _, m := range plan {
		campaigns += len(m.jobs)
	}

	var wrap func(campaign.TenantStore) campaign.Store
	if p.o.trace {
		wrap = func(st campaign.TenantStore) campaign.Store {
			return newTimedTenants(p, st, "SegmentedStore.Put", "store.put")
		}
	}
	events := make(chan campaign.Event, 64)
	n := 0
	rig, err := setUp(p, func() (*queueRig, error) {
		n++
		dir := filepath.Join(p.scratch, fmt.Sprintf("queue-%d", n))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		q, err := openQueue(p, dir, queueOpts{events: events, wrap: wrap})
		if err != nil {
			return nil, err
		}
		q.startWorkers(p.w)
		return q, nil
	}, func(q *queueRig) {
		q.close()
		os.RemoveAll(q.dir)
	})
	if err != nil {
		return err
	}
	defer rig.close()

	obs0 := snapshotObs()
	ev := consumeEvents(events, campaigns)
	var mu sync.Mutex
	var lastDone, bobDone time.Time
	var waits sync.WaitGroup
	ids := make([]string, 0, len(plan))
	submitted, refused := 0, 0
	cpu0, t0 := cpuSeconds(), time.Now()
	var bobStart time.Time
	for _, m := range plan {
		if m.tenant == "bob" && bobStart.IsZero() {
			bobStart = time.Now()
		}
		var reply dist.SubmitReply
		var serr error
		p.sample("dist.submit", p.rec.time("dist", "Client.Submit", m.tenant, -1, func() {
			reply, serr = rig.client.Submit(ctx, dist.SubmitRequest{
				Tenant: m.tenant, Jobs: dist.WireJobs(m.jobs), Faults: faults, RecordRuns: true})
		}))
		submitted++
		if serr != nil {
			refused++
			p.check("submit_accepted", false, serr.Error())
			continue
		}
		ids = append(ids, reply.ID)
		waits.Add(1)
		go func(id, tenant string) {
			defer waits.Done()
			rig.coord.WaitSubmission(id)
			now := time.Now()
			mu.Lock()
			if now.After(lastDone) {
				lastDone = now
			}
			if tenant == "bob" && now.After(bobDone) {
				bobDone = now
			}
			mu.Unlock()
		}(reply.ID, m.tenant)
	}
	waits.Wait()
	wall, cpu := lastDone.Sub(t0).Seconds(), cpuSeconds()-cpu0
	p.poolWall = wall
	moved := snapshotObs().since(obs0)
	p.ops(submitted, refused)
	if refused > 0 {
		return fmt.Errorf("%d submissions refused", refused)
	}
	<-ev.done

	// Outside the timed section: states, fetched rows, checks.
	notDone := 0
	for _, ms := range rig.coord.MatrixList() {
		if ms.State != "done" {
			notDone++
		}
	}
	p.ops(len(ids), notDone)
	p.check("every_submission_done", notDone == 0, fmt.Sprintf("%d submissions are not in state done", notDone))
	var blobs [][]byte
	for _, id := range ids {
		var reply dist.FetchReply
		var ferr error
		p.sample("dist.fetch", p.rec.time("dist", "Client.Fetch", id, -1, func() { reply, ferr = rig.client.Fetch(ctx, id) }))
		p.ops(1, 0)
		if ferr != nil {
			p.check("fetch", false, ferr.Error())
			continue
		}
		blobs = append(blobs, []byte(reply.DB))
	}
	var rows int
	p.rowsSHA, rows = rowsDigest(blobs...)
	p.check("one_row_per_campaign", rows == campaigns, fmt.Sprintf("%d rows for %d campaigns", rows, campaigns))
	for i := 0; i < 5; i++ {
		p.sample("dist.status", p.rec.time("dist", "Client.Status", "", -1, func() { rig.client.Status(ctx) }))
	}
	status := rig.coord.Status()
	segments := 0
	for _, ns := range rig.store.TenantNames() {
		segments += rig.store.Segments(ns)
	}

	wire := snapshotObs().since(obs0) // taken after the fetches, so that they count
	rig.close()
	dbBytes := dirBytes(filepath.Join(rig.dir, "store"))

	results := make([]*campaign.Result, 0, campaigns)
	for _, m := range plan {
		for _, job := range m.jobs {
			results = append(results, ev.results[job.Key()]) // nil when the campaign failed
		}
	}
	t := totalsOf(results, faults)
	p.publishInjectTotals(t, campaigns, faults, wall, cpu, dbBytes)
	p.metric("small_tenant_done_s", bobDone.Sub(bobStart).Seconds())
	if !p.o.trace {
		return nil
	}

	p.beatBusy = ev.injectBusy
	leases := moved["serfi_dist_wire_requests_total{/v1/lease}"]
	p.layer("fi.inject_s", ev.injectBusy)
	p.layer("campaign.jobs", float64(ev.jobs))
	p.layer("campaign.inject_busy_s", ev.injectBusy)
	p.layer("campaign.pool_util", ev.injectBusy/(float64(p.w)*wall))
	p.layer("campaign.first_row_s", ev.firstRow.Seconds())
	p.publishPutLatency()
	p.layer("store.segments", float64(segments))
	p.layer("store.bytes_per_row", float64(dbBytes)/float64(max(rows, 1)))
	p.layer("dist.shards", float64(status.Shards))
	p.layer("dist.leases_reissued", float64(status.Reissued))
	if leases > 0 {
		p.layer("dist.empty_lease_share", max(0, leases-float64(status.Shards+status.Reissued))/leases)
	}
	p.layerMedian("dist.submit_ms", "dist.submit", 1e3)
	p.layerMedian("dist.fetch_ms", "dist.fetch", 1e3)
	p.layerMedian("dist.status_us", "dist.status", 1e6)
	if moved["serfi_fi_injections_total"] > 0 && ev.injectBusy > 0 {
		p.layer("fi.restore_share", moved["serfi_fi_restore_seconds_sum"]/ev.injectBusy)
	}
	p.publishObsDelta(moved, float64(t.injections))
	p.publishWireRequests(wire)

	// Restart: reopen the closed service the way `serfi serve` would.
	var reopened *queueRig
	p.rec.time("dist", "OpenSegmentedStore+RestoreQueue", "", -1, func() { reopened, err = openQueue(p, rig.dir, queueOpts{}) })
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	p.layer("store.open_ms", reopened.openStore.Seconds()*1e3)
	p.layer("dist.restore_queue_ms", reopened.restoreQueue.Seconds()*1e3)
	reopened.close()

	byKey := map[string]*campaign.Result{}
	for _, r := range results {
		if r != nil {
			byKey[r.Key()] = r
		}
	}
	if err := p.walkAsWorker(ctx, plan, faults, byKey); err != nil {
		return fmt.Errorf("layer walk: %w", err)
	}
	p.publishPieces()
	return nil
}

// walkAsWorker is the layer walk of inject_queue: the harness joins a fresh
// queue as its only worker, so every wire call is its own span. The queue
// holds the first quarter of each campaign's fault list (a fault list is a
// prefix of any longer list at the same seed), and what the harness injects
// must equal what the product path recorded for those faults.
func (p *pass) walkAsWorker(ctx context.Context, plan []tenantMatrix, faults int, want map[string]*campaign.Result) error {
	dir := filepath.Join(p.scratch, "queue-walk")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	q, err := openQueue(p, dir, queueOpts{})
	if err != nil {
		return err
	}
	defer q.close()
	walkFaults := max(1, faults/4)
	shards := 0
	for _, m := range plan {
		reply, err := q.client.Submit(ctx, dist.SubmitRequest{Tenant: m.tenant, Jobs: dist.WireJobs(m.jobs), Faults: walkFaults, RecordRuns: true})
		if err != nil {
			return err
		}
		shards += reply.Shards
	}

	if err := p.probeJournalAppend(dir, dist.JournalEntry{Op: "submit", Tenant: "alice", Faults: faults, Jobs: dist.WireJobs(plan[0].jobs)}); err != nil {
		return err
	}

	type domList struct {
		dom    fault.Domain
		faults []fi.Fault
	}
	groups := map[string]*walkGroup{}
	lists := map[string]*domList{}
	var order []string
	walked, mismatches, wireBytes := 0, 0, 0
	for done := 0; done < shards; {
		var reply dist.LeaseReply
		p.sample("dist.lease", p.rec.time("dist", "Client.LeaseCapacity", "", -1, func() {
			reply, err = q.client.LeaseCapacity(ctx, "bench-walk", 1)
		}))
		if err != nil {
			return err
		}
		l := reply.Lease
		if l == nil {
			return fmt.Errorf("queue handed out no work with %d of %d shards open", shards-done, shards)
		}
		wg := groups[l.Scenario]
		if wg == nil {
			sc, err := npb.ParseID(l.Scenario)
			if err != nil {
				return err
			}
			if wg, err = p.walkBuild(ctx, sc); err != nil {
				return err
			}
			groups[l.Scenario] = wg
			order = append(order, l.Scenario)
		}
		dl := lists[l.Key]
		if dl == nil {
			model, err := fault.ParseModel(l.Domain)
			if err != nil {
				return err
			}
			dl = &domList{}
			p.sample("fault.list", p.rec.time("fault", "fi.NewDomain+fi.List", l.Key, wg.span, func() {
				if dl.dom, err = fi.NewDomain(model, wg.img, wg.cfg, wg.g); err == nil {
					dl.faults = fi.List(l.Seed, l.Faults, dl.dom)
				}
			}))
			if err != nil {
				return err
			}
			lists[l.Key] = dl
		}
		cs := wg.cs.Clone()
		req := fmt.Sprintf("%s#%d-%d", l.Key, l.Lo, l.Hi)
		var runs []fi.Result
		bt0 := time.Now()
		d := p.rec.time("fi", "CheckpointSet.InjectRangeContext", req, wg.span, func() {
			runs, err = cs.InjectRangeContext(ctx, dl.dom, wg.g, dl.faults, l.Lo, l.Hi)
		})
		if err != nil {
			return err
		}
		for range runs {
			p.sample("fi.inject", d/time.Duration(len(runs)))
		}
		p.rec.time("dist", "Client.Event", req, wg.span, func() {
			q.client.Event(ctx, dist.EventRequest{Worker: "bench-walk", LeaseID: l.ID, Key: l.Key, Lo: l.Lo, Hi: l.Hi,
				WallSec: time.Since(bt0).Seconds(), Scenario: l.Scenario, Domain: l.Domain})
		})
		complete := dist.CompleteRequest{Worker: "bench-walk", LeaseID: l.ID, Key: l.Key, Lo: l.Lo, Hi: l.Hi, Runs: runs,
			Golden:   campaign.GoldenSummary{AppStart: wg.g.AppStart, AppEnd: wg.g.AppEnd, Retired: wg.g.Retired, Cycles: wg.g.Cycles},
			WallSec:  time.Since(bt0).Seconds(),
			Metrics:  obs.Default.Snapshot(),
			Features: map[string]float64{},
		}
		complete.SimulatedInstr, complete.FromResetInstr = cs.SimulatedInstructions()
		if b, merr := json.Marshal(complete); merr == nil {
			wireBytes += len(b)
		}
		var creply dist.CompleteReply
		p.sample("dist.complete", p.rec.time("dist", "Client.Complete", req, wg.span, func() {
			creply, err = q.client.Complete(ctx, complete)
		}))
		if err != nil {
			return err
		}
		if !creply.Accepted {
			return fmt.Errorf("coordinator did not accept shard %s", req)
		}
		done++
		var ref []fi.Result
		if r := want[l.Key]; r != nil {
			ref = r.Runs
		}
		for i, r := range runs {
			walked++
			k := l.Lo + i
			if k >= len(ref) || ref[k].Fault != r.Fault || ref[k].Outcome != r.Outcome ||
				ref[k].Retired != r.Retired || ref[k].Cycles != r.Cycles {
				mismatches++
			}
		}
	}
	sort.Strings(order)
	imageBytes := 0.0
	for _, id := range order {
		imageBytes += float64(groups[id].img.HeapBase)
		p.walkClose(groups[id])
		groups[id].cs.Close()
	}
	p.layer("build.image_bytes", imageBytes)
	p.layer("build.calls", float64(len(order)))
	p.layer("build.s", sum(p.samples["build"]))
	p.layerMedian("dist.lease_us_p50", "dist.lease", 1e6)
	p.layerMedian("dist.complete_us_p50", "dist.complete", 1e6)
	if walked > 0 {
		p.layer("dist.wire_bytes_per_inj", float64(wireBytes)/float64(walked))
	}
	p.layer("fi.golden_s", sum(p.samples["fi.golden"]))
	p.layer("fi.checkpoint_build_s", sum(p.samples["fi.checkpoint_build"]))
	p.check("layer_walk_agrees_with_queue", mismatches == 0 && walked > 0,
		fmt.Sprintf("%d of %d walked faults differ from the queue's outcome/retired/cycles", mismatches, walked))
	return nil
}

// probeJournalAppend times the fsynced append a queue operation pays, on a
// journal of its own under dir.
func (p *pass) probeJournalAppend(dir string, entry dist.JournalEntry) error {
	j, err := dist.OpenJournal(filepath.Join(dir, "append-probe.jsonl"))
	if err != nil {
		return err
	}
	defer j.Close()
	for i := 0; i < 20; i++ {
		entry.ID = fmt.Sprintf("probe%d", i)
		p.sample("dist.journal_append", p.rec.time("dist", "Journal.Append", entry.ID, -1, func() { err = j.Append(entry) }))
		if err != nil {
			return err
		}
	}
	p.layerMedian("dist.journal_append_us", "dist.journal_append", 1e6)
	return nil
}

// publishPutLatency reports the segmented store's Put count and latencies.
func (p *pass) publishPutLatency() {
	s := p.samples["store.put"]
	p.layer("store.puts", float64(len(s)))
	if len(s) > 0 {
		p.layer("store.put_us_p50", median(s)*1e6)
		p.layer("store.put_us_p99", quantile(s, 0.99)*1e6)
	}
}
