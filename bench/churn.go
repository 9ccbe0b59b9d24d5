package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/dist"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
)

// churnSizes are the op counts of one service_churn pass.
type churnSizes struct {
	tenants    int // tenant namespaces, split between the W clients
	keys       int // rows per tenant put in phase (a), out of the 130 x 7 keyspace
	overwrites int // phase (b) iterations in total (each: delete+put, two gets, every 8th a query)
	wireCycles int // phase (c) cycles in total (each: submit, matrices, status, fetch)
	matrix     int // campaigns per phase (c) submission
	faults     int // fault count of the seed campaign, so of every relabelled row
}

func (p *pass) churnSizes() churnSizes {
	if p.o.quick {
		return churnSizes{tenants: 2, keys: 8, overwrites: 12, wireCycles: 4, matrix: 2, faults: 2}
	}
	return churnSizes{tenants: 8, keys: p.scaled(900, 16), overwrites: p.scaled(640, 16), wireCycles: p.scaled(400, 8), matrix: 8, faults: 16}
}

// churnQueue is the service of service_churn: the serve -data configuration
// with small segments, so they rotate within one pass.
var churnQueue = queueOpts{segmentBytes: 64 << 10}

// churnRig is the set-up of service_churn: rows to write and an empty
// service to write them to.
type churnRig struct {
	rows  []*campaign.Result // one per key of the keyspace, shared by all tenants
	queue *queueRig
}

// seedCampaign runs the one tiny real campaign whose results every churn
// row is a relabelled copy of.
func seedCampaign(w, faults int, models []fault.Model) ([]*campaign.Result, error) {
	eng := campaign.New(campaign.Faults(faults), campaign.Workers(w), campaign.Models(models...), campaign.RecordRuns())
	jobs := eng.JobsFor([]npb.Scenario{{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}}, 1)
	return eng.RunMatrix(context.Background(), jobs)
}

// relabel spreads the seed campaign's results over the whole keyspace (every
// catalog scenario under every fault model) with the seeds Engine.JobsFor
// assigns, so a submission naming a stored campaign is answered from the
// store.
func relabel(templates []*campaign.Result, baseSeed int64) []*campaign.Result {
	models := fault.Models()
	jobs := campaign.New(campaign.Models(models...)).JobsFor(npb.Scenarios(), baseSeed)
	rows := make([]*campaign.Result, len(jobs))
	for i, job := range jobs {
		tpl := templates[i%len(templates)]
		r := &campaign.Result{
			Scenario: job.Scenario, Domain: job.Domain, Faults: tpl.Faults, Seed: job.Seed,
			Counts: tpl.Counts, Golden: tpl.Golden, Features: tpl.Features, APICalls: tpl.APICalls,
			RecordRuns: true, Runs: make([]fi.Result, len(tpl.Runs)),
		}
		for k, run := range tpl.Runs {
			run.Fault.Domain = job.Domain
			r.Runs[k] = run
		}
		rows[i] = r
	}
	return rows
}

func tenantName(i int) string { return fmt.Sprintf("t%02d", i) }

// tenantDigest hashes one tenant's rows in key order, as the store's own
// codec writes them.
func tenantDigest(view campaign.Store) (string, int) {
	rows := view.Query(campaign.Query{})
	var buf bytes.Buffer
	campaign.WriteDB(&buf, rows)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), len(rows)
}

// deleter is the tombstone call of a segmented tenant view.
type deleter interface{ Delete(key string) error }

// churnClient is one closed-loop client; its timings stay local until the
// phase ends, so clients never share a map.
type churnClient struct {
	p        *pass
	id       int
	tenants  []string
	samples  map[string][]float64
	ops      int
	bad      int
	firstErr error
	puts     int
	rows     int // rows returned by Get and Query
}

func (c *churnClient) timed(layer, name, key, req string, f func() error) {
	id := c.p.rec.begin(layer, name, req, -1, c.id)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	c.p.rec.end(id)
	c.samples[key] = append(c.samples[key], d.Seconds())
	c.ops++
	if err != nil {
		c.bad++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("%s %s: %w", name, req, err)
		}
	}
}

// eachClient runs f on every client at once and returns the phase's wall
// time.
func eachClient(clients []*churnClient, f func(*churnClient)) float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *churnClient) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// runServiceChurn exercises store, codec, journal and wire with no
// simulation in the timed section.
func runServiceChurn(p *pass) error {
	ctx := context.Background()
	sz := p.churnSizes()
	n := 0
	rig, err := setUp(p, func() (*churnRig, error) {
		templates, err := seedCampaign(p.w, sz.faults, deepModels(p.o.quick))
		if err != nil {
			return nil, err
		}
		n++
		dir := filepath.Join(p.scratch, fmt.Sprintf("churn-%d", n))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		q, err := openQueue(p, dir, churnQueue)
		if err != nil {
			return nil, err
		}
		return &churnRig{rows: relabel(templates, p.o.seed), queue: q}, nil
	}, func(r *churnRig) {
		r.queue.close()
		os.RemoveAll(r.queue.dir)
	})
	if err != nil {
		return err
	}
	q := rig.queue
	defer q.close()
	rows := rig.rows[:min(sz.keys, len(rig.rows))]

	clients := make([]*churnClient, p.w)
	for i := range clients {
		clients[i] = &churnClient{p: p, id: i, samples: map[string][]float64{}}
	}
	for t := 0; t < sz.tenants; t++ {
		c := clients[t%p.w]
		c.tenants = append(c.tenants, tenantName(t))
	}
	view := func(ns string) campaign.Store { return q.store.Tenant(ns) }

	obs0 := snapshotObs()
	cpu0 := cpuSeconds()

	// (a) fsynced puts; segments rotate.
	wallA := eachClient(clients, func(c *churnClient) {
		for _, ns := range c.tenants {
			v := view(ns)
			for _, r := range rows {
				c.timed("store", "SegmentedStore.Put", "store.put", ns+"/"+r.Key(), func() error { return v.Put(r) })
				c.puts++
			}
		}
	})

	// (b) overwrites (garbage, so background compaction) beside reads of own
	// and other tenants. The op mix comes from the seed. Overwrites stay in
	// the first half of the keys and reads of other tenants in the second,
	// so a read never lands between another client's delete and its put.
	apps := npb.Apps()
	models := fault.Models()
	wallB := eachClient(clients, func(c *churnClient) {
		if len(c.tenants) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(p.o.seed + int64(c.id)))
		for i := 0; i < sz.overwrites/len(clients); i++ {
			own := c.tenants[rng.Intn(len(c.tenants))]
			other := tenantName(rng.Intn(sz.tenants))
			r := rows[rng.Intn(len(rows)/2)]
			v := view(own)
			c.timed("store", "SegmentedStore.Delete", "store.delete", own+"/"+r.Key(), func() error { return v.(deleter).Delete(r.Key()) })
			c.timed("store", "SegmentedStore.Put", "store.put", own+"/"+r.Key(), func() error { return v.Put(r) })
			c.puts++
			for _, ns := range []string{own, other} {
				key := rows[len(rows)/2+rng.Intn(len(rows)-len(rows)/2)].Key()
				c.timed("store", "SegmentedStore.Get", "store.get", ns+"/"+key, func() error {
					if _, ok := view(ns).Get(key); !ok {
						return fmt.Errorf("row %s/%s missing", ns, key)
					}
					c.rows++
					return nil
				})
			}
			if i%8 == 0 {
				ns := own
				if i%16 == 0 {
					ns = other
				}
				query := campaign.Query{Apps: []string{apps[rng.Intn(len(apps))].Name}, Domains: []fault.Model{models[rng.Intn(len(models))]}, HasRuns: true}
				c.timed("store", "SegmentedStore.Query", "store.query", ns, func() error {
					c.rows += len(view(ns).Query(query))
					return nil
				})
			}
		}
	})
	putsAB := 0
	rowsRead := 0
	for _, c := range clients {
		putsAB += c.puts
		rowsRead += c.rows
	}

	// (c) wire: submissions the store already answers (journaled), listings,
	// status, fetch — every call a full loopback round trip.
	wireOps := 0
	var wireMu sync.Mutex
	wallC := eachClient(clients, func(c *churnClient) {
		if len(c.tenants) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(p.o.seed*7919 + int64(c.id)))
		done := 0
		for i := 0; i < sz.wireCycles/len(clients); i++ {
			ns := c.tenants[rng.Intn(len(c.tenants))]
			lo := rng.Intn(max(1, len(rows)-sz.matrix))
			jobs := make([]campaign.ScenarioJob, 0, sz.matrix)
			for _, r := range rows[lo:min(lo+sz.matrix, len(rows))] {
				jobs = append(jobs, campaign.ScenarioJob{Scenario: r.Scenario, Domain: r.Domain, Seed: r.Seed})
			}
			var id string
			c.timed("dist", "Client.Submit", "dist.submit", ns, func() error {
				reply, err := q.client.Submit(ctx, dist.SubmitRequest{Tenant: ns, Jobs: dist.WireJobs(jobs), Faults: sz.faults, RecordRuns: true})
				if err == nil && (reply.Skipped != len(jobs) || reply.Shards != 0) {
					err = fmt.Errorf("submission %s not answered from the store: %+v", reply.ID, reply)
				}
				id = reply.ID
				return err
			})
			c.timed("dist", "Client.Matrices", "dist.matrices", ns, func() error { _, err := q.client.Matrices(ctx); return err })
			c.timed("dist", "Client.Status", "dist.status", ns, func() error { _, err := q.client.Status(ctx); return err })
			c.timed("dist", "Client.Fetch", "dist.fetch", id, func() error {
				reply, err := q.client.Fetch(ctx, id)
				if err == nil && reply.State != "done" {
					err = fmt.Errorf("submission %s is %s", id, reply.State)
				}
				return err
			})
			done += 4
		}
		wireMu.Lock()
		wireOps += done
		wireMu.Unlock()
	})
	cpuABC := cpuSeconds() - cpu0 // read where the wall clock of (c) stops

	// Untimed: what the store holds now, for the reopen check and the report.
	before := map[string]string{}
	liveRows, segments, garbage := 0, 0, 0
	for t := 0; t < sz.tenants; t++ {
		ns := tenantName(t)
		var nrows int
		before[ns], nrows = tenantDigest(view(ns))
		liveRows += nrows
		segments += q.store.Segments(ns)
		garbage += q.store.Garbage(ns)
	}
	tc := time.Now()
	err = q.store.Compact(tenantName(0))
	compact := time.Since(tc)
	p.check("compact", err == nil, fmt.Sprint(err))
	storeBytes := dirBytes(filepath.Join(q.dir, "store"))

	// (d) restart: close, reopen store and queue, first query per tenant.
	cpu1 := cpuSeconds()
	firstQueryRows := 0
	t0 := time.Now()
	q.close()
	reopened, err := openQueue(p, q.dir, churnQueue)
	if err == nil {
		for t := 0; t < sz.tenants; t++ {
			firstQueryRows += len(reopened.store.Tenant(tenantName(t)).Query(campaign.Query{}))
		}
	}
	wallD := time.Since(t0).Seconds()
	cpu := cpuABC + cpuSeconds() - cpu1
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer reopened.close()
	moved := snapshotObs().since(obs0)

	same := firstQueryRows == liveRows
	for t := 0; t < sz.tenants; t++ {
		ns := tenantName(t)
		if after, _ := tenantDigest(reopened.store.Tenant(ns)); after != before[ns] {
			same = false
		}
	}
	p.check("rows_survive_reopen", same, "a tenant's row digest after reopen differs from the digest before Close")
	restored := len(reopened.coord.MatrixList())
	p.check("queue_restored", restored*4 == wireOps, fmt.Sprintf("%d submissions restored, %d made", restored, wireOps/4))
	retired := moved.sum("serfi_mach_retired_instructions_total")
	p.check("no_simulation_in_timed_section", retired == 0, fmt.Sprintf("%g guest instructions retired", retired))

	ops, bad := sz.tenants, 0 // the first queries after reopen
	all := map[string][]float64{}
	var firstErr error
	for _, c := range clients {
		ops += c.ops
		bad += c.bad
		if firstErr == nil {
			firstErr = c.firstErr
		}
		for k, s := range c.samples {
			all[k] = append(all[k], s...)
		}
	}
	for k, s := range all {
		p.samples[k] = s
	}
	p.ops(ops, bad)
	p.check("client_operations", bad == 0, fmt.Sprintf("%d failed, first: %v", bad, firstErr))
	p.metric("put_rows_per_s", float64(putsAB)/(wallA+wallB))
	p.metric("read_rows_per_s", float64(rowsRead)/wallB)
	p.metric("wire_ops_per_s", float64(wireOps)/wallC)
	p.metric("reopen_s", wallD)
	p.headline(float64(ops), wallA+wallB+wallC+wallD, cpu)
	digests := make([]byte, 0, 64*sz.tenants)
	for t := 0; t < sz.tenants; t++ {
		digests = append(digests, before[tenantName(t)]...)
	}
	all256 := sha256.Sum256(digests)
	p.rowsSHA = hex.EncodeToString(all256[:])
	p.exact["store.puts"] = float64(putsAB)
	p.exact["store.live_rows"] = float64(liveRows)

	p.layer("mach.retired_instr", retired)
	p.publishPutLatency()
	p.layerMedian("store.delete_us", "store.delete", 1e6)
	p.layerMedian("store.get_us", "store.get", 1e6)
	p.layerMedian("store.query_ms", "store.query", 1e3)
	p.layer("store.compact_ms", compact.Seconds()*1e3)
	p.layer("store.open_ms", reopened.openStore.Seconds()*1e3)
	p.layer("store.segments", float64(segments))
	p.layer("store.garbage_rows", float64(garbage))
	p.layer("store.bytes_per_row", float64(storeBytes)/float64(max(liveRows, 1)))
	p.layerMedian("dist.submit_ms", "dist.submit", 1e3)
	p.layerMedian("dist.fetch_ms", "dist.fetch", 1e3)
	p.layerMedian("dist.status_us", "dist.status", 1e6)
	p.layer("dist.restore_queue_ms", reopened.restoreQueue.Seconds()*1e3)
	p.publishWireRequests(moved)
	if p.o.trace {
		return p.probeJournalAppend(p.scratch, dist.JournalEntry{Op: "cancel"})
	}
	return nil
}
