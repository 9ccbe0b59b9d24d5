package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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

// deepModels are the fault domains of the inject_deep / inject_queue matrix
// (a smoke run keeps the register domain only).
func deepModels(quick bool) []fault.Model {
	if quick {
		return []fault.Model{fault.Reg}
	}
	return []fault.Model{fault.Reg, fault.Mem, fault.CacheTag}
}

// wideScenarios is every SER-1 scenario plus every 2-core OMP/MPI scenario
// of the catalog: all 11 apps on both ISAs, 54 scenarios. A smoke run keeps
// one short one.
func wideScenarios(quick bool) []npb.Scenario {
	if quick {
		return pinnedScenarios(true)[:1]
	}
	var out []npb.Scenario
	for _, sc := range npb.Scenarios() {
		if sc.Mode == npb.Serial || sc.Cores == 2 {
			out = append(out, sc)
		}
	}
	return out
}

func runInjectDeep(p *pass) error {
	faults := p.scaled(16, 2)
	if p.o.quick {
		faults = 2
	}
	return runEngine(p, pinnedScenarios(p.o.quick), deepModels(p.o.quick), faults)
}

func runMatrixWide(p *pass) error {
	faults := p.scaled(2, 1)
	if p.o.quick {
		faults = 2
	}
	return runEngine(p, wideScenarios(p.o.quick), []fault.Model{fault.Reg}, faults)
}

// engineRig is the set-up of an engine workload: the `serfi campaign`
// defaults — file store without fsync, W workers, recorded runs.
type engineRig struct {
	path  string
	store *campaign.FileStore
	jobs  []campaign.ScenarioJob
}

func (r *engineRig) discard() {
	r.store.Close()
	os.Remove(r.path)
}

// timedStore times the Put calls the product path makes on a traced pass;
// samples land under key.
type timedStore struct {
	campaign.Store
	p    *pass
	name string
	key  string
	mu   *sync.Mutex
}

func (s *timedStore) Put(r *campaign.Result) error {
	id := s.p.rec.begin("store", s.name, r.Key(), -1, 1)
	t0 := time.Now()
	err := s.Store.Put(r)
	d := time.Since(t0)
	s.p.rec.end(id)
	s.mu.Lock()
	s.p.sample(s.key, d)
	s.mu.Unlock()
	return err
}

// timedTenants is timedStore for a tenant-scoped backend: every namespace
// view it hands out is timed too.
type timedTenants struct {
	timedStore
	tenants campaign.TenantStore
}

func newTimedTenants(p *pass, st campaign.TenantStore, name, key string) *timedTenants {
	return &timedTenants{timedStore: timedStore{Store: st, p: p, name: name, key: key, mu: new(sync.Mutex)}, tenants: st}
}

func (s *timedTenants) Tenant(ns string) campaign.Store {
	v := s.timedStore
	v.Store = s.tenants.Tenant(ns)
	return &v
}

// engineEvents folds the typed event stream of one product-path run.
type engineEvents struct {
	groups, jobs      int
	injectBusy        float64 // summed JobDone wall seconds
	checkpoints       int
	checkpointBytes   int
	firstRow          time.Duration
	results           map[string]*campaign.Result
	start             time.Time
	done              chan struct{}
	stopAfterCampaign int // a queue has no MatrixDone: stop after this many rows
}

func consumeEvents(ch <-chan campaign.Event, stopAfter int) *engineEvents {
	ev := &engineEvents{results: map[string]*campaign.Result{}, start: time.Now(), done: make(chan struct{}), stopAfterCampaign: stopAfter}
	go func() {
		defer close(ev.done)
		rows := 0
		for e := range ch {
			switch e := e.(type) {
			case campaign.ScenarioStarted:
				ev.groups++
			case campaign.GoldenDone:
				ev.checkpoints += e.Checkpoints
				ev.checkpointBytes += e.CheckpointBytes
			case campaign.JobDone:
				ev.jobs++
				ev.injectBusy += e.WallSec
			case campaign.ScenarioDone:
				rows++
				if e.Err == nil {
					if len(ev.results) == 0 {
						ev.firstRow = time.Since(ev.start)
					}
					ev.results[e.Key] = e.Result
				}
				if ev.stopAfterCampaign > 0 && rows == ev.stopAfterCampaign {
					return
				}
			case campaign.MatrixDone:
				return
			}
		}
	}()
	return ev
}

// rowsDigest hashes canonical JSONL rows independent of their order: the
// rows are sorted, so two stores holding the same campaigns hash equal.
func rowsDigest(blobs ...[]byte) (sha string, rows int) {
	var lines [][]byte
	for _, b := range blobs {
		for _, l := range bytes.Split(b, []byte("\n")) {
			if len(l) > 0 {
				lines = append(lines, l)
			}
		}
	}
	sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
	h := sha256.New()
	for _, l := range lines {
		h.Write(l)
		h.Write([]byte("\n"))
	}
	return hex.EncodeToString(h.Sum(nil)), len(lines)
}

// campaignTotals sums what the inject workloads report from their results.
type campaignTotals struct {
	injections     int
	simulated      uint64
	fromReset      uint64
	pruned         int
	counts         fi.Counts
	incomplete     int // campaigns whose classified total differs from their fault count
	unclassifiedIn int // faults missing a classification
}

func totalsOf(results []*campaign.Result, faults int) campaignTotals {
	var t campaignTotals
	for _, r := range results {
		if r == nil {
			t.incomplete++
			t.unclassifiedIn += faults
			continue
		}
		t.injections += r.Counts.Total()
		t.simulated += r.SimulatedInstr
		t.fromReset += r.FromResetInstr
		t.pruned += r.PrunedRuns
		for o := fi.Outcome(0); o < fi.NumOutcomes; o++ {
			t.counts[o] += r.Counts[o]
		}
		if r.Counts.Total() != r.Faults || r.Faults != faults {
			t.incomplete++
			t.unclassifiedIn += max(0, faults-r.Counts.Total())
		}
	}
	return t
}

// publishInjectTotals reports the metrics all three inject workloads share.
func (p *pass) publishInjectTotals(t campaignTotals, campaigns, faults int, wall, cpu float64, dbBytes int64) {
	want := campaigns * faults
	p.ops(want, t.unclassifiedIn)
	p.check("every_campaign_fully_classified", t.incomplete == 0,
		fmt.Sprintf("%d of %d campaigns do not have Counts.Total() == %d", t.incomplete, campaigns, faults))
	inj := float64(t.injections)
	if inj == 0 {
		return
	}
	p.metric("inj_per_s", inj/wall)
	p.metric("cpu_ms_per_inj", cpu*1e3/inj)
	p.metric("sim_instr_per_inj", float64(t.simulated)/inj)
	p.exact["sim_instr_per_inj"] = float64(t.simulated) / inj
	if dbBytes > 0 {
		p.metric("db_bytes_per_inj", float64(dbBytes)/inj)
		p.exact["db_bytes_per_inj"] = float64(dbBytes) / inj
	}
	for o := fi.Outcome(0); o < fi.NumOutcomes; o++ {
		name := "fi.outcome." + outcomeNames[o]
		p.exact[name] = float64(t.counts[o])
		p.layer(name, float64(t.counts[o]))
	}
	p.headline(inj, wall, cpu)
	p.layer("fi.amortization_x", float64(t.fromReset)/float64(max(t.simulated, 1)))
	p.layer("fi.pruned_share", float64(t.pruned)/inj)
}

var outcomeNames = [fi.NumOutcomes]string{fi.Vanished: "vanished", fi.ONA: "ona", fi.OMM: "omm", fi.UT: "ut", fi.Hang: "hang"}

// publishObsDelta reports the exact per-layer counts the layers export,
// from a before/after snapshot around the product path.
func (p *pass) publishObsDelta(moved obsCounters, injections float64) {
	retired := moved.sum("serfi_mach_retired_instructions_total")
	p.layer("mach.retired_instr", retired)
	if retired > 0 {
		p.layer("mach.fallback_step_share", moved["serfi_mach_fastpath_fallback_steps_total"]/retired)
	}
	p.layer("cache.evictions", moved.sum("serfi_cache_evictions_total"))
	p.layer("cache.writebacks", moved.sum("serfi_cache_writebacks_total"))
	p.layer("mem.snapshot_pages", moved.sum("serfi_mem_snapshot_pages_total"))
	p.layer("mem.restore_pages", moved["serfi_mem_restore_pages_total"])
	if restores := moved.sum("serfi_mem_restores_total"); restores > 0 {
		p.layer("mem.selective_restore_share", moved["serfi_mem_restores_total{selective}"]/restores)
	}
	p.layer("fi.inject_calls", moved["serfi_fi_injections_total"])
	if injections > 0 {
		p.layer("fi.from_reset_share", moved["serfi_fi_from_reset_runs_total"]/injections)
	}
}

// publishWireRequests reports the client round trips this process issued,
// by endpoint.
func (p *pass) publishWireRequests(moved obsCounters) {
	for name, path := range map[string]string{"lease": dist.PathLease, "complete": dist.PathComplete,
		"event": dist.PathEvents, "submit": dist.PathSubmit, "fetch": dist.PathFetch} {
		p.layer("dist.wire_requests."+name, moved["serfi_dist_wire_requests_total{"+path+"}"])
	}
}

// runEngine is inject_deep and matrix_wide: the matrix through
// campaign.Engine with the `serfi campaign` defaults.
func runEngine(p *pass, scs []npb.Scenario, models []fault.Model, faults int) error {
	ctx := context.Background()
	var tr *obs.Tracer
	events := make(chan campaign.Event, 64) // the CLI's buffer: workers never wait on the consumer
	rig, err := setUp(p, func() (*engineRig, error) {
		path := filepath.Join(p.scratch, "results.jsonl")
		st, err := campaign.OpenFileStore(path)
		if err != nil {
			return nil, err
		}
		jobs := campaign.New(campaign.Models(models...)).JobsFor(scs, p.o.seed)
		if err := campaign.ValidateResume(st, jobs, faults); err != nil {
			return nil, err
		}
		return &engineRig{path: path, store: st, jobs: jobs}, nil
	}, (*engineRig).discard)
	if err != nil {
		return err
	}
	defer rig.discard()
	var store campaign.Store = rig.store
	if p.o.trace {
		store = &timedStore{Store: rig.store, p: p, name: "FileStore.Put", key: "campaign.file_put", mu: new(sync.Mutex)}
	}
	opts := []campaign.Option{
		campaign.Faults(faults), campaign.Workers(p.w), campaign.Models(models...), campaign.RecordRuns(),
		campaign.WithStore(store), campaign.WithEvents(events), campaign.WithMetrics(obs.Default),
	}
	trEpoch := time.Now()
	if p.o.trace {
		tr = obs.NewTracer()
		opts = append(opts, campaign.WithTracer(tr))
	}
	eng := campaign.New(opts...)

	obs0 := snapshotObs()
	ev := consumeEvents(events, 0)
	cpu0, t0 := cpuSeconds(), time.Now()
	results, runErr := eng.RunMatrix(ctx, rig.jobs)
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
	<-ev.done
	moved := snapshotObs().since(obs0)
	p.poolWall = wall

	p.check("matrix_ran", runErr == nil, fmt.Sprint(runErr))
	if err := rig.store.Close(); err != nil {
		p.check("store_closed", false, err.Error())
	}
	db, err := os.ReadFile(rig.path)
	if err != nil {
		return err
	}
	var rows int
	p.rowsSHA, rows = rowsDigest(db)
	p.check("one_row_per_campaign", rows == len(rig.jobs), fmt.Sprintf("%d rows for %d campaigns", rows, len(rig.jobs)))
	t := totalsOf(results, faults)
	p.publishInjectTotals(t, len(rig.jobs), faults, wall, cpu, int64(len(db)))
	if !p.o.trace {
		return nil
	}

	// Product-path spans: the engine's own phase tracer, re-homed on the
	// pass's journal, plus the before/after counter delta.
	phase := map[string]float64{}
	for _, s := range tr.Spans() {
		layer := map[string]string{"build": "build", "golden": "fi", "profile": "profile", "checkpoint": "fi", "inject": "fi"}[s.Cat]
		p.rec.add(layer, s.Name, s.Args["campaign"], 10+s.TID, trEpoch, s.Start, s.Dur)
		phase[s.Cat] += s.Dur.Seconds()
	}
	faultFree := phase["build"] + phase["golden"] + phase["profile"] + phase["checkpoint"]
	p.layer("build.s", phase["build"])
	p.layer("build.calls", float64(ev.groups))
	p.layer("fi.golden_s", phase["golden"])
	p.layer("fi.checkpoint_build_s", phase["checkpoint"])
	p.layer("fi.checkpoints", float64(ev.checkpoints))
	p.layer("fi.checkpoint_resident_mb", float64(ev.checkpointBytes)/1e6)
	p.layer("fi.inject_s", phase["inject"])
	if phase["inject"] > 0 {
		p.layer("fi.restore_share", moved["serfi_fi_restore_seconds_sum"]/phase["inject"])
	}
	p.layer("campaign.groups", float64(ev.groups))
	p.layer("campaign.jobs", float64(ev.jobs))
	p.layer("campaign.faultfree_s", faultFree)
	p.layer("campaign.inject_busy_s", phase["inject"])
	p.layer("campaign.pool_util", (faultFree+phase["inject"])/(float64(p.w)*wall))
	p.layer("campaign.first_row_s", ev.firstRow.Seconds())
	p.layerMedian("campaign.file_put_us", "campaign.file_put", 1e6)
	p.layer("store.puts", float64(len(p.samples["campaign.file_put"])))
	p.layer("store.bytes_per_row", float64(len(db))/float64(max(rows, 1)))
	p.publishObsDelta(moved, float64(t.injections))
	p.publishWireRequests(moved) // all zero: the engine path never touches the wire

	// The layer walk over every 4th fault of every campaign.
	byKey := map[string]*campaign.Result{}
	for _, r := range results {
		if r != nil {
			byKey[r.Key()] = r
		}
	}
	walked, mismatches := 0, 0
	imageBytes := 0.0
	for i := 0; i < len(rig.jobs); {
		j := i
		for j < len(rig.jobs) && rig.jobs[j].Scenario == rig.jobs[i].Scenario {
			j++
		}
		wg, err := p.walkBuild(ctx, rig.jobs[i].Scenario)
		if err != nil {
			return fmt.Errorf("layer walk: %w", err)
		}
		imageBytes += float64(wg.img.HeapBase)
		for _, job := range rig.jobs[i:j] {
			var want []fi.Result
			if r := byKey[job.Key()]; r != nil {
				want = r.Runs
			}
			n, bad, err := p.walkCampaign(ctx, wg, job, faults, want, func(i int) bool { return i%4 == 0 })
			if err != nil {
				return fmt.Errorf("layer walk: %w", err)
			}
			walked, mismatches = walked+n, mismatches+bad
		}
		p.walkClose(wg)
		wg.cs.Close()
		i = j
	}
	p.layer("build.image_bytes", imageBytes)
	p.check("layer_walk_agrees_with_engine", mismatches == 0 && walked > 0,
		fmt.Sprintf("%d of %d walked faults differ from the engine's outcome/retired/cycles", mismatches, walked))
	p.publishPieces()
	return nil
}
