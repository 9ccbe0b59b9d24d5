package main

import (
	"context"
	"fmt"

	"serfi/internal/campaign"
	"serfi/internal/cc"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/mach"
	"serfi/internal/npb"
	"serfi/internal/profile"
	"serfi/internal/prop"
)

// The layer walk of a traced pass: one goroutine drives the public calls an
// engine worker makes for a scenario group — build, machine construction,
// profiled golden run, profile extraction, checkpoint fast-forward, fault
// list, injections — one span per call, plus the isolated pieces an
// injection is made of. Its outcomes must equal the engine's for the same
// faults, so the walk provably measures the same program.

// walkGroup is the fault-free state of one scenario built by the walk.
type walkGroup struct {
	sc     npb.Scenario
	img    *cc.Image
	cfg    mach.Config
	g      *fi.Golden
	cs     *fi.CheckpointSet
	tracer *prop.Tracer
	span   int
}

// walkBuild runs the fault-free phases of one scenario the way the engine
// (and a dist worker) does: profiled golden run, unprofiled checkpoints.
func (p *pass) walkBuild(ctx context.Context, sc npb.Scenario) (*walkGroup, error) {
	wg := &walkGroup{sc: sc}
	wg.span = p.rec.begin("campaign", "scenario group", sc.ID(), -1, 0)
	var err error
	p.sample("build", p.rec.time("build", "npb.BuildScenario", sc.ID(), wg.span, func() {
		wg.img, wg.cfg, err = npb.BuildScenario(sc)
	}))
	if err != nil {
		return nil, err
	}
	gcfg := wg.cfg
	gcfg.Profile = true
	gcfg.SamplePeriod = campaign.DefaultSamplePeriod
	p.sample("fi.golden", p.rec.time("fi", "fi.RunGoldenContext", sc.ID(), wg.span, func() {
		wg.g, err = fi.RunGoldenContext(ctx, wg.img, gcfg, 0)
	}))
	if err != nil {
		return nil, err
	}
	p.sample("profile.extract", p.rec.time("profile", "profile.Extract+Build", sc.ID(), wg.span, func() {
		profile.Extract(wg.img, wg.g.Machine)
		profile.Build(wg.img, wg.g.Machine).CallsTo(profile.RuntimePrefixes...)
	}))
	p.sample("fi.checkpoint_build", p.rec.time("fi", "fi.BuildCheckpointsOpt", sc.ID(), wg.span, func() {
		wg.cs, err = fi.BuildCheckpointsOpt(ctx, wg.img, wg.cfg, wg.g, fi.CheckpointOptions{N: fi.DefaultCheckpoints})
	}))
	if err != nil {
		return nil, err
	}
	wg.tracer = prop.NewTracer(wg.img, wg.cfg, wg.g, wg.cs)
	return wg, nil
}

// close ends the group's span; the pieces are measured first so they nest.
func (p *pass) walkClose(wg *walkGroup) {
	p.sample("fi.classify", p.rec.time("fi", "fi.Classify", wg.sc.ID(), wg.span, func() {
		fi.Classify(wg.g.Machine, wg.g, mach.StopHalted)
	}))
	p.machinePieces(wg.img, wg.cfg, (wg.g.AppStart+wg.g.AppEnd)/2, wg.span)
	p.rec.end(wg.span)
}

// walkCampaign draws one campaign's fault list and injects the picked
// faults, comparing each result with what the product path recorded.
// mismatches counts faults whose outcome, retired or cycle count differ.
func (p *pass) walkCampaign(ctx context.Context, wg *walkGroup, job campaign.ScenarioJob, faults int,
	want []fi.Result, pick func(i int) bool) (walked, mismatches int, err error) {
	var dom fault.Domain
	var list []fi.Fault
	p.sample("fault.list", p.rec.time("fault", "fi.NewDomain+fi.List", job.Key(), wg.span, func() {
		if dom, err = fi.NewDomain(job.Domain, wg.img, wg.cfg, wg.g); err == nil {
			list = fi.List(job.Seed, faults, dom)
		}
	}))
	if err != nil {
		return 0, 0, err
	}
	cs := wg.cs.Clone()
	restoreM := mach.New(wg.cfg)
	for i, f := range list {
		if !pick(i) {
			continue
		}
		req := fmt.Sprintf("%s#%d", job.Key(), i)
		var res fi.Result
		p.sample("fi.inject", p.rec.time("fi", "CheckpointSet.InjectPointContext", req, wg.span, func() {
			res, err = cs.InjectPointContext(ctx, dom, wg.g, f)
		}))
		if err != nil {
			return walked, mismatches, err
		}
		walked++
		if i >= len(want) || want[i].Fault != f || want[i].Outcome != res.Outcome ||
			want[i].Retired != res.Retired || want[i].Cycles != res.Cycles {
			mismatches++
		}
		p.sample("mach.restore", p.rec.time("fi", "CheckpointSet.RestoreNearest", req, wg.span, func() {
			cs.RestoreNearest(restoreM, wg.g.AppStart+f.Index)
		}))
		if fi.IsUnmasked(res.Outcome) {
			var got fi.Outcome
			p.sample("prop.trace", p.rec.time("prop", "prop.Tracer.Trace", req, wg.span, func() {
				_, got, err = wg.tracer.Trace(dom, f)
			}))
			if err != nil {
				return walked, mismatches, err
			}
			if got != res.Outcome {
				mismatches++
			}
		}
	}
	return walked, mismatches, nil
}

// machinePieces times the machine operations an injection is made of, on a
// machine run to mid (a retired-instruction index inside the application; a
// smoke run stops early instead).
func (p *pass) machinePieces(img *cc.Image, cfg mach.Config, mid uint64, parent int) {
	if p.o.quick {
		mid = min(mid, 200_000)
	}
	var m *mach.Machine
	p.sample("mach.construct", p.rec.time("mach", "mach.New+InstallTo", img.ISAName, parent, func() {
		m = mach.New(cfg)
		img.InstallTo(m)
	}))
	m.SetInstrBudget(mid)
	m.Run(runBudget)
	var full, delta *mach.Snapshot
	p.sample("mach.snapshot", p.rec.time("mach", "Machine.Snapshot", img.ISAName, parent, func() { full = m.Snapshot() }))
	m.SetInstrBudget(mid + 200_000)
	m.Run(runBudget)
	p.sample("mach.delta_snapshot", p.rec.time("mach", "Machine.DeltaSnapshot", img.ISAName, parent, func() { delta = m.DeltaSnapshot() }))
	for i := 0; i < 3; i++ {
		p.sample("mach.restore", p.rec.time("mach", "Machine.Restore", img.ISAName, parent, func() { m.Restore(full) }))
		p.sample("mach.restore", p.rec.time("mach", "Machine.Restore", img.ISAName, parent, func() { m.Restore(delta) }))
		equal := false
		p.sample("mach.state_equals", p.rec.time("mach", "Snapshot.StateEquals", img.ISAName, parent, func() { equal = delta.StateEquals(m) }))
		if !equal {
			p.check("restored_state_equals_snapshot", false, "a machine restored from a snapshot does not equal it")
		}
	}
	p.sample("mem.hash", p.rec.time("mem", "Memory.Hash", img.ISAName, parent, func() { pieceSink += m.Mem.Hash() }))
}

// publishPieces turns the piece samples into per-layer metrics (medians).
func (p *pass) publishPieces() {
	p.layerMedian("mach.construct_us", "mach.construct", 1e6)
	p.layerMedian("mach.snapshot_us", "mach.snapshot", 1e6)
	p.layerMedian("mach.delta_snapshot_us", "mach.delta_snapshot", 1e6)
	p.layerMedian("mach.restore_us", "mach.restore", 1e6)
	p.layerMedian("mach.state_equals_us", "mach.state_equals", 1e6)
	p.layerMedian("mem.hash_ms", "mem.hash", 1e3)
	p.layerMedian("mem.check_ns", "mem.check", 1e9)
	p.layerMedian("cache.data_ns_per_access", "cache.data", 1e9)
	p.layerMedian("cache.fetch_ns_per_access", "cache.fetch", 1e9)
	p.layerMedian("isa.decode_ns.armv7", "isa.decode.armv7", 1e9)
	p.layerMedian("isa.decode_ns.armv8", "isa.decode.armv8", 1e9)
	p.layerMedian("fi.classify_us", "fi.classify", 1e6)
	p.layerMedian("fault.list_us", "fault.list", 1e6)
	p.layerMedian("profile.extract_ms", "profile.extract", 1e3)
	p.layerMedian("prop.trace_ms", "prop.trace", 1e3)
	if s := p.samples["prop.trace"]; len(s) > 0 {
		p.layer("prop.traces", float64(len(s)))
	}
	if s := p.samples["fi.inject"]; len(s) > 0 {
		p.layer("fi.inject_p50_ms", median(s)*1e3)
		p.layer("fi.inject_p95_ms", quantile(s, 0.95)*1e3)
	}
}

// layerBudget closes the budget of an inject workload: the share of pool
// time (W workers x wall) that no layer's time on the product path accounts
// for. The product path's spans sit on tracks above 0 (track 0 is the layer
// walk); inject_queue's injection time arrives as progress beats without a
// start, so it is added as a sum.
func (p *pass) layerBudget() {
	if p.poolWall <= 0 {
		return
	}
	p.rec.mu.Lock()
	var product []span
	for _, s := range p.rec.spans {
		if s.TID > 0 {
			product = append(product, s)
		}
	}
	p.rec.mu.Unlock()
	busy := p.beatBusy
	for _, d := range layerTimes(product) {
		busy += d.Seconds()
	}
	p.layer("budget.unattributed_share", 1-busy/(float64(p.w)*p.poolWall))
}
