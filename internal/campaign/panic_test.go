package campaign_test

import (
	"context"
	"strings"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/cc"
	"serfi/internal/dist"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/mach"
	"serfi/internal/npb"
	"serfi/internal/obs"
)

// explodingDomain samples like the real burst domain and panics on Apply,
// standing in for an interpreter bug that only one fault reaches.
type explodingDomain struct{ fault.Domain }

func (explodingDomain) Apply(*mach.Machine, fault.Point) { panic("apply exploded") }

// plantExplodingBurst makes every group's burst domain an explodingDomain
// for the duration of the test; all other models stay real.
func plantExplodingBurst(t *testing.T) {
	t.Cleanup(campaign.SetNewDomain(func(model fault.Model, img *cc.Image, cfg mach.Config, g *fi.Golden) (fault.Domain, error) {
		d, err := fi.NewDomain(model, img, cfg, g)
		if err == nil && model == fault.Burst {
			d = explodingDomain{d}
		}
		return d, err
	}))
}

// wantPanicReport checks a matrix error for what the guard promises: the
// campaign, the scenario, the domain, the panic value and the fault tuple of
// the run that was in flight — the first of the list, rendered by
// fault.Point.Format.
func wantPanicReport(t *testing.T, err error, sc npb.Scenario, seed int64, faults int) {
	t.Helper()
	if err == nil {
		t.Fatal("matrix with a panicking domain reported no error")
	}
	img, cfg, berr := npb.BuildScenario(sc)
	if berr != nil {
		t.Fatal(berr)
	}
	g, berr := fi.RunGolden(img, cfg, 0)
	if berr != nil {
		t.Fatal(berr)
	}
	d, berr := fi.NewDomain(fault.Burst, img, cfg, g)
	if berr != nil {
		t.Fatal(berr)
	}
	first := fi.List(seed, faults, d)[0]
	tuple := first.Format(fault.Env{Feat: cfg.ISA.Feat(), Regions: img.Regions})
	for _, want := range []string{"host panic", sc.ID(), "domain burst", "apply exploded", "at fault 0 (" + tuple + ")"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestHostPanicFailsCampaignNotProcess: a host panic inside one run becomes
// that campaign's error through the engine and that shard's error through a
// loopback worker; the sibling campaign of the same scenario group still
// completes on both paths, with identical counts.
func TestHostPanicFailsCampaignNotProcess(t *testing.T) {
	plantExplodingBurst(t)
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	const seed, faults = 5, 4
	jobs := []campaign.ScenarioJob{
		{Scenario: sc, Domain: fault.Reg, Seed: seed},
		{Scenario: sc, Domain: fault.Burst, Seed: seed},
	}
	ctx := context.Background()

	local, err := campaign.New(campaign.Faults(faults), campaign.Workers(2)).RunMatrix(ctx, jobs)
	wantPanicReport(t, err, sc, seed, faults)
	if local[0] == nil || local[0].Counts.Total() != faults || local[1] != nil {
		t.Fatalf("engine results = %v, want the reg campaign only", local)
	}

	coord, err := dist.NewCoordinator(jobs, faults, dist.ShardSize(2))
	if err != nil {
		t.Fatal(err)
	}
	w := dist.NewWorker(dist.NewLoopbackClient(coord.Handler()), dist.Name("w"))
	workerErr := make(chan error, 1)
	go func() { workerErr <- w.Run(ctx) }()
	remote, err := coord.Wait(ctx)
	if werr := <-workerErr; werr != nil {
		t.Errorf("worker died with the shard: %v", werr)
	}
	wantPanicReport(t, err, sc, seed, faults)
	if remote[0] == nil || remote[0].Counts != local[0].Counts || remote[1] != nil {
		t.Fatalf("cluster results = %v, want the reg campaign only, counts %v", remote, local[0].Counts)
	}
}

// TestHostPanicsCounted: serfi_campaign_host_panics_total moves by exactly
// the panics the guard caught — one per failed campaign below, each run as a
// single job or shard, on the engine and through a worker — and a clean
// campaign leaves it where it was.
func TestHostPanicsCounted(t *testing.T) {
	plantExplodingBurst(t)
	panics := obs.Default.Counter("serfi_campaign_host_panics_total", "")
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	const seed, faults = 5, 4
	reg := campaign.ScenarioJob{Scenario: sc, Domain: fault.Reg, Seed: seed}
	burst := campaign.ScenarioJob{Scenario: sc, Domain: fault.Burst, Seed: seed}
	ctx := context.Background()
	before := panics.Value()
	moved := func(what string, want float64) {
		t.Helper()
		if got := panics.Value() - before; got != want {
			t.Errorf("after %s the counter moved by %v, want %v", what, got, want)
		}
	}

	if _, err := campaign.New(campaign.Faults(faults)).RunMatrix(ctx, []campaign.ScenarioJob{reg}); err != nil {
		t.Fatal(err)
	}
	moved("a clean campaign", 0)

	_, err := campaign.New(campaign.Faults(faults), campaign.JobSize(faults)).RunMatrix(ctx, []campaign.ScenarioJob{reg, burst})
	if err == nil || !strings.Contains(err.Error(), "host panic") {
		t.Fatalf("engine: %v, want the burst campaign's host panic", err)
	}
	moved("one failed engine campaign", 1)

	coord, err := dist.NewCoordinator([]campaign.ScenarioJob{burst}, faults, dist.ShardSize(faults))
	if err != nil {
		t.Fatal(err)
	}
	w := dist.NewWorker(dist.NewLoopbackClient(coord.Handler()), dist.Name("w"))
	workerErr := make(chan error, 1)
	go func() { workerErr <- w.Run(ctx) }()
	_, err = coord.Wait(ctx)
	if werr := <-workerErr; werr != nil {
		t.Errorf("worker died with the shard: %v", werr)
	}
	if err == nil || !strings.Contains(err.Error(), "host panic") {
		t.Fatalf("cluster: %v, want the burst shard's host panic", err)
	}
	moved("one failed shard on a worker", 2)
}
