package profile_test

import (
	"context"
	"testing"

	"serfi/internal/fi"
	"serfi/internal/npb"
	"serfi/internal/profile"
)

func profiledRun(t *testing.T, sc npb.Scenario) (*fi.Golden, *profile.Profile, profile.Features) {
	t.Helper()
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profile = true
	cfg.SamplePeriod = 53
	g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g, profile.Build(img, g.Machine), profile.Extract(img, g.Machine)
}

func TestProfileAttributesSamplesToFunctions(t *testing.T) {
	_, p, _ := profiledRun(t, npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1})
	if p.TotalSamples == 0 || p.TotalCalls == 0 {
		t.Fatalf("empty profile: %d samples, %d calls", p.TotalSamples, p.TotalCalls)
	}
	// The hot sort phases must appear.
	found := map[string]bool{}
	for _, fn := range p.Funcs {
		found[fn.Name] = true
	}
	for _, want := range []string{"is_hist_body", "is_scatter_body", "k_schedule"} {
		if !found[want] {
			t.Errorf("profile missing %s", want)
		}
	}
	if found["<unknown>"] && p.Funcs[0].Name == "<unknown>" {
		t.Error("dominant samples unattributed")
	}
}

func TestAPIWindowOrdering(t *testing.T) {
	// Serial has no parallel runtime in its execution at all; the OMP
	// variant must show a larger (non-zero) window.
	_, pSer, fSer := profiledRun(t, npb.Scenario{App: "EP", Mode: npb.Serial, ISA: "armv8", Cores: 1})
	_, pOMP, fOMP := profiledRun(t, npb.Scenario{App: "EP", Mode: npb.OMP, ISA: "armv8", Cores: 4})
	serWin := pSer.SampleShare(profile.RuntimePrefixes...)
	ompWin := pOMP.SampleShare(profile.RuntimePrefixes...)
	if ompWin <= serWin {
		t.Errorf("API window: OMP %.3f%% <= serial %.3f%%", 100*ompWin, 100*serWin)
	}
	if fOMP.APIWindow <= 0 {
		t.Errorf("extracted OMP API window = %f", fOMP.APIWindow)
	}
	if fSer.Instructions == 0 || fOMP.KernelPct <= 0 {
		t.Errorf("feature extraction incomplete: %+v", fOMP)
	}
}

func TestFeatureMapComplete(t *testing.T) {
	_, _, f := profiledRun(t, npb.Scenario{App: "CG", Mode: npb.MPI, ISA: "armv8", Cores: 2})
	mp := f.Map()
	for _, key := range []string{"branch_pct", "mem_pct", "rdwr_ratio", "fb_index", "api_window", "imbalance"} {
		if _, ok := mp[key]; !ok {
			t.Errorf("feature map missing %s", key)
		}
	}
	if mp["mem_pct"] <= 0 || mp["branch_pct"] <= 0 {
		t.Errorf("degenerate features: %+v", mp)
	}
	if f.RdWrRatio <= 0 {
		t.Error("read/write ratio missing")
	}
}

func TestCallsToRuntime(t *testing.T) {
	_, p, _ := profiledRun(t, npb.Scenario{App: "IS", Mode: npb.MPI, ISA: "armv8", Cores: 4})
	if n := p.CallsTo("__mpi"); n == 0 {
		t.Error("MPI scenario shows no __mpi_* calls")
	}
	if n := p.CallsTo("__omp"); n != 0 {
		t.Errorf("MPI scenario shows %d __omp_* calls", n)
	}
}
