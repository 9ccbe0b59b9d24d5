package campaign_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
)

// tempStore opens a FileStore on a fresh temp file, closed with the test.
func tempStore(t testing.TB) *campaign.FileStore {
	t.Helper()
	st, err := campaign.OpenFileStore(t.TempDir() + "/db.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// runOne executes one campaign through an Engine over a fresh FileStore and
// returns its result, checking the store holds the same record.
func runOne(t testing.TB, job campaign.ScenarioJob, faults int, opts ...campaign.Option) *campaign.Result {
	t.Helper()
	st := tempStore(t)
	opts = append([]campaign.Option{campaign.Faults(faults), campaign.WithStore(st)}, opts...)
	results, err := campaign.New(opts...).RunMatrix(context.Background(), []campaign.ScenarioJob{job})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(job.Key()); !ok || got != results[0] {
		t.Fatalf("store holds %v for %s, want the returned result", got, job.Key())
	}
	return results[0]
}

func TestCampaignEndToEnd(t *testing.T) {
	r := runOne(t, campaign.ScenarioJob{
		Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1},
		Seed:     99,
	}, 16)
	if r.Counts.Total() != 16 {
		t.Fatalf("classified %d of 16", r.Counts.Total())
	}
	if r.Golden.Retired == 0 || r.Golden.AppEnd <= r.Golden.AppStart {
		t.Error("golden summary empty")
	}
	if r.Features.Instructions == 0 || r.Features.BranchPct <= 0 {
		t.Errorf("features empty: %+v", r.Features)
	}
	if len(r.Runs) != 16 {
		t.Errorf("run records = %d", len(r.Runs))
	}
	// Golden compatibility with the pre-domain injector: the same seed
	// must reproduce the campaign recorded before internal/fault existed
	// (captured at PR 1), bit for bit.
	if want := (fi.Counts{7, 7, 0, 2, 0}); r.Counts != want {
		t.Errorf("register campaign drifted from pre-domain golden: %v, want %v", r.Counts, want)
	}
	if f := r.Runs[0].Fault; f.Index != 1173895 || f.Reg != 2 || f.Bit != 10 {
		t.Errorf("fault list drifted from pre-domain golden: first fault %s", f)
	}
	if r.SimulatedInstr == 0 || r.FromResetInstr <= r.SimulatedInstr {
		t.Errorf("snapshot observability empty: simulated %d of %d", r.SimulatedInstr, r.FromResetInstr)
	}
}

// TestRegCampaignGoldenCompatV7 pins the ARMv7 register campaign against
// the outcome distribution captured before the fault-domain subsystem.
func TestRegCampaignGoldenCompatV7(t *testing.T) {
	r := runOne(t, campaign.ScenarioJob{
		Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv7", Cores: 1},
		Seed:     2018,
	}, 12)
	if want := (fi.Counts{9, 0, 1, 2, 0}); r.Counts != want {
		t.Errorf("v7 register campaign drifted from pre-domain golden: %v, want %v", r.Counts, want)
	}
}

func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	sc := npb.Scenario{App: "EP", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	run := func(workers int) fi.Counts {
		return runOne(t, campaign.ScenarioJob{Scenario: sc, Seed: 5}, 12,
			campaign.Workers(workers), campaign.JobSize(3)).Counts
	}
	if run(1) != run(2) {
		t.Error("campaign outcome depends on host worker count")
	}
}

func TestCampaignDBFormat(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	r := runOne(t, campaign.ScenarioJob{Scenario: sc, Seed: 1}, 4)
	var buf bytes.Buffer
	if err := campaign.WriteDB(&buf, []*campaign.Result{r}); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"armv8/IS/SER-1", "vanished", "branch_pct", "api_calls"} {
		if !strings.Contains(s, want) {
			t.Errorf("db missing %q: %s", want, s)
		}
	}
}

// TestMemCampaignDeterministic is the PR's acceptance property for the new
// fault spaces: a mem-domain campaign on IS yields identical per-fault
// results at any worker count with snapshots on or off.
func TestMemCampaignDeterministic(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	run := func(workers, snapshots int) *campaign.Result {
		return runOne(t, campaign.ScenarioJob{Scenario: sc, Domain: fault.Mem, Seed: 21}, 6,
			campaign.Workers(workers), campaign.JobSize(2), campaign.Snapshots(snapshots))
	}
	ref := run(1, 0) // serial, from reset
	if ref.Counts.Total() != 6 {
		t.Fatalf("classified %d of 6", ref.Counts.Total())
	}
	for _, alt := range [][2]int{{3, 0}, {1, 5}, {3, 5}} {
		got := run(alt[0], alt[1])
		if got.Counts != ref.Counts {
			t.Errorf("workers=%d snapshots=%d: counts %v != %v", alt[0], alt[1], got.Counts, ref.Counts)
		}
		for i := range ref.Runs {
			if got.Runs[i] != ref.Runs[i] {
				t.Errorf("workers=%d snapshots=%d: run %d %+v != %+v",
					alt[0], alt[1], i, got.Runs[i], ref.Runs[i])
			}
		}
	}
	// All six mem faults targeted mapped words: the key and domain are
	// recorded on the result.
	if ref.Key() != "armv8/IS/SER-1#mem" || ref.Domain != fault.Mem {
		t.Errorf("mem campaign key = %q domain = %v", ref.Key(), ref.Domain)
	}
}

func TestOMPCampaignHasAPIExposure(t *testing.T) {
	sc := npb.Scenario{App: "EP", Mode: npb.OMP, ISA: "armv8", Cores: 2}
	r := runOne(t, campaign.ScenarioJob{Scenario: sc, Seed: 3}, 2)
	if r.APICalls == 0 {
		t.Error("OMP scenario shows no parallelization-API calls")
	}
	ser := runOne(t, campaign.ScenarioJob{
		Scenario: npb.Scenario{App: "EP", Mode: npb.Serial, ISA: "armv8", Cores: 1},
		Seed:     3,
	}, 2)
	if ser.Features.APIWindow > r.Features.APIWindow {
		t.Errorf("serial API window %.2f%% exceeds OMP %.2f%%",
			ser.Features.APIWindow, r.Features.APIWindow)
	}
}
