package campaign_test

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
)

// TestGroupShardsConcatenate pins the shard executor on its own: for every
// partition of a campaign's fault list, the concatenation of Group.Inject
// shards equals one shard over the whole range — runs, traces and summed
// snapshot counters — and both equal a checkpoint-free fi.CheckpointSet,
// which runs every fault from reset, fault for fault. The reference golden, domain and fault list are rebuilt from fi
// alone, so the Group's own copies are under test too. The shards of each
// partition are then folded out of order to pin the Fold's contract.
func TestGroupShardsConcatenate(t *testing.T) {
	const seed = 77
	ctx := context.Background()
	for _, tc := range []struct {
		sc npb.Scenario
		n  int // MG simulates ~10x IS per run: fewer faults there
	}{
		{npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, 8},
		{npb.Scenario{App: "MG", Mode: npb.OMP, ISA: "armv7", Cores: 2}, 3},
	} {
		sc, n := tc.sc, tc.n
		g, err := campaign.BuildGroup(ctx, sc, seed, fi.DefaultCheckpoints, nil)
		if err != nil {
			t.Fatal(err)
		}
		img, cfg, err := npb.BuildScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		gcfg := cfg
		gcfg.Profile = true
		gcfg.SamplePeriod = campaign.DefaultSamplePeriod
		golden, err := fi.RunGoldenContext(context.Background(), img, gcfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		fromReset, err := fi.BuildCheckpointsOpt(ctx, img, cfg, golden, fi.CheckpointOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// The scenario subtest returns once its parallel children have
		// finished, so the group outlives every executor.
		t.Run(sc.ID(), func(t *testing.T) {
			for _, model := range []fault.Model{fault.Reg, fault.Mem, fault.CacheTag} {
				t.Run(model.String(), func(t *testing.T) {
					t.Parallel() // a Group serves concurrent executors
					job := campaign.ScenarioJob{Scenario: sc, Domain: model, Seed: seed}
					whole, err := g.Inject(ctx, model, n, 0, n, true)
					if err != nil {
						t.Fatal(err)
					}
					if len(whole.Runs) != n || len(whole.Traces) != n {
						t.Fatalf("whole shard: %d runs, %d traces, want %d", len(whole.Runs), len(whole.Traces), n)
					}

					dom, err := fi.NewDomain(model, img, cfg, golden)
					if err != nil {
						t.Fatal(err)
					}
					for i, p := range fi.List(seed, n, dom) {
						if ref, _ := fromReset.InjectPointContext(context.Background(), dom, golden, p); whole.Runs[i] != ref {
							t.Errorf("fault %d: shard executor %+v != from reset %+v", i, whole.Runs[i], ref)
						}
						if traced := whole.Traces[i] != nil; traced != fi.IsUnmasked(whole.Runs[i].Outcome) {
							t.Errorf("fault %d (%v): traced = %v", i, whole.Runs[i].Outcome, traced)
						}
					}

					for _, size := range []int{1, 3, 8} {
						// Tracing re-runs every unmasked fault against a
						// twin; one traced partition keeps the test cheap.
						traced := size == 3
						want := whole
						if !traced {
							want.Traces = nil
						}
						ranges := campaign.ShardRanges(n, size)
						shards := make([]campaign.Shard, len(ranges))
						var cat campaign.Shard
						for k, r := range ranges {
							if shards[k], err = g.Inject(ctx, model, n, r[0], r[1], traced); err != nil {
								t.Fatal(err)
							}
							cat.Runs = append(cat.Runs, shards[k].Runs...)
							cat.Traces = append(cat.Traces, shards[k].Traces...)
							cat.SimulatedInstr += shards[k].SimulatedInstr
							cat.FromResetInstr += shards[k].FromResetInstr
							cat.PrunedRuns += shards[k].PrunedRuns
						}
						if !reflect.DeepEqual(cat, want) {
							t.Errorf("size %d: concatenated shards differ from the whole range:\n%+v\n%+v", size, cat, want)
						}
						// Fold last shard first: completion order must not show.
						fold := campaign.NewFold(job, n, traced)
						for k := len(ranges) - 1; k >= 0; k-- {
							if err := fold.Add(ranges[k][0], ranges[k][1], shards[k], 0.5); err != nil {
								t.Fatal(err)
							}
						}
						res := fold.Result(g.Summary(), g.Features, g.APICalls)
						if !reflect.DeepEqual(res.Runs, want.Runs) || !reflect.DeepEqual(res.Traces, want.Traces) {
							t.Errorf("size %d: folded runs/traces differ from the whole range", size)
						}
						if res.Counts.Total() != n || res.SimulatedInstr != whole.SimulatedInstr || res.PrunedRuns != whole.PrunedRuns {
							t.Errorf("size %d: folded counts %v, telemetry sim=%d pruned=%d; whole sim=%d pruned=%d",
								size, res.Counts, res.SimulatedInstr, res.PrunedRuns, whole.SimulatedInstr, whole.PrunedRuns)
						}
						if res.JobWallSec != 0.5*float64(len(ranges)) || res.ExclusiveCompute() != res.GoldenWallSec+res.JobWallSec {
							t.Errorf("size %d: %d shards folded to JobWallSec %v, ExclusiveCompute %v",
								size, len(ranges), res.JobWallSec, res.ExclusiveCompute())
						}
					}
					// A shard that does not fit its range is rejected untouched.
					fold := campaign.NewFold(job, n, false)
					if err := fold.Add(0, 3, campaign.Shard{Runs: whole.Runs[:2]}, 0); err == nil || fold.Folded != 0 {
						t.Errorf("misshapen shard: err = %v, folded = %d", err, fold.Folded)
					}
				})
			}
		})
	}
}

// TestEngineRejectsDuplicateKeys: a matrix naming one campaign key twice is
// refused before anything runs (it used to run both copies and fail the
// second at Put), and the event stream still terminates.
func TestEngineRejectsDuplicateKeys(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	jobs := []campaign.ScenarioJob{{Scenario: sc, Seed: 1}, {Scenario: sc, Domain: fault.Mem, Seed: 1}, {Scenario: sc, Seed: 2}}
	events := make(chan campaign.Event, 4)
	results, err := campaign.New(campaign.Faults(2), campaign.WithEvents(events)).RunMatrix(context.Background(), jobs)
	if err == nil || err.Error() != campaign.ValidateJobs(jobs, 2).Error() {
		t.Fatalf("err = %v, want the ValidateJobs refusal", err)
	}
	if len(results) != len(jobs) || results[0] != nil || results[1] != nil || results[2] != nil {
		t.Errorf("results = %v, want %d nils", results, len(jobs))
	}
	close(events)
	var got []campaign.Event
	for ev := range events {
		got = append(got, ev)
	}
	if md, ok := got[len(got)-1].(campaign.MatrixDone); len(got) != 1 || !ok || md.Failed != len(jobs) || md.Err == nil {
		t.Errorf("events = %+v, want one failed MatrixDone", got)
	}
}

// TestNegativeFaultCountIsRefusedUpFront: a negative fault count is refused
// by the one check the engine and OpenMatrixStore share. It used to reach
// NewFold and panic, after OpenMatrixStore had already emptied the
// database.
func TestNegativeFaultCountIsRefusedUpFront(t *testing.T) {
	jobs := []campaign.ScenarioJob{{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Seed: 1}}
	want := campaign.ValidateJobs(jobs, -1)
	if want == nil {
		t.Fatal("ValidateJobs accepted a negative fault count")
	}
	events := make(chan campaign.Event, 4)
	results, err := campaign.New(campaign.Faults(-1), campaign.WithEvents(events)).RunMatrix(context.Background(), jobs)
	if err == nil || err.Error() != want.Error() || len(results) != 1 || results[0] != nil {
		t.Fatalf("RunMatrix = %v, %v; want the ValidateJobs refusal and no result", results, err)
	}
	close(events)
	var got []campaign.Event
	for ev := range events {
		got = append(got, ev)
	}
	if md, ok := got[len(got)-1].(campaign.MatrixDone); len(got) != 1 || !ok || md.Err == nil {
		t.Errorf("events = %+v, want one failed MatrixDone", got)
	}

	path := t.TempDir() + "/keep.jsonl"
	var buf bytes.Buffer
	if err := campaign.WriteDB(&buf, []*campaign.Result{{Scenario: jobs[0].Scenario, Seed: 1, Faults: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, resume := range []bool{false, true} {
		if st, err := campaign.OpenMatrixStore(path, resume, jobs, -1); err == nil || err.Error() != want.Error() {
			if st != nil {
				st.Close()
			}
			t.Errorf("OpenMatrixStore(resume=%v) = %v, want the ValidateJobs refusal", resume, err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("OpenMatrixStore(resume=%v) left %q, want the file untouched", resume, got)
		}
	}
}
