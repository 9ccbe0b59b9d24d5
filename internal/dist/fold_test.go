package dist

// Pins of the pieces the fabric shares with the local engine
// (campaign.Group / Shard / Fold): what the coordinator folds must not
// depend on the order shards complete in, and must mean the same thing a
// local run's result does.

import (
	"context"
	"strings"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/fi"
)

// TestOutOfOrderShardsFoldSorted completes one campaign's shards last to
// first across two workers. The assembled result must classify every fault
// once and count each shard's wall clock once, whatever the completion
// order.
func TestOutOfOrderShardsFoldSorted(t *testing.T) {
	jobs := compatJobs()[:1]
	coord, err := NewCoordinator(jobs, compatFaults, ShardSize(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cl := NewLoopbackClient(coord.Handler())
	workers := []*Worker{NewWorker(cl, Name("w0")), NewWorker(cl, Name("w1"))}

	// Lease every shard, alternating workers, then execute and complete
	// them in reverse grant order.
	var reqs []CompleteRequest
	var owners []*Worker
	for i := 0; ; i++ {
		w := workers[i%2]
		reply, err := cl.Lease(ctx, w.name)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Lease == nil {
			break
		}
		req, err := w.exec(ctx, reply.Lease)
		if err != nil || req.Err != "" {
			t.Fatalf("exec %+v: %v %s", reply.Lease, err, req.Err)
		}
		reqs, owners = append(reqs, req), append(owners, w)
	}
	if len(reqs) != compatFaults/2 {
		t.Fatalf("leased %d shards, want %d", len(reqs), compatFaults/2)
	}
	for i := len(reqs) - 1; i >= 0; i-- {
		if _, err := owners[i].complete(ctx, reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	results, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	wall := 0.0
	for i := len(reqs) - 1; i >= 0; i-- {
		wall += reqs[i].WallSec
	}
	if r.JobWallSec != wall {
		t.Errorf("JobWallSec = %v, want the %d shards' %v", r.JobWallSec, len(reqs), wall)
	}
	if got, want := r.ExclusiveCompute(), r.GoldenWallSec+r.JobWallSec; got != want {
		t.Errorf("ExclusiveCompute = %v, want %v", got, want)
	}
	if r.Counts.Total() != compatFaults {
		t.Errorf("classified %d of %d", r.Counts.Total(), compatFaults)
	}
}

// TestClusterTelemetryMatchesEngine: the snapshot-engine telemetry of a
// campaign means the same thing locally and on a cluster. With snapshots on
// the simulated/from-reset/pruned counters are equal; with snapshots off
// both paths report zeros and SnapshotSavings says "not accelerated" — a
// worker used to ship its from-reset counters regardless, which the
// coordinator summed into a bogus ~1.0x saving. The mem campaign of the
// pair is decided entirely from the page-touch record: no simulated
// instruction on either path, every run pruned, and still "accelerated".
func TestClusterTelemetryMatchesEngine(t *testing.T) {
	jobs := compatJobs()[:2]
	for _, tc := range []struct {
		name      string
		snapshots int
		wantOK    bool
	}{{"default", fi.DefaultCheckpoints, true}, {"off", 0, false}} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := campaign.New(campaign.Faults(compatFaults), campaign.Snapshots(tc.snapshots)).
				RunMatrix(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			coord, err := NewCoordinator(jobs, compatFaults, ShardSize(2))
			if err != nil {
				t.Fatal(err)
			}
			got := runCluster(t, coord, 2, Snapshots(tc.snapshots))
			for i := range jobs {
				e, c := ref[i], got[i]
				if c.SimulatedInstr != e.SimulatedInstr || c.FromResetInstr != e.FromResetInstr || c.PrunedRuns != e.PrunedRuns {
					t.Errorf("%s: cluster {sim %d reset %d pruned %d} != engine {sim %d reset %d pruned %d}", e.Key(),
						c.SimulatedInstr, c.FromResetInstr, c.PrunedRuns, e.SimulatedInstr, e.FromResetInstr, e.PrunedRuns)
				}
				_, _, eok := e.SnapshotSavings()
				_, _, cok := c.SnapshotSavings()
				if eok != tc.wantOK || cok != tc.wantOK {
					t.Errorf("%s: SnapshotSavings ok engine=%v cluster=%v, want %v", e.Key(), eok, cok, tc.wantOK)
				}
				if decided := e.SimulatedInstr == 0 && e.PrunedRuns == e.Faults; tc.wantOK && decided != (e.Domain == fault.Mem) {
					t.Errorf("%s: simulated %d instructions, pruned %d of %d runs", e.Key(), e.SimulatedInstr, e.PrunedRuns, e.Faults)
				}
			}
		})
	}
}

// TestWorkerCheckpointCount is the worker row of
// cmd/serfi's TestCheckpointCountAtEveryEntryPoint: NewWorker sets the
// default fi.DefaultCheckpoints, and Snapshots(n) is fi's count, n <= 0 none.
func TestWorkerCheckpointCount(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []WorkerOption
		want int
	}{
		{"NewWorker-default", nil, fi.DefaultCheckpoints},
		{"Snapshots(0)", []WorkerOption{Snapshots(0)}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorker(NewClient("127.0.0.1:1"), tc.opts...)
			ce, err := w.acquire(context.Background(), &Lease{Scenario: "armv8/IS/SER-1", Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer w.release(ce)
			if got, _ := ce.group.Checkpoints(); got != tc.want {
				t.Errorf("%d checkpoints, want %d", got, tc.want)
			}
		})
	}
}

// TestCoordinatorRejectsDuplicateKeys: the coordinator refuses a matrix
// naming one campaign twice, or drawn at a negative fault count, with the
// same check, and the same words, as the local engine
// (campaign.ValidateJobs).
func TestCoordinatorRejectsDuplicateKeys(t *testing.T) {
	for _, tc := range []struct {
		jobs   []campaign.ScenarioJob
		faults int
	}{
		{append(compatJobs()[:2], compatJobs()[0]), compatFaults},
		{compatJobs()[:1], -1},
	} {
		want := campaign.ValidateJobs(tc.jobs, tc.faults)
		if want == nil {
			t.Fatalf("ValidateJobs accepted %d jobs at %d faults", len(tc.jobs), tc.faults)
		}
		if _, err := NewCoordinator(tc.jobs, tc.faults); err == nil || !strings.HasSuffix(err.Error(), want.Error()) {
			t.Errorf("NewCoordinator: err = %v, want ...%v", err, want)
		}
		if _, err := NewQueue().Submit(SubmitSpec{Jobs: tc.jobs, Faults: tc.faults}); err == nil || !strings.HasSuffix(err.Error(), want.Error()) {
			t.Errorf("Submit: err = %v, want ...%v", err, want)
		}
	}
}
