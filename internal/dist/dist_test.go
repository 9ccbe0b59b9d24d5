package dist

// Golden-compat pins of the distributed fabric: a coordinator plus N
// in-process loopback workers must produce byte-identical campaign records
// (after canonical key sort) and bit-identical in-memory results to a
// single-process campaign.Engine.RunMatrix at the same seed, for N ∈ {1, 3},
// across the reg, mem and cachetag fault domains. Everything rides the real wire
// protocol — routing, JSON marshal, version checks — through the loopback
// transport; only the TCP socket is elided.

import (
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/npb"
)

// compatJobs is the shared matrix: two scenarios over the reg, mem and
// cachetag (uncore) domains, the engine's seed convention.
func compatJobs() []campaign.ScenarioJob {
	return []campaign.ScenarioJob{
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Domain: fault.Reg, Seed: 11},
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Domain: fault.Mem, Seed: 11},
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Domain: fault.CacheTag, Seed: 11},
		{Scenario: npb.Scenario{App: "EP", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Domain: fault.Reg, Seed: 12},
	}
}

const compatFaults = 6

// runCluster drives one coordinator to completion with n loopback workers
// and returns the folded results.
// batchSize overrides the faults a worker runs between progress beats
// (production: campaign.DefaultJobSize).
func batchSize(n int) WorkerOption { return func(w *Worker) { w.batch = n } }

func runCluster(t *testing.T, coord *Coordinator, n int, opts ...WorkerOption) []*campaign.Result {
	t.Helper()
	cl := NewLoopbackClient(coord.Handler())
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		w := NewWorker(cl, append([]WorkerOption{Name(fmt.Sprintf("w%d", i))}, opts...)...)
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i, w)
	}
	results, err := coord.Wait(ctx)
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	return results
}

// sortedRecords loads a JSONL store file as canonically sorted lines.
func sortedRecords(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	sort.Strings(lines)
	return lines
}

func TestLoopbackClusterMatchesEngine(t *testing.T) {
	jobs := compatJobs()

	// Reference: the single-process engine, streaming to its own store.
	refPath := t.TempDir() + "/engine.jsonl"
	refStore, err := campaign.OpenFileStore(refPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := campaign.New(
		campaign.Faults(compatFaults),
		campaign.WithStore(refStore),
	).RunMatrix(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := refStore.Close(); err != nil {
		t.Fatal(err)
	}
	refLines := sortedRecords(t, refPath)

	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			path := t.TempDir() + "/dist.jsonl"
			st, err := campaign.OpenFileStore(path)
			if err != nil {
				t.Fatal(err)
			}
			// Shard size 2 splits every campaign across several leases, so
			// with 3 workers one campaign's shards genuinely interleave
			// across processes.
			coord, err := NewCoordinator(jobs, compatFaults, ShardSize(2), WithStore(st))
			if err != nil {
				t.Fatal(err)
			}
			results := runCluster(t, coord, workers)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			// The acceptance pin: byte-identical campaign records after
			// canonical key sort.
			if got := sortedRecords(t, path); !reflect.DeepEqual(got, refLines) {
				t.Errorf("distributed records differ from engine records:\n dist: %v\n ref:  %v", got, refLines)
			}

			// And the in-memory results match per fault, not just on bytes:
			// same outcome counts and identical per-run records in fault
			// order (shard boundaries must be invisible).
			for i := range jobs {
				if results[i] == nil {
					t.Fatalf("campaign %s missing", jobs[i].Key())
				}
				if results[i].Counts != ref[i].Counts {
					t.Errorf("%s counts: dist %v != engine %v", jobs[i].Key(), results[i].Counts, ref[i].Counts)
				}
				if !reflect.DeepEqual(results[i].Runs, ref[i].Runs) {
					t.Errorf("%s per-run records differ across the wire", jobs[i].Key())
				}
				if results[i].Seed != ref[i].Seed || results[i].Faults != ref[i].Faults {
					t.Errorf("%s identity drifted: (%d,%d) != (%d,%d)", jobs[i].Key(),
						results[i].Faults, results[i].Seed, ref[i].Faults, ref[i].Seed)
				}
			}
		})
	}
}

// TestClusterResumeFromStore: a coordinator over a store that already holds
// some campaigns answers them without sharding and only distributes the
// rest — the Engine's resume contract.
func TestClusterResumeFromStore(t *testing.T) {
	jobs := compatJobs()
	st := campaign.NewMemStore()

	first, err := NewCoordinator(jobs[:1], compatFaults, ShardSize(3), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	runCluster(t, first, 1)
	if got := len(st.Keys()); got != 1 {
		t.Fatalf("store holds %d campaigns after first run, want 1", got)
	}

	second, err := NewCoordinator(jobs, compatFaults, ShardSize(3), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	results := runCluster(t, second, 2)
	status := second.Status()
	if status.Skipped != 1 {
		t.Errorf("skipped = %d, want 1", status.Skipped)
	}
	if len(st.Keys()) != len(jobs) {
		t.Errorf("store holds %d campaigns, want %d", len(st.Keys()), len(jobs))
	}
	for i := range jobs {
		if results[i] == nil || results[i].Counts.Total() != compatFaults {
			t.Errorf("campaign %s incomplete after resume", jobs[i].Key())
		}
	}

	// A third coordinator over the now-complete store is born finished.
	third, err := NewCoordinator(jobs, compatFaults, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := third.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := third.Status(); !s.Done || s.Skipped != len(jobs) || s.Shards != 0 {
		t.Errorf("pre-completed coordinator status = %+v", s)
	}

	// A coordinator whose matrix disagrees with the recorded identity is
	// refused up front (the ValidateResume rule).
	if _, err := NewCoordinator(jobs, compatFaults+1, WithStore(st)); err == nil {
		t.Error("mismatched fault count accepted against a recorded store")
	}
}

// TestClusterEventStream checks the coordinator's typed event stream: live
// JobDone beats, one ScenarioDone per campaign, a terminal MatrixDone — the
// same taxonomy a Collector consumes from a local engine.
func TestClusterEventStream(t *testing.T) {
	jobs := compatJobs()[:1]
	events := make(chan campaign.Event, 256)
	coord, err := NewCoordinator(jobs, compatFaults, ShardSize(2), WithEvents(events))
	if err != nil {
		t.Fatal(err)
	}
	var beats, dones, matrix, maxDone int
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for ev := range events {
			switch ev := ev.(type) {
			case campaign.JobDone:
				beats++
				if ev.Done > maxDone {
					maxDone = ev.Done
				}
				if ev.Total != compatFaults || ev.Hi <= ev.Lo {
					// Can't t.Errorf from here cleanly; record via counts.
					beats = -1 << 20
				}
			case campaign.ScenarioDone:
				dones++
			case campaign.MatrixDone:
				matrix++
				return
			}
		}
	}()
	runCluster(t, coord, 2, batchSize(1))
	<-consumed
	// With batchSize(1) every fault produces one beat, and every beat is
	// delivered before its shard completes — so before MatrixDone.
	if beats != compatFaults || maxDone != compatFaults {
		t.Errorf("JobDone beats = %d (peak Done %d), want %d", beats, maxDone, compatFaults)
	}
	if dones != 1 || matrix != 1 {
		t.Errorf("events: ScenarioDone=%d MatrixDone=%d, want 1 each", dones, matrix)
	}
}

// TestProtocolVersionRejected: a wrong-version request fails loudly with
// the coordinator's spoken version in the error.
func TestProtocolVersionRejected(t *testing.T) {
	coord, err := NewCoordinator(compatJobs()[:1], 2)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewLoopbackClient(coord.Handler())
	var reply LeaseReply
	err = cl.post(context.Background(), PathLease, LeaseRequest{Proto: 99, Worker: "old"}, &reply)
	if err == nil || !strings.Contains(err.Error(), "protocol version") {
		t.Errorf("stale protocol accepted: %v", err)
	}
}

// TestStatusPage smoke-checks the human-readable page and the JSON status.
func TestStatusPage(t *testing.T) {
	jobs := compatJobs()[:1]
	coord, err := NewCoordinator(jobs, compatFaults, ShardSize(2))
	if err != nil {
		t.Fatal(err)
	}
	runCluster(t, coord, 1)
	cl := NewLoopbackClient(coord.Handler())
	st, err := cl.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.CampaignsDone != 1 || st.Injected != compatFaults || len(st.Workers) != 1 {
		t.Errorf("status = %+v", st)
	}
	resp, err := cl.hc.Get(cl.base + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page strings.Builder
	if _, err := io.Copy(&page, resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"campaigns  1/1 done", "matrix complete", "w0"} {
		if !strings.Contains(page.String(), want) {
			t.Errorf("status page missing %q:\n%s", want, page.String())
		}
	}
}

// TestClusterTracePropMatchesEngine pins the distributed propagation-tracing
// contract: a traced cluster run must reproduce the traced engine run
// exactly — same per-run records, identical traces folded by fault index,
// the same Prop summary, and byte-identical v3 store records — at any
// worker count.
func TestClusterTracePropMatchesEngine(t *testing.T) {
	jobs := []campaign.ScenarioJob{
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Domain: fault.Reg, Seed: 11},
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Domain: fault.CacheTag, Seed: 11},
	}

	refPath := t.TempDir() + "/engine.jsonl"
	refStore, err := campaign.OpenFileStore(refPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := campaign.New(
		campaign.Faults(compatFaults),
		campaign.WithStore(refStore),
		campaign.TraceProp(),
	).RunMatrix(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := refStore.Close(); err != nil {
		t.Fatal(err)
	}
	refLines := sortedRecords(t, refPath)
	traced := 0
	for _, r := range ref {
		if r.Prop != nil {
			traced += r.Prop.Traced
		}
	}
	if traced == 0 {
		t.Fatal("reference matrix produced no traces — seeds no longer exercise the tracer")
	}

	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			path := t.TempDir() + "/dist.jsonl"
			st, err := campaign.OpenFileStore(path)
			if err != nil {
				t.Fatal(err)
			}
			coord := NewQueue(ShardSize(2), WithStore(st))
			if _, err := coord.Submit(SubmitSpec{Jobs: jobs, Faults: compatFaults, TraceProp: true}); err != nil {
				t.Fatal(err)
			}
			coord.Drain()
			results := runCluster(t, coord, workers)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if got := sortedRecords(t, path); !reflect.DeepEqual(got, refLines) {
				t.Errorf("traced distributed records differ from engine records:\n dist: %v\n ref:  %v", got, refLines)
			}
			for i := range jobs {
				if !reflect.DeepEqual(results[i].Runs, ref[i].Runs) {
					t.Errorf("%s per-run records differ across the wire", jobs[i].Key())
				}
				if !reflect.DeepEqual(results[i].Traces, ref[i].Traces) {
					t.Errorf("%s traces differ across the wire", jobs[i].Key())
				}
				if !reflect.DeepEqual(results[i].Prop, ref[i].Prop) {
					t.Errorf("%s prop summary: dist %+v != engine %+v", jobs[i].Key(), results[i].Prop, ref[i].Prop)
				}
			}
		})
	}
}

// TestClusterRecordRunsMatchesEngine extends the golden-compat pin to
// recorded campaigns: a cluster run with RecordRuns (and tracing, so the
// escape columns are exercised) must write v4 store records byte-identical
// to a recorded local engine run at the same seed, and the reloaded rows
// must round-trip the cluster's in-memory results — at any worker count.
func TestClusterRecordRunsMatchesEngine(t *testing.T) {
	jobs := []campaign.ScenarioJob{
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Domain: fault.Reg, Seed: 11},
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Domain: fault.CacheTag, Seed: 11},
	}

	refPath := t.TempDir() + "/engine.jsonl"
	refStore, err := campaign.OpenFileStore(refPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := campaign.New(
		campaign.Faults(compatFaults),
		campaign.WithStore(refStore),
		campaign.TraceProp(),
		campaign.RecordRuns(),
	).RunMatrix(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := refStore.Close(); err != nil {
		t.Fatal(err)
	}
	refLines := sortedRecords(t, refPath)
	sawRuns := false
	for _, line := range refLines {
		if strings.Contains(line, `"runs"`) {
			sawRuns = true
		}
	}
	if !sawRuns {
		t.Fatal("recorded reference records carry no per-fault rows")
	}

	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			path := t.TempDir() + "/dist.jsonl"
			st, err := campaign.OpenFileStore(path)
			if err != nil {
				t.Fatal(err)
			}
			coord := NewQueue(ShardSize(2), WithStore(st))
			if _, err := coord.Submit(SubmitSpec{Jobs: jobs, Faults: compatFaults, TraceProp: true, RecordRuns: true}); err != nil {
				t.Fatal(err)
			}
			coord.Drain()
			results := runCluster(t, coord, workers)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if got := sortedRecords(t, path); !reflect.DeepEqual(got, refLines) {
				t.Errorf("recorded distributed records differ from engine records:\n dist: %v\n ref:  %v", got, refLines)
			}
			for i := range jobs {
				if !results[i].RecordRuns {
					t.Errorf("%s assembled without the RecordRuns mark", jobs[i].Key())
				}
				if !reflect.DeepEqual(results[i].Runs, ref[i].Runs) {
					t.Errorf("%s per-run records differ across the wire", jobs[i].Key())
				}
			}

			// The written v4 rows must reload into the same per-fault tuples
			// and outcomes the cluster held in memory (the compact rows
			// persist exactly that — not the per-run retirement telemetry).
			re, err := campaign.OpenFileStore(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := range jobs {
				r, ok := re.Get(jobs[i].Key())
				if !ok {
					t.Fatalf("%s missing after reload", jobs[i].Key())
				}
				if len(r.Runs) != compatFaults {
					t.Fatalf("%s reloaded %d runs, want %d", jobs[i].Key(), len(r.Runs), compatFaults)
				}
				for j, run := range r.Runs {
					if run.Fault != results[i].Runs[j].Fault || run.Outcome != results[i].Runs[j].Outcome {
						t.Errorf("%s row %d reloaded as (%v,%v), cluster held (%v,%v)", jobs[i].Key(), j,
							run.Fault, run.Outcome, results[i].Runs[j].Fault, results[i].Runs[j].Outcome)
					}
				}
			}
		})
	}
}

// TestStatusVulnerabilityPanel: a completed matrix reports per-campaign
// unmasked counts with a well-formed Wilson interval on /v1/matrices by ID —
// the feed behind the dashboard's vulnerability panel.
func TestStatusVulnerabilityPanel(t *testing.T) {
	jobs := compatJobs()[:2]
	coord, err := NewCoordinator(jobs, compatFaults, ShardSize(3))
	if err != nil {
		t.Fatal(err)
	}
	results := runCluster(t, coord, 2)
	st, err := coord.Matrix("m000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.CampaignList) != len(jobs) {
		t.Fatalf("status lists %d campaigns, want %d", len(st.CampaignList), len(jobs))
	}
	byKey := make(map[string]*campaign.Result)
	for _, r := range results {
		byKey[r.Key()] = r
	}
	for _, row := range st.CampaignList {
		r := byKey[row.Key]
		if r == nil {
			t.Fatalf("status row %s has no result", row.Key)
		}
		if row.Sampled != compatFaults {
			t.Errorf("%s sampled %d, want %d", row.Key, row.Sampled, compatFaults)
		}
		if row.Unmasked != r.Counts.Unmasked() {
			t.Errorf("%s unmasked %d, result says %d", row.Key, row.Unmasked, r.Counts.Unmasked())
		}
		rate := float64(row.Unmasked) / float64(row.Sampled)
		if row.CILo < 0 || row.CIHi > 1 || row.CILo > rate || rate > row.CIHi {
			t.Errorf("%s interval (%v,%v) malformed around rate %v", row.Key, row.CILo, row.CIHi, rate)
		}
	}
}
