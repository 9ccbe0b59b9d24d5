package campaign_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
)

// TestEngineEventTaxonomy runs one campaign with an attached event stream
// and checks the full phase sequence arrives: ScenarioStarted, GoldenDone,
// one JobDone per injection job carrying the per-job spans, ScenarioDone
// with the result, and a terminal MatrixDone.
func TestEngineEventTaxonomy(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	events := make(chan campaign.Event, 64)
	eng := campaign.New(
		campaign.Faults(10),
		campaign.JobSize(4),
		campaign.WithEvents(events),
	)
	results, err := eng.RunMatrix(context.Background(), []campaign.ScenarioJob{{Scenario: sc, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	close(events)

	var started, goldens, jobs, dones, matrix int
	var jobSpanSum float64
	var lastDone int
	for ev := range events {
		switch ev := ev.(type) {
		case campaign.ScenarioStarted:
			started++
			if ev.Scenario != sc || ev.Seed != 3 || len(ev.Domains) != 1 {
				t.Errorf("ScenarioStarted = %+v", ev)
			}
		case campaign.GoldenDone:
			goldens++
			if ev.Golden.Retired == 0 || ev.Checkpoints == 0 || ev.WallSec <= 0 {
				t.Errorf("GoldenDone = %+v", ev)
			}
			if ev.CheckpointBytes == 0 {
				t.Errorf("GoldenDone checkpoint telemetry = %+v", ev)
			}
		case campaign.JobDone:
			jobs++
			jobSpanSum += ev.WallSec
			if ev.Total != 10 || ev.Hi <= ev.Lo || ev.Key() != sc.ID() {
				t.Errorf("JobDone = %+v", ev)
			}
			if ev.Done > lastDone {
				lastDone = ev.Done
			}
		case campaign.ScenarioDone:
			dones++
			if ev.Err != nil || ev.Result == nil || ev.Key != sc.ID() {
				t.Fatalf("ScenarioDone = %+v", ev)
			}
			if ev.Result.Counts.Total() != 10 {
				t.Errorf("result classified %d of 10", ev.Result.Counts.Total())
			}
		case campaign.MatrixDone:
			matrix++
			if ev.Completed != 1 || ev.Failed != 0 || ev.Skipped != 0 || ev.Err != nil {
				t.Errorf("MatrixDone = %+v", ev)
			}
		}
	}
	if started != 1 || goldens != 1 || dones != 1 || matrix != 1 {
		t.Errorf("event counts: started=%d goldens=%d dones=%d matrix=%d", started, goldens, dones, matrix)
	}
	if want := (10 + 3) / 4; jobs != want {
		t.Errorf("JobDone events = %d, want %d", jobs, want)
	}
	if lastDone != 10 {
		t.Errorf("JobDone progress peaked at %d, want 10", lastDone)
	}
	// The per-job spans are what ExclusiveCompute sums on top of the
	// golden phase.
	r := results[0]
	if r.JobWallSec <= 0 || r.ExclusiveCompute() < r.JobWallSec {
		t.Errorf("exclusive compute: job=%f excl=%f", r.JobWallSec, r.ExclusiveCompute())
	}
	if diff := r.JobWallSec - jobSpanSum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("JobWallSec %f != summed JobDone spans %f", r.JobWallSec, jobSpanSum)
	}
	if r.CampaignWallSec < r.GoldenWallSec {
		t.Errorf("campaign span %f below golden span %f", r.CampaignWallSec, r.GoldenWallSec)
	}
}

// TestEngineCancelThenResumeBitIdentical is the PR's acceptance property:
// a matrix cancelled mid-flight and resumed over the same store yields
// outcome counts bit-identical to an uninterrupted run at the same seed.
func TestEngineCancelThenResumeBitIdentical(t *testing.T) {
	jobs := []campaign.ScenarioJob{
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Seed: 41},
		{Scenario: npb.Scenario{App: "EP", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Seed: 42},
		{Scenario: npb.Scenario{App: "IS", Mode: npb.OMP, ISA: "armv8", Cores: 2}, Seed: 43},
	}
	opts := func(extra ...campaign.Option) []campaign.Option {
		return append([]campaign.Option{
			campaign.Faults(8),
			campaign.JobSize(2),
			// One worker means one open-scenario slot, which makes the
			// cancellation point deterministic: the first campaign completes,
			// the feeder is still blocked on the slot for the second.
			campaign.Workers(1),
		}, extra...)
	}

	// Reference: the uninterrupted matrix.
	ref, err := campaign.New(opts()...).RunMatrix(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: cancel as soon as the first campaign lands.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := campaign.NewMemStore()
	events := make(chan campaign.Event, 64)
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for ev := range events {
			switch ev.(type) {
			case campaign.ScenarioDone:
				cancel()
			case campaign.MatrixDone:
				return
			}
		}
	}()
	partial, err := campaign.New(opts(campaign.WithStore(st), campaign.WithEvents(events))...).RunMatrix(ctx, jobs)
	<-consumed
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	}
	done := len(st.Keys())
	if done == 0 || done == len(jobs) {
		t.Fatalf("cancelled run completed %d of %d campaigns, want a strict subset", done, len(jobs))
	}
	for i, r := range partial {
		if r == nil {
			continue // abandoned by cancellation
		}
		if r.Counts != ref[i].Counts {
			t.Errorf("partial result %d drifted: %v != %v", i, r.Counts, ref[i].Counts)
		}
	}

	// Resumed: the same store skips the recorded campaigns; the rest run
	// fresh and must land exactly on the reference.
	resumed, err := campaign.New(opts(campaign.WithStore(st))...).RunMatrix(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if resumed[i] == nil {
			t.Fatalf("resumed run left campaign %d unfinished", i)
		}
		if resumed[i].Counts != ref[i].Counts {
			t.Errorf("resume drifted: %s counts %v != %v",
				jobs[i].Key(), resumed[i].Counts, ref[i].Counts)
		}
		if resumed[i].Seed != ref[i].Seed || resumed[i].Faults != ref[i].Faults {
			t.Errorf("resume identity drifted: %+v vs %+v", resumed[i], ref[i])
		}
	}
	// Campaigns resumed fresh carry per-run records; they must match the
	// uninterrupted run per fault, not just in aggregate.
	for i := range jobs {
		if len(resumed[i].Runs) == 0 {
			continue // answered from the store, which keeps no run records
		}
		if !reflect.DeepEqual(resumed[i].Runs, ref[i].Runs) {
			t.Errorf("resume per-run records differ for %s", jobs[i].Key())
		}
	}
	if len(st.Keys()) != len(jobs) {
		t.Errorf("store holds %d campaigns after resume, want %d", len(st.Keys()), len(jobs))
	}
}

// TestEngineCancelledBeforeStart returns promptly with no results and
// ctx.Err() when the context is already cancelled.
func TestEngineCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := campaign.New(campaign.Faults(4))
	results, err := eng.RunMatrix(ctx, matrixJobs())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if r != nil {
			t.Errorf("result %d produced despite pre-cancelled context", i)
		}
	}
}

// TestEngineStoreSkipMatchesLegacySkip: an engine with a pre-loaded
// FileStore behaves exactly like the legacy Skip map — stored campaigns
// come back in place, fresh ones append to the file.
func TestEngineFileStoreResume(t *testing.T) {
	jobs := matrixJobs()
	path := t.TempDir() + "/db.jsonl"

	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	eng := campaign.New(campaign.Faults(6), campaign.WithStore(st))
	first, err := eng.RunMatrix(context.Background(), jobs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := len(st2.Keys()); got != 1 {
		t.Fatalf("reopened store holds %d campaigns, want 1", got)
	}
	eng2 := campaign.New(campaign.Faults(6), campaign.WithStore(st2))
	all, err := eng2.RunMatrix(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if all[0].Counts != first[0].Counts {
		t.Errorf("stored campaign drifted on resume: %v != %v", all[0].Counts, first[0].Counts)
	}
	if len(all[0].Runs) != 0 {
		t.Errorf("store-answered campaign carries %d run records, want none", len(all[0].Runs))
	}
	if all[1] == nil || all[1].Counts.Total() != 6 {
		t.Error("fresh campaign did not complete alongside the skip")
	}
	if got := len(st2.Keys()); got != len(jobs) {
		t.Errorf("store holds %d campaigns, want %d", got, len(jobs))
	}
}

// TestEngineReusable runs two matrices through one Engine and checks the
// second run is unaffected by the first (no per-run state leaks).
func TestEngineReusable(t *testing.T) {
	eng := campaign.New(campaign.Faults(6), campaign.JobSize(3))
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	a, err := eng.RunMatrix(context.Background(), []campaign.ScenarioJob{{Scenario: sc, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.RunMatrix(context.Background(), []campaign.ScenarioJob{{Scenario: sc, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Counts != b[0].Counts || !reflect.DeepEqual(a[0].Runs, b[0].Runs) {
		t.Error("reused engine produced different results for the same job")
	}
}

// TestCollectorFoldsEvents drives a Collector by hand and checks the
// summary accessors and progress output.
func TestCollectorFoldsEvents(t *testing.T) {
	var buf bytes.Buffer
	col := campaign.NewCollector(&buf, 2)
	r := &campaign.Result{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Faults: 4}
	r.Counts[fi.Vanished] = 4
	if col.Handle(campaign.ScenarioDone{Key: r.Key(), Result: r}) {
		t.Error("ScenarioDone reported as terminal")
	}
	if !col.Handle(campaign.MatrixDone{Completed: 1, Skipped: 1}) {
		t.Error("MatrixDone not reported as terminal")
	}
	if col.Completed() != 1 || col.Skipped() != 1 || col.Failed() != 0 || col.Err() != nil {
		t.Errorf("collector summary: completed=%d skipped=%d failed=%d err=%v",
			col.Completed(), col.Skipped(), col.Failed(), col.Err())
	}
	out := buf.String()
	for _, want := range []string{"[  1/  2]", "armv8/IS/SER-1", "V=100.0%", "save=off"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("progress line missing %q: %q", want, out)
		}
	}
	if got := col.Results(); len(got) != 1 || got[0] != r {
		t.Errorf("collector results = %v", got)
	}
}

// TestSnapshotSavingsOfDecidedCampaign: a campaign whose every fault was
// decided without simulation (a mem campaign over dead pages) has from-reset
// instructions, pruned runs and zero simulated instructions. That is the
// most accelerated a campaign can be, not "snapshots off" — which
// SnapshotSavings used to report for it, keyed on SimulatedInstr == 0.
func TestSnapshotSavingsOfDecidedCampaign(t *testing.T) {
	r := &campaign.Result{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1},
		Domain: fault.Mem, Faults: 6, FromResetInstr: 6 * 2_366_646, PrunedRuns: 6}
	r.Counts[fi.ONA] = 6
	save, prune, ok := r.SnapshotSavings()
	if !ok || prune != 1 || save != float64(r.FromResetInstr) {
		t.Errorf("SnapshotSavings = (%v, %v, %v), want (from-reset instructions per one, 1, true)", save, prune, ok)
	}
	if _, _, ok := (&campaign.Result{Faults: 6, SimulatedInstr: 9}).SnapshotSavings(); ok {
		t.Error("a result without from-reset telemetry (snapshots off, reloaded row) reads as accelerated")
	}
	var buf bytes.Buffer
	col := campaign.NewCollector(&buf, 1)
	col.Handle(campaign.ScenarioDone{Key: r.Key(), Result: r})
	if out := buf.String(); !strings.Contains(out, "save=all prune=100%") {
		t.Errorf("progress line of a decided campaign: %q", out)
	}
}

// TestMergeJobSpans pins the interval merge behind ExclusiveCompute:
// overlapping fault ranges (a re-issued shard, a job re-run across a
// cancel/resume) count once, zero-length spans count nothing, and partial
// overlaps contribute only their uncovered share.
func TestMergeJobSpans(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans []campaign.JobSpan
		want  float64
	}{
		{"disjoint", []campaign.JobSpan{{Lo: 0, Hi: 4, WallSec: 2}, {Lo: 4, Hi: 8, WallSec: 3}}, 5},
		{"duplicate", []campaign.JobSpan{{Lo: 0, Hi: 4, WallSec: 2}, {Lo: 0, Hi: 4, WallSec: 9}}, 2},
		{"zero-length", []campaign.JobSpan{{Lo: 3, Hi: 3, WallSec: 7}, {Lo: 0, Hi: 2, WallSec: 1}}, 1},
		{"half-overlap", []campaign.JobSpan{{Lo: 0, Hi: 4, WallSec: 4}, {Lo: 2, Hi: 6, WallSec: 4}}, 6},
		{"unsorted-hole", []campaign.JobSpan{{Lo: 8, Hi: 12, WallSec: 4}, {Lo: 0, Hi: 4, WallSec: 4}, {Lo: 2, Hi: 10, WallSec: 8}}, 12},
		{"empty", nil, 0},
	} {
		if got := campaign.MergeJobSpans(tc.spans); got != tc.want {
			t.Errorf("%s: MergeJobSpans = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestResumeComputeNotDoubleCounted is the cancel/resume pin for
// ExclusiveCompute: a campaign the resumed run executes folds each fault
// range once (nothing from the work the cancelled run had already executed
// and thrown away), so its JobWallSec is exactly the wall clock of the jobs
// the resumed run reported, and ExclusiveCompute adds only the golden phase.
func TestResumeComputeNotDoubleCounted(t *testing.T) {
	jobs := []campaign.ScenarioJob{
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Seed: 51},
		{Scenario: npb.Scenario{App: "EP", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Seed: 52},
	}
	const faults = 8
	opts := func(extra ...campaign.Option) []campaign.Option {
		return append([]campaign.Option{
			campaign.Faults(faults),
			campaign.JobSize(2),
			campaign.Workers(1),
		}, extra...)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := campaign.NewMemStore()
	events := make(chan campaign.Event, 64)
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for ev := range events {
			switch ev.(type) {
			case campaign.ScenarioDone:
				cancel()
			case campaign.MatrixDone:
				return
			}
		}
	}()
	if _, err := campaign.New(opts(campaign.WithStore(st), campaign.WithEvents(events))...).RunMatrix(ctx, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	}
	<-consumed
	events = make(chan campaign.Event, 64)
	type ranges struct {
		spans []campaign.JobSpan
		wall  float64
	}
	seen := map[string]*ranges{}
	consumed = make(chan struct{})
	go func() {
		defer close(consumed)
		for ev := range events {
			switch ev := ev.(type) {
			case campaign.JobDone:
				j := seen[ev.Key()]
				if j == nil {
					j = &ranges{}
					seen[ev.Key()] = j
				}
				j.spans = append(j.spans, campaign.JobSpan{Lo: ev.Lo, Hi: ev.Hi, WallSec: ev.WallSec})
				j.wall += ev.WallSec
			case campaign.MatrixDone:
				return
			}
		}
	}()
	resumed, err := campaign.New(opts(campaign.WithStore(st), campaign.WithEvents(events))...).RunMatrix(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	<-consumed
	fresh := 0
	for i, r := range resumed {
		if r == nil {
			t.Fatalf("campaign %d unfinished after resume", i)
		}
		j := seen[r.Key()]
		if j == nil {
			continue // answered from the store: the resumed run executed nothing
		}
		fresh++
		covered := 0
		for _, sp := range j.spans {
			covered += sp.Hi - sp.Lo
		}
		if covered != faults || campaign.CoverageCount(j.spans) != faults {
			t.Errorf("campaign %d: resumed jobs cover %d of %d faults: %+v", i, covered, faults, j.spans)
		}
		if r.JobWallSec != j.wall {
			t.Errorf("campaign %d: JobWallSec = %v, want the resumed jobs' %v", i, r.JobWallSec, j.wall)
		}
		if got, want := r.ExclusiveCompute(), r.GoldenWallSec+r.JobWallSec; got != want {
			t.Errorf("campaign %d: ExclusiveCompute = %v, want %v", i, got, want)
		}
	}
	if fresh == 0 {
		t.Fatal("resume ran no campaign fresh; the cancel fired too late to pin anything")
	}
}

// TestCheckpointTelemetryReported pins the checkpoint telemetry surfaces on
// a known small scenario: an engine run reports the default checkpoint
// count and its RAM payload, the CheckpointTag progress column renders both
// modes, and the Collector prints one golden line per scenario carrying the
// tag.
func TestCheckpointTelemetryReported(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	events := make(chan campaign.Event, 64)
	eng := campaign.New(
		campaign.Faults(2),
		campaign.WithEvents(events),
	)
	if _, err := eng.RunMatrix(context.Background(), []campaign.ScenarioJob{{Scenario: sc, Seed: 3}}); err != nil {
		t.Fatal(err)
	}
	close(events)
	var golden *campaign.GoldenDone
	for ev := range events {
		if g, ok := ev.(campaign.GoldenDone); ok {
			golden = &g
		}
	}
	if golden == nil {
		t.Fatal("no GoldenDone event")
	}
	if golden.Checkpoints != fi.DefaultCheckpoints {
		t.Errorf("checkpoints = %d, want the default %d", golden.Checkpoints, fi.DefaultCheckpoints)
	}
	if golden.CheckpointBytes == 0 {
		t.Error("run reports no checkpoint payload")
	}
	tag := golden.CheckpointTag()
	for _, want := range []string{"ckpt=16", "mem="} {
		if !bytes.Contains([]byte(tag), []byte(want)) {
			t.Errorf("CheckpointTag %q missing %q", tag, want)
		}
	}
	if off := (campaign.GoldenDone{}).CheckpointTag(); off != "ckpt=off" {
		t.Errorf("zero-checkpoint tag = %q", off)
	}

	// The Collector prints the tag on its per-scenario golden line.
	var buf bytes.Buffer
	col := campaign.NewCollector(&buf, 1)
	col.Handle(*golden)
	line := buf.String()
	for _, want := range []string{"armv8/IS/SER-1", "golden", "ckpt=16", "mem="} {
		if !bytes.Contains([]byte(line), []byte(want)) {
			t.Errorf("collector golden line missing %q: %q", want, line)
		}
	}
}

// TestEngineCancelResumeRoundTripsRecordedRuns: under -record-runs, a
// cancelled matrix persists its per-fault rows as v4 records; reopening the
// file store reloads them, and the resumed matrix — part answered from
// disk, part run fresh — lands on the uninterrupted run's per-fault tuples
// and outcomes exactly.
func TestEngineCancelResumeRoundTripsRecordedRuns(t *testing.T) {
	jobs := []campaign.ScenarioJob{
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Seed: 61},
		{Scenario: npb.Scenario{App: "EP", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Seed: 62},
		{Scenario: npb.Scenario{App: "IS", Mode: npb.OMP, ISA: "armv8", Cores: 2}, Seed: 63},
	}
	opts := func(extra ...campaign.Option) []campaign.Option {
		return append([]campaign.Option{
			campaign.Faults(8),
			campaign.JobSize(2),
			campaign.Workers(1),
			campaign.RecordRuns(),
			campaign.TraceProp(),
		}, extra...)
	}

	ref, err := campaign.New(opts()...).RunMatrix(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/resume.jsonl"
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := make(chan campaign.Event, 64)
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for ev := range events {
			switch ev.(type) {
			case campaign.ScenarioDone:
				cancel()
			case campaign.MatrixDone:
				return
			}
		}
	}()
	_, err = campaign.New(opts(campaign.WithStore(st), campaign.WithEvents(events))...).RunMatrix(ctx, jobs)
	<-consumed
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk: the recorded campaigns must come back as v4 rows
	// with their per-fault records intact.
	re, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	done := len(re.Keys())
	if done == 0 || done == len(jobs) {
		t.Fatalf("cancelled run recorded %d of %d campaigns, want a strict subset", done, len(jobs))
	}
	for _, k := range re.Keys() {
		r, ok := re.Get(k)
		if !ok || !r.RecordRuns || len(r.Runs) != 8 {
			t.Fatalf("reloaded %s lost its per-run records: %+v", k, r)
		}
	}

	resumed, err := campaign.New(opts(campaign.WithStore(re))...).RunMatrix(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if resumed[i] == nil || len(resumed[i].Runs) != len(ref[i].Runs) {
			t.Fatalf("resumed %s carries %d runs, want %d", jobs[i].Key(), len(resumed[i].Runs), len(ref[i].Runs))
		}
		// Store-answered campaigns carry compact rows (fault tuple +
		// outcome); compare exactly those axes against the uninterrupted
		// reference.
		for j := range ref[i].Runs {
			if resumed[i].Runs[j].Fault != ref[i].Runs[j].Fault ||
				resumed[i].Runs[j].Outcome != ref[i].Runs[j].Outcome {
				t.Errorf("%s run %d drifted: %+v vs %+v",
					jobs[i].Key(), j, resumed[i].Runs[j], ref[i].Runs[j])
			}
			refTraced := j < len(ref[i].Traces) && ref[i].Traces[j] != nil
			gotTraced := j < len(resumed[i].Traces) && resumed[i].Traces[j] != nil
			if refTraced != gotTraced {
				t.Errorf("%s run %d trace presence drifted", jobs[i].Key(), j)
			} else if refTraced {
				if resumed[i].Traces[j].Escape != ref[i].Traces[j].Escape {
					t.Errorf("%s run %d escape drifted", jobs[i].Key(), j)
				}
			}
		}
		if resumed[i].Counts != ref[i].Counts {
			t.Errorf("%s counts drifted: %v != %v", jobs[i].Key(), resumed[i].Counts, ref[i].Counts)
		}
	}
}
