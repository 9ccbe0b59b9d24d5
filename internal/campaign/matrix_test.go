package campaign_test

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/npb"
)

func matrixJobs() []campaign.ScenarioJob {
	return []campaign.ScenarioJob{
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Seed: 41},
		{Scenario: npb.Scenario{App: "EP", Mode: npb.OMP, ISA: "armv8", Cores: 2}, Seed: 42},
	}
}

// TestMatrixDeterministicAcrossModes is the PR's acceptance property: the
// scheduler yields identical per-fault results whatever the worker count,
// job size or snapshot mode.
func TestMatrixDeterministicAcrossModes(t *testing.T) {
	run := func(workers, jobSize, snapshots int) []*campaign.Result {
		res, err := campaign.New(
			campaign.Faults(10),
			campaign.Workers(workers),
			campaign.JobSize(jobSize),
			campaign.Snapshots(snapshots),
			campaign.WithStore(tempStore(t)),
		).RunMatrix(context.Background(), matrixJobs())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1, 1, 0) // serial, from reset
	for _, alt := range [][3]int{
		{4, 3, 0}, // parallel, from reset
		{1, 1, 5}, // serial, snapshots
		{4, 3, 5}, // parallel, snapshots
	} {
		got := run(alt[0], alt[1], alt[2])
		for i := range ref {
			if ref[i].Counts != got[i].Counts {
				t.Errorf("workers=%d jobsize=%d snapshots=%d: %s counts %v != %v",
					alt[0], alt[1], alt[2], ref[i].Scenario.ID(), got[i].Counts, ref[i].Counts)
			}
			if !reflect.DeepEqual(ref[i].Runs, got[i].Runs) {
				t.Errorf("workers=%d jobsize=%d snapshots=%d: %s per-run records differ",
					alt[0], alt[1], alt[2], ref[i].Scenario.ID())
			}
		}
	}
}

// TestMatrixStreamsAndResumes runs a matrix streaming to a database file,
// reloads it, and checks a resumed matrix skips everything it already has.
func TestMatrixStreamsAndResumes(t *testing.T) {
	jobs := matrixJobs()
	path := t.TempDir() + "/db.jsonl"
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := campaign.New(campaign.Faults(6), campaign.WithStore(st)).RunMatrix(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(db, []byte("\n")); got != len(jobs) {
		t.Fatalf("streamed %d records, want %d", got, len(jobs))
	}

	loaded, err := campaign.ReadDB(bytes.NewReader(db))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(jobs) {
		t.Fatalf("reloaded %d records, want %d", len(loaded), len(jobs))
	}
	for _, r := range first {
		l := loaded[r.Scenario.ID()]
		if l == nil {
			t.Fatalf("record %s missing after reload", r.Scenario.ID())
		}
		if l.Counts != r.Counts || l.Golden != r.Golden || l.APICalls != r.APICalls || l.Seed != r.Seed {
			t.Errorf("%s did not round-trip: %+v vs %+v", r.Scenario.ID(), l, r)
		}
	}

	// Resume: everything already in the database, nothing new streams and
	// no campaign is announced.
	st2, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	events := make(chan campaign.Event, 16)
	resumed, err := campaign.New(campaign.Faults(6), campaign.WithStore(st2), campaign.WithEvents(events)).
		RunMatrix(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	close(events)
	for ev := range events {
		if _, ok := ev.(campaign.ScenarioDone); ok {
			t.Error("ScenarioDone fired for a skipped scenario")
		}
	}
	if db2, err := os.ReadFile(path); err != nil || !bytes.Equal(db2, db) {
		t.Errorf("resume re-streamed records (%v): %q", err, db2)
	}
	for i, r := range resumed {
		if r == nil || r.Counts != first[i].Counts {
			t.Errorf("resumed result %d mismatch", i)
		}
	}
}

// TestMatrixReportsScenarioError checks a broken scenario fails the matrix
// without wedging the scheduler, and healthy scenarios still finish.
func TestMatrixReportsScenarioError(t *testing.T) {
	jobs := []campaign.ScenarioJob{
		{Scenario: npb.Scenario{App: "NOPE", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Seed: 1},
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Seed: 2},
	}
	res, err := campaign.New(campaign.Faults(2), campaign.WithStore(tempStore(t))).
		RunMatrix(context.Background(), jobs)
	if err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Fatalf("err = %v, want unknown-app failure", err)
	}
	if res[1] == nil || res[1].Counts.Total() != 2 {
		t.Error("healthy scenario did not complete alongside the failure")
	}
}

// TestJobsForSeedsStable pins the seed convention across the change from a
// per-call map of formatted IDs to npb.Index: a scenario draws base + its
// position in npb.Scenarios(), found here the way JobsFor used to find it,
// whether it is the catalog's own value or parsed back from its ID, in
// catalog order or not; a scenario outside the catalog draws the base seed.
func TestJobsForSeedsStable(t *testing.T) {
	const base = 2018
	catalog := npb.Scenarios()
	pos := make(map[string]int)
	for i, sc := range catalog {
		pos[sc.ID()] = i
	}
	var scs []npb.Scenario
	for i := range catalog { // back to front, through the ID
		parsed, err := npb.ParseID(catalog[len(catalog)-1-i].ID())
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, parsed)
	}
	outside := npb.Scenario{App: "IS", Mode: npb.OMP, ISA: "armv8", Cores: 3}
	scs = append(scs, outside)
	models := []fault.Model{fault.Reg, fault.Mem, fault.IMem}
	jobs := campaign.New(campaign.Models(models...)).JobsFor(scs, base)
	if len(jobs) != len(scs)*len(models) {
		t.Fatalf("%d jobs for %d scenarios x %d domains", len(jobs), len(scs), len(models))
	}
	for n, job := range jobs {
		want := int64(base)
		if i, ok := pos[job.Scenario.ID()]; ok {
			want += int64(i)
		}
		if job.Scenario != scs[n/len(models)] || job.Domain != models[n%len(models)] || job.Seed != want {
			t.Fatalf("job %d = %+v, want %s %v seed %d", n, job, scs[n/len(models)].ID(), models[n%len(models)], want)
		}
	}
	if got := jobs[len(jobs)-1].Seed; got != base {
		t.Errorf("out-of-catalog scenario drew seed %d, want the base %d", got, base)
	}
	if first := jobs[0]; first.Seed != base+int64(len(pos))-1 {
		t.Errorf("last catalog scenario drew seed %d, want %d", first.Seed, base+len(pos)-1)
	}
}
