package campaign_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/npb"
	"serfi/internal/obs"
)

// TestEventOrderingUnderCancellation cancels a matrix mid-flight and checks
// the event-stream contract holds under the abort path: MatrixDone is the
// final event (nothing trails it, nothing is left unconsumed), and no
// campaign emits a JobDone after its own ScenarioDone.
func TestEventOrderingUnderCancellation(t *testing.T) {
	jobs := []campaign.ScenarioJob{
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Seed: 61},
		{Scenario: npb.Scenario{App: "EP", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Seed: 62},
		{Scenario: npb.Scenario{App: "IS", Mode: npb.OMP, ISA: "armv8", Cores: 2}, Seed: 63},
	}
	events := make(chan campaign.Event, 256)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One worker (hence one open-scenario slot) serializes the matrix, so the
	// cancel lands while later campaigns are still pending.
	eng := campaign.New(
		campaign.Faults(8),
		campaign.JobSize(2),
		campaign.Workers(1),
		campaign.WithEvents(events),
	)
	var got []campaign.Event
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for ev := range events {
			got = append(got, ev)
			switch ev.(type) {
			case campaign.ScenarioDone:
				cancel() // abort the rest of the matrix after the first campaign
			case campaign.MatrixDone:
				return
			}
		}
	}()
	_, err := eng.RunMatrix(ctx, jobs)
	<-consumed
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunMatrix err = %v, want context.Canceled", err)
	}
	// Anything still buffered was sent after the terminal MatrixDone.
	close(events)
	for ev := range events {
		t.Errorf("event after MatrixDone: %#v", ev)
	}
	if len(got) == 0 {
		t.Fatal("no events collected")
	}
	if _, ok := got[len(got)-1].(campaign.MatrixDone); !ok {
		t.Errorf("last event = %#v, want MatrixDone", got[len(got)-1])
	}
	doneAt := make(map[string]int)
	for i, ev := range got {
		if sd, ok := ev.(campaign.ScenarioDone); ok {
			doneAt[sd.Key] = i
		}
	}
	if len(doneAt) == 0 {
		t.Fatal("no ScenarioDone before cancellation")
	}
	for i, ev := range got {
		if jd, ok := ev.(campaign.JobDone); ok {
			if at, done := doneAt[jd.Key()]; done && i > at {
				t.Errorf("JobDone for %s at index %d after its ScenarioDone at %d", jd.Key(), i, at)
			}
		}
	}
}

// TestMetricsExposition runs a real small campaign against the process
// registry and checks the text exposition parses structurally and covers
// every instrumented layer: engine, fi, mach and mem families.
func TestMetricsExposition(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	eng := campaign.New(
		campaign.Faults(6),
		campaign.JobSize(3),
		campaign.WithMetrics(obs.Default),
	)
	if _, err := eng.RunMatrix(context.Background(), []campaign.ScenarioJob{{Scenario: sc, Seed: 71}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.Default.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	families, err := obs.Lint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not lint: %v\n%s", err, buf.String())
	}
	if families == 0 {
		t.Fatal("empty exposition")
	}
	text := buf.String()
	for _, fam := range []string{
		"# TYPE serfi_campaign_injections_total counter",
		"# TYPE serfi_campaign_jobs_done_total counter",
		"# TYPE serfi_campaign_checkpoint_resident_bytes gauge",
		"# TYPE serfi_fi_injections_total counter",
		"# TYPE serfi_fi_dead_fault_runs_total counter",
		"# TYPE serfi_fi_restore_seconds histogram",
		"# TYPE serfi_fi_converge_compare_seconds histogram",
		"# TYPE serfi_fi_classify_seconds histogram",
		"# TYPE serfi_fi_instructions_per_injection histogram",
		"# TYPE serfi_mach_retired_instructions_total counter",
		"# TYPE serfi_mach_runs_total counter",
		"# TYPE serfi_mem_snapshots_total counter",
		"# TYPE serfi_mem_restores_total counter",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("exposition missing %q", fam)
		}
	}
	// The campaign classified six faults; the outcome-labelled counters must
	// account for at least that many (obs.Default accumulates across tests,
	// so >= not ==).
	if !strings.Contains(text, `serfi_campaign_injections_total{outcome="`) {
		t.Error("no outcome-labelled injection counters in exposition")
	}
	// Every group that added its checkpoint payload to the resident gauge
	// has closed and taken it back.
	if !strings.Contains(text, "\nserfi_campaign_checkpoint_resident_bytes 0\n") {
		t.Error("checkpoint resident gauge did not return to 0 with no group open")
	}
}
