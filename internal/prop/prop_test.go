package prop_test

import (
	"context"
	"testing"

	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
	"serfi/internal/prop"
)

// scenario builds the pinned IS/armv8/SER-1 scenario with a golden run, a
// register fault list at the campaign-compat seed, and a checkpoint set
// shared between injection and tracing.
func scenario(t *testing.T) (*prop.Tracer, *fi.CheckpointSet, fault.Domain, *fi.Golden, []fi.Fault) {
	t.Helper()
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := fi.NewDomain(fault.Reg, img, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := fi.BuildCheckpointsOpt(context.Background(), img, cfg, g, fi.CheckpointOptions{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	faults := fi.List(99, 16, d)
	return prop.NewTracer(img, cfg, g, cs), cs, d, g, faults
}

// TestTracerMatchesCampaignOutcome is the differential pin: re-running an
// injection through the tracer's lockstep walk must classify exactly like
// the campaign run, and interleaving traces with injections over a shared
// CheckpointSet must not perturb the injections — the golden twin reads the
// same immutable snapshots the injection engine restores from.
func TestTracerMatchesCampaignOutcome(t *testing.T) {
	tr, cs, d, g, faults := scenario(t)
	traced, diverged := 0, 0
	for _, p := range faults {
		r1, _ := cs.InjectPointContext(context.Background(), d, g, p)
		if r1.Outcome == fi.Vanished || r1.Outcome == fi.ONA {
			continue // campaigns only trace unmasked runs
		}
		trace, outcome, err := tr.Trace(d, p)
		if err != nil {
			t.Fatalf("trace %v: %v", p, err)
		}
		if outcome != r1.Outcome {
			t.Errorf("fault %v: tracer classified %v, campaign %v", p, outcome, r1.Outcome)
		}
		if trace.Escape < 0 || trace.Escape >= prop.NumClasses {
			t.Errorf("fault %v: invalid escape class %d", p, trace.Escape)
		}
		if trace.ArchInstr >= 0 {
			diverged++
			if trace.ArchCyc < 0 {
				t.Errorf("fault %v: arch divergence without cycle latency", p)
			}
			if trace.Escape < prop.EscapeReg {
				t.Errorf("fault %v: arch divergence at %d but escape %v", p, trace.ArchInstr, trace.Escape)
			}
		}
		// Non-perturbation: the injection replays bit-identically after
		// the trace touched the shared checkpoint set.
		if r2, _ := cs.InjectPointContext(context.Background(), d, g, p); r2 != r1 {
			t.Errorf("fault %v: injection perturbed by tracing: %+v != %+v", p, r2, r1)
		}
		traced++
	}
	if traced == 0 {
		t.Fatal("pinned seed produced no unmasked runs to trace; test checks nothing")
	}
	if diverged == 0 {
		t.Error("no traced run showed architectural divergence")
	}
}

// TestTracerDeterministic pins that tracing the same point twice yields an
// identical Trace — required for byte-identical campaign JSONL.
func TestTracerDeterministic(t *testing.T) {
	tr, cs, d, g, faults := scenario(t)
	for _, p := range faults {
		if r, _ := cs.InjectPointContext(context.Background(), d, g, p); r.Outcome == fi.Vanished || r.Outcome == fi.ONA {
			continue
		}
		t1, o1, err := tr.Trace(d, p)
		if err != nil {
			t.Fatal(err)
		}
		t2, o2, err := tr.Trace(d, p)
		if err != nil {
			t.Fatal(err)
		}
		if t1 != t2 || o1 != o2 {
			t.Fatalf("fault %v: trace not deterministic: %+v/%v != %+v/%v", p, t1, o1, t2, o2)
		}
		return // one point suffices
	}
	t.Fatal("no unmasked run found")
}

// TestTracerWithoutCheckpoints pins that a from-reset tracer (nil
// CheckpointSet) reaches the same verdicts as the checkpointed one.
func TestTracerWithoutCheckpoints(t *testing.T) {
	tr, cs, d, g, faults := scenario(t)
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	cold := prop.NewTracer(img, cfg, g, nil)
	for _, p := range faults {
		if r, _ := cs.InjectPointContext(context.Background(), d, g, p); r.Outcome == fi.Vanished || r.Outcome == fi.ONA {
			continue
		}
		t1, o1, err := tr.Trace(d, p)
		if err != nil {
			t.Fatal(err)
		}
		t2, o2, err := cold.Trace(d, p)
		if err != nil {
			t.Fatal(err)
		}
		if t1 != t2 || o1 != o2 {
			t.Fatalf("fault %v: checkpointed trace %+v/%v != from-reset %+v/%v", p, t1, o1, t2, o2)
		}
		return
	}
	t.Fatal("no unmasked run found")
}

// TestTracerCacheDomain pins the tracer over an uncore fault: a cache
// metadata flip must trace without error and classify identically to the
// campaign path, whatever its outcome.
func TestTracerCacheDomain(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := fi.NewDomain(fault.CacheTag, img, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := fi.BuildCheckpointsOpt(context.Background(), img, cfg, g, fi.CheckpointOptions{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := prop.NewTracer(img, cfg, g, cs)
	for _, p := range fi.List(7, 3, d) {
		r, _ := cs.InjectPointContext(context.Background(), d, g, p)
		trace, outcome, err := tr.Trace(d, p)
		if err != nil {
			t.Fatalf("trace %v: %v", p, err)
		}
		if outcome != r.Outcome {
			t.Errorf("fault %v: tracer classified %v, campaign %v", p, outcome, r.Outcome)
		}
		if trace.Escape < 0 || trace.Escape >= prop.NumClasses {
			t.Errorf("fault %v: invalid escape class %d", p, trace.Escape)
		}
	}
}

func TestClassRoundTrip(t *testing.T) {
	for c := prop.Class(0); c < prop.NumClasses; c++ {
		got, err := prop.ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("class %d: round-trip %v, %v", c, got, err)
		}
	}
	if _, err := prop.ParseClass("bogus"); err == nil {
		t.Error("ParseClass accepted bogus name")
	}
}
