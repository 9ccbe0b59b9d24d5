package fi_test

import (
	"math/rand"
	"testing"

	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/isa"
	"serfi/internal/npb"
)

// tinyDomain builds a register domain whose whole target space is small
// enough to force sampling collisions.
func tinyDomain(t *testing.T, span uint64, targets int) fault.Domain {
	t.Helper()
	d, err := fault.New(fault.Reg, fault.Env{
		Feat:  isa.Features{WordBytes: 4, NumGPR: targets, FaultTargets: targets},
		Cores: 1,
		Span:  span,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestListDeduplicatesCollisions is the dedup regression test: on a tiny
// target space the raw stream repeats tuples, and a campaign drawing them
// twice would silently double-count an outcome. List must resample
// deterministically instead.
func TestListDeduplicatesCollisions(t *testing.T) {
	d := tinyDomain(t, 2, 2) // 2 x 2 x 32 = 128 tuples
	const n = 100

	// The raw stream must actually collide, or this test checks nothing.
	r := rand.New(rand.NewSource(3))
	raw := make(map[fi.Fault]int)
	collisions := 0
	for i := 0; i < n; i++ {
		p := d.Sample(r)
		if raw[p] > 0 {
			collisions++
		}
		raw[p]++
	}
	if collisions == 0 {
		t.Fatal("raw stream produced no collisions; shrink the domain")
	}

	list := fi.List(3, n, d)
	if len(list) != n {
		t.Fatalf("list length %d, want %d", len(list), n)
	}
	seen := make(map[fi.Fault]struct{}, n)
	for i, p := range list {
		if _, dup := seen[p]; dup {
			t.Fatalf("tuple %d sampled twice: %v", i, p)
		}
		seen[p] = struct{}{}
	}

	// Deterministic: the same seed reproduces the deduplicated list.
	again := fi.List(3, n, d)
	for i := range list {
		if list[i] != again[i] {
			t.Fatalf("dedup not deterministic at %d", i)
		}
	}

	// Prefix stability: draws before the first collision are unchanged, so
	// campaigns whose lists never collided stay bit-identical.
	r = rand.New(rand.NewSource(3))
	for i := 0; i < len(list); i++ {
		p := d.Sample(r)
		if p != list[i] {
			break // first resampled position; the prefix matched
		}
		if i == len(list)-1 {
			t.Fatal("expected at least one resampled draw")
		}
	}
}

// TestListExhaustedSpaceAllowsRepeats: a campaign larger than its whole
// fault space must still terminate, repeating tuples only once every
// distinct tuple has been drawn.
func TestListExhaustedSpaceAllowsRepeats(t *testing.T) {
	d := tinyDomain(t, 1, 1) // 1 x 1 x 32 = 32 tuples
	list := fi.List(9, 40, d)
	if len(list) != 40 {
		t.Fatalf("list length %d, want 40", len(list))
	}
	uniq := make(map[fi.Fault]struct{})
	for i, p := range list {
		if _, dup := uniq[p]; dup && uint64(len(uniq)) < d.Size() {
			t.Fatalf("tuple %d repeated before the space was exhausted", i)
		}
		uniq[p] = struct{}{}
	}
	if uint64(len(uniq)) != d.Size() {
		t.Errorf("drew %d distinct tuples of %d", len(uniq), d.Size())
	}
}

// TestFaultListMatchesLegacySampler locks golden compatibility: at seeds
// whose streams do not collide (every realistic campaign), the register
// domain's List is bit-identical to the pre-domain sampler — same index, core, register and
// bit from the same rand stream.
func TestFaultListMatchesLegacySampler(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	feat := cfg.ISA.Feat()
	got := fi.List(99, 64, regDomain(t, img, cfg, g))
	r := rand.New(rand.NewSource(99))
	span := g.AppEnd - g.AppStart
	for i, p := range got {
		want := fi.Fault{
			Index: uint64(r.Int63n(int64(span))),
			Core:  r.Intn(cfg.Cores),
			Reg:   r.Intn(feat.FaultTargets),
			Bit:   r.Intn(feat.WordBytes * 8),
		}
		if p != want {
			t.Fatalf("fault %d: %+v != legacy %+v", i, p, want)
		}
	}
}

// TestCheckpointInjectMatchesResetAllDomains extends the engine's core
// correctness claim to every fault domain: restoring from a pre-fault
// snapshot yields the exact Result of a from-reset run whether the fault
// lands in a register, a data word, an instruction word or a bit burst.
func TestCheckpointInjectMatchesResetAllDomains(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := checkpoints(t, img, cfg, g, 6)
	for _, model := range fault.Models() {
		d, err := fi.NewDomain(model, img, cfg, g)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		for i, p := range fi.List(11, 5, d) {
			want := fromReset(t, img, cfg, g, d, p)
			got := cs.InjectPoint(d, g, p)
			if got != want {
				t.Errorf("%s fault %d (%s): snapshot run %+v != reset run %+v", model, i, p, got, want)
			}
		}
	}
}

// TestIMemFaultsLeaveTrace checks the model invariant behind the report's
// D1 shape check: an instruction-word flip persists in read-only text, so
// an IMem fault can be masked (ONA) but never Vanished.
func TestIMemFaultsLeaveTrace(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := fi.NewDomain(fault.IMem, img, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fi.List(5, 6, d) {
		if r := fromReset(t, img, cfg, g, d, p); r.Outcome == fi.Vanished {
			t.Errorf("imem fault %s vanished despite the persistent text flip", p)
		}
	}
}

// TestCheckpointsShortLifespan covers the placement edge case of an app
// lifespan shorter than the requested snapshot count: duplicate targets
// are skipped, every snapshot is distinct, and the earliest still sits
// strictly before the lifespan opens.
func TestCheckpointsShortLifespan(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	short := *g
	short.AppEnd = short.AppStart + 3 // lifespan of 3 instructions, 8 checkpoints
	cs := checkpoints(t, img, cfg, &short, 8)
	if cs.Len() == 0 || cs.Len() > 4 {
		t.Fatalf("checkpoints = %d, want 1..4 for a 3-instruction lifespan", cs.Len())
	}
	// Faults at the very first and the last lifespan instruction must find
	// a strictly-earlier checkpoint and classify exactly like from-reset.
	d := regDomain(t, img, cfg, g)
	for _, f := range []fi.Fault{
		{Index: 0, Core: 0, Reg: 3, Bit: 5},
		{Index: 2, Core: 0, Reg: 3, Bit: 5},
	} {
		want := fromReset(t, img, cfg, g, d, f)
		got := cs.InjectPoint(d, g, f)
		if got != want {
			t.Errorf("short-lifespan fault %s: snapshot run %+v != reset run %+v", f, got, want)
		}
	}
}

// TestFirstInstructionFaultUsesSnapshot pins the strictly-earlier
// checkpoint guarantee: a fault at the first application instruction (the
// lowest possible inject index) must still restore from a snapshot rather
// than fall back to reset.
func TestFirstInstructionFaultUsesSnapshot(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := checkpoints(t, img, cfg, g, 4)
	f := fi.Fault{Index: 0, Core: 0, Reg: 3, Bit: 5}
	d := regDomain(t, img, cfg, g)
	want := fromReset(t, img, cfg, g, d, f)
	got := cs.InjectPoint(d, g, f)
	if got != want {
		t.Fatalf("first-instruction fault: snapshot run %+v != reset run %+v", got, want)
	}
	// The snapshot path must have skipped the pre-lifespan prefix: the
	// boot alone retires AppStart instructions, so simulating fewer proves
	// a restore happened.
	executed, fromReset := cs.SimulatedInstructions()
	if executed >= fromReset {
		t.Errorf("no snapshot amortization for the earliest fault: executed %d of %d", executed, fromReset)
	}
}
