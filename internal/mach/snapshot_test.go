package mach

import (
	"maps"
	"testing"

	"serfi/internal/isa"
	"serfi/internal/isa/armv8"
)

// snapProg computes a running sum of 1..200 and stores each partial sum to
// RAM, so both register state and memory evolve every iteration.
func snapProg() []isa.Instr {
	return []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: 200}),      // counter
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: 0}),        // sum
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 2, Imm: dataBase}), // store base
		al(isa.Instr{Op: isa.OpADD, Rd: 1, Rn: 1, Rm: 0}),   // sum += counter
		al(isa.Instr{Op: isa.OpSTR, Rd: 1, Rn: 2, Imm: 0}),  // store partial sum
		al(isa.Instr{Op: isa.OpADDI, Rd: 2, Rn: 2, Imm: 8}), // advance pointer
		al(isa.Instr{Op: isa.OpSUBI, Rd: 0, Rn: 0, Imm: 1}), // counter--
		al(isa.Instr{Op: isa.OpCBNZ, Rn: 0, Imm: -4}),       // loop
		al(isa.Instr{Op: isa.OpSTR, Rd: 1, Rn: 2, Imm: 0}),  // final store
		al(isa.Instr{Op: isa.OpHALT}),
	}
}

type finalState struct {
	retired  uint64
	cycles   uint64
	regHash  uint64
	memHash  uint64
	console  string
	stats    CoreStats
	l2Misses uint64
}

func finish(t *testing.T, m *Machine) finalState {
	t.Helper()
	if r := m.Run(0); r != StopHalted {
		t.Fatalf("stop reason %v", r)
	}
	return finalState{
		retired:  m.TotalRetired,
		cycles:   m.MaxCycles(),
		regHash:  m.RegFileHash(),
		memHash:  m.Mem.Hash(),
		console:  m.ConsoleString(),
		stats:    m.TotalStats(),
		l2Misses: m.Hier.L2Stats().Misses,
	}
}

func TestSnapshotRestoreResumesBitExact(t *testing.T) {
	cfg := testConfig(armv8.New(), 1)

	// Reference: run to completion uninterrupted.
	ref := newTestMachine(t, cfg, snapProg(), nil)
	want := finish(t, ref)

	// Capture a snapshot mid-run, at an exact retired-instruction boundary.
	src := newTestMachine(t, cfg, snapProg(), nil)
	src.SetInstrBudget(want.retired / 2)
	if r := src.Run(0); r != StopInstrBudget {
		t.Fatalf("fast-forward stop reason %v", r)
	}
	snap := src.Snapshot()
	if snap.Retired() != want.retired/2 {
		t.Fatalf("snapshot at %d, want %d", snap.Retired(), want.retired/2)
	}
	if MemBytes(snap) == 0 {
		t.Fatal("snapshot retained no RAM pages")
	}

	// The donor machine itself must also finish identically.
	src.SetInstrBudget(0)
	if got := finish(t, src); got != want {
		t.Errorf("donor continuation diverged:\n got %+v\nwant %+v", got, want)
	}

	// Restoring into a fresh machine twice must both times finish identically
	// (also proves Restore does not mutate the shared snapshot).
	for i := 0; i < 2; i++ {
		m := newTestMachine(t, cfg, snapProg(), nil)
		m.Restore(snap)
		if m.TotalRetired != snap.Retired() {
			t.Fatalf("restore %d: retired %d, want %d", i, m.TotalRetired, snap.Retired())
		}
		if got := finish(t, m); got != want {
			t.Errorf("restore %d diverged:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestSnapshotRestoreIntoUninstalledMachine(t *testing.T) {
	cfg := testConfig(armv8.New(), 1)
	src := newTestMachine(t, cfg, snapProg(), nil)
	src.SetInstrBudget(50)
	src.Run(0)
	snap := src.Snapshot()
	src.SetInstrBudget(0)
	want := finish(t, src)

	// A bare machine with no regions mapped and no code loaded: Restore must
	// bring over the region table, RAM image and decoded-text sizing.
	m := New(cfg)
	m.Restore(snap)
	if got := finish(t, m); got != want {
		t.Errorf("bare-machine restore diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestCheckpointSnapshotOmitsProfileTables: a checkpoint captured from a
// profiling machine is the snapshot an unprofiled machine would have taken —
// same execution state, no call counts, no samples, no sampling countdown —
// so restoring one leaves a machine's tables as they were: an unprofiled
// machine's stay nil, and a profiling machine's keep what it has counted.
func TestCheckpointSnapshotOmitsProfileTables(t *testing.T) {
	cfg := testConfig(armv8.New(), 1)
	plain := newTestMachine(t, cfg, snapProg(), nil)
	cfg.Profile, cfg.SamplePeriod = true, 7
	prof := newTestMachine(t, cfg, snapProg(), nil)
	for _, m := range []*Machine{plain, prof} {
		m.SetInstrBudget(300)
		if r := m.Run(0); r != StopInstrBudget {
			t.Fatalf("stop reason %v", r)
		}
	}
	if len(prof.Samples) == 0 {
		t.Fatal("the profiling machine took no samples")
	}
	ck := prof.CheckpointSnapshot()
	if !ck.StateEqualsExact(plain) {
		t.Error("checkpoint of the profiling machine differs from the unprofiled machine's state")
	}
	plain.Restore(ck)
	if plain.Samples != nil || plain.CallCounts != nil {
		t.Error("a machine restored from a checkpoint profiles")
	}
	prof.SetInstrBudget(400)
	if r := prof.Run(0); r != StopInstrBudget {
		t.Fatalf("stop reason %v", r)
	}
	samples, calls, left := maps.Clone(prof.Samples), maps.Clone(prof.CallCounts), prof.untilSample
	prof.Restore(ck)
	if !maps.Equal(prof.Samples, samples) || !maps.Equal(prof.CallCounts, calls) || prof.untilSample != left {
		t.Error("a restore rolled the profiling machine's tables back")
	}
}

// TestCapturesShareCacheChunks: a capture with no access since the last one
// adds no cache bytes and no RAM page, whichever capture kind took either;
// one after a run adds only the chunks the run changed.
func TestCapturesShareCacheChunks(t *testing.T) {
	cfg := testConfig(armv8.New(), 1)
	m := newTestMachine(t, cfg, snapProg(), nil)
	m.SetInstrBudget(100)
	if r := m.Run(0); r != StopInstrBudget {
		t.Fatalf("stop reason %v", r)
	}
	a := m.Snapshot()
	full := CacheBytes([]*Snapshot{a})
	b, c := m.Snapshot(), m.CheckpointSnapshot()
	if got := CacheBytes([]*Snapshot{a, b, c}); got != full {
		t.Errorf("two captures with no access between add %d cache bytes", got-full)
	}
	if got, want := MemBytes(a, b, c), MemBytes(a); got != want || want == 0 {
		t.Errorf("captures with no write between hold %d RAM bytes, the first alone %d", got, want)
	}
	m.SetInstrBudget(200)
	m.Run(0)
	d := m.Snapshot()
	if got := CacheBytes([]*Snapshot{a, b, c, d}); got == full || got >= 2*full {
		t.Errorf("a capture after 100 instructions brings the set from %d to %d cache bytes", full, got)
	}
	if !d.StateEqualsExact(m) {
		t.Error("a sharing capture does not equal its source")
	}
}
