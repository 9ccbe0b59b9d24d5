package mach

import (
	"slices"
	"testing"

	"serfi/internal/isa"
	"serfi/internal/isa/armv7"
	"serfi/internal/isa/armv8"
)

// runLockstep drives two identically configured machines — the block-cached
// fast path and the reference interpreter — in chunks of `stride` retired
// instructions, asserting complete machine-state equality (registers, RAM,
// caches, timers, console, counters) at every boundary. stride 1 checks
// every single retirement boundary. Both machines also keep the golden
// run's records — a page-touch table, a liveness record (marked every 64
// boundaries, as a golden run marks its checkpoint candidates) and cache-set
// stamps — which are no part of a Snapshot and are compared beside it.
func runLockstep(t *testing.T, mk func(slow bool) *Machine, stride, maxInstr uint64) {
	t.Helper()
	fast, slow := mk(false), mk(true)
	for _, m := range []*Machine{fast, slow} {
		m.KeepRecords()
	}
	for i := uint64(0); ; i++ {
		if i%64 == 0 {
			fast.CheckpointSnapshot()
			slow.CheckpointSnapshot()
		}
		target := fast.TotalRetired + stride
		if maxInstr != 0 && target > maxInstr {
			target = maxInstr
		}
		fast.SetInstrBudget(target)
		slow.SetInstrBudget(target)
		rf := fast.Run(50_000_000)
		rs := slow.Run(50_000_000)
		if rf != rs {
			t.Fatalf("boundary %d (retired %d): stop fast=%v slow=%v", i, fast.TotalRetired, rf, rs)
		}
		if fast.TotalRetired != slow.TotalRetired {
			t.Fatalf("boundary %d: retired fast=%d slow=%d", i, fast.TotalRetired, slow.TotalRetired)
		}
		if !fast.Snapshot().StateEquals(slow) {
			for ci := range fast.Cores {
				fc, sc := &fast.Cores[ci], &slow.Cores[ci]
				if *fc != *sc {
					t.Logf("core %d fast: pc=%#x cycles=%d stats=%+v", ci, fc.PC, fc.Cycles, fc.Stats)
					t.Logf("core %d slow: pc=%#x cycles=%d stats=%+v", ci, sc.PC, sc.Cycles, sc.Stats)
				}
			}
			t.Fatalf("boundary %d (retired %d, stop %v): machine state diverged", i, fast.TotalRetired, rf)
		}
		if !slices.Equal(fast.PageTouch, slow.PageTouch) {
			t.Fatalf("boundary %d (retired %d): page-touch tables diverged\nfast: %v\nslow: %v",
				i, fast.TotalRetired, fast.PageTouch, slow.PageTouch)
		}
		if !fast.Liveness().Equal(slow.Liveness()) {
			t.Fatalf("boundary %d (retired %d): liveness records diverged", i, fast.TotalRetired)
		}
		if !slices.Equal(fast.Hier.SetStamps(), slow.Hier.SetStamps()) {
			t.Fatalf("boundary %d (retired %d): cache-set stamps diverged", i, fast.TotalRetired)
		}
		if rf != StopInstrBudget || (maxInstr != 0 && fast.TotalRetired >= maxInstr) {
			return
		}
	}
}

// TestLockstepSumLoop pins the single-core hot-loop case at every boundary.
func TestLockstepSumLoop(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec func() isa.ISA
	}{{"v7", func() isa.ISA { return armv7.New() }}, {"v8", func() isa.ISA { return armv8.New() }}} {
		t.Run(tc.name, func(t *testing.T) {
			prog := []isa.Instr{
				al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: 500}),
				al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: 0}),
				al(isa.Instr{Op: isa.OpADD, Rd: 1, Rn: 1, Rm: 0}),
				al(isa.Instr{Op: isa.OpSUBI, Rd: 0, Rn: 0, Imm: 1}),
				al(isa.Instr{Op: isa.OpCMPI, Rn: 0, Imm: 0}),
				{Op: isa.OpB, Cond: isa.CondNE, Imm: -3},
				al(isa.Instr{Op: isa.OpHALT}),
			}
			mk := func(slow bool) *Machine {
				cfg := testConfig(tc.codec(), 1)
				cfg.SlowPath = slow
				return newTestMachine(t, cfg, prog, nil)
			}
			runLockstep(t, mk, 1, 0)
		})
	}
}

// TestLockstepMulticoreSharedCounters locksteps the leapfrogging two-core
// workload (shared memory, coherence traffic) at every retirement boundary.
func TestLockstepMulticoreSharedCounters(t *testing.T) {
	kern := []isa.Instr{
		al(isa.Instr{Op: isa.OpMRS, Rd: 0, Imm: isa.SysCOREID}),
		al(isa.Instr{Op: isa.OpLSLI, Rd: 0, Rn: 0, Imm: 3}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: dataBase}),
		al(isa.Instr{Op: isa.OpADD, Rd: 1, Rn: 1, Rm: 0}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 2, Imm: 800}),
		al(isa.Instr{Op: isa.OpLDR, Rd: 3, Rn: 1, Imm: 0}),
		al(isa.Instr{Op: isa.OpADDI, Rd: 3, Rn: 3, Imm: 1}),
		al(isa.Instr{Op: isa.OpSTR, Rd: 3, Rn: 1, Imm: 0}),
		al(isa.Instr{Op: isa.OpSUBI, Rd: 2, Rn: 2, Imm: 1}),
		al(isa.Instr{Op: isa.OpCBNZ, Rn: 2, Imm: -4}),
		al(isa.Instr{Op: isa.OpMRS, Rd: 4, Imm: isa.SysCOREID}),
		al(isa.Instr{Op: isa.OpCBNZ, Rn: 4, Imm: 2}),
		al(isa.Instr{Op: isa.OpHALT}),
		al(isa.Instr{Op: isa.OpB, Imm: 0}),
	}
	mk := func(slow bool) *Machine {
		cfg := testConfig(armv8.New(), 2)
		cfg.SlowPath = slow
		return newTestMachine(t, cfg, kern, nil)
	}
	runLockstep(t, mk, 1, 0)
}

// TestLockstepTimerWFIAndUserMode locksteps timers, WFI sleep/wake,
// exception entry/return and user-mode execution — every scheduler event
// the cursor loop must hand back to the reference.
func TestLockstepTimerWFIAndUserMode(t *testing.T) {
	kern := []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 2, Imm: 300}),
		al(isa.Instr{Op: isa.OpMSR, Rn: 2, Imm: isa.SysTIMER}),
	}
	kern = append(kern, eretTo(2)...) // user mode, IRQs on
	// Vector: count timer traps in SCRATCH; after 5, halt; else re-arm + eret.
	vector := []isa.Instr{
		al(isa.Instr{Op: isa.OpMRS, Rd: 9, Imm: isa.SysSCRATCH}),
		al(isa.Instr{Op: isa.OpADDI, Rd: 9, Rn: 9, Imm: 1}),
		al(isa.Instr{Op: isa.OpMSR, Rn: 9, Imm: isa.SysSCRATCH}),
		al(isa.Instr{Op: isa.OpCMPI, Rn: 9, Imm: 5}),
		{Op: isa.OpB, Cond: isa.CondLT, Imm: 2},
		al(isa.Instr{Op: isa.OpHALT}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 2, Imm: 300}),
		al(isa.Instr{Op: isa.OpMSR, Rn: 2, Imm: isa.SysTIMER}),
		al(isa.Instr{Op: isa.OpERET}),
	}
	user := []isa.Instr{
		al(isa.Instr{Op: isa.OpADDI, Rd: 5, Rn: 5, Imm: 1}),
		al(isa.Instr{Op: isa.OpB, Imm: -1}),
	}
	mk := func(slow bool) *Machine {
		cfg := testConfig(armv8.New(), 1)
		cfg.SlowPath = slow
		m := newTestMachine(t, cfg, kern, user)
		m.LoadBytes(VectorBase, asm(t, cfg.ISA, vector))
		m.FlushDecoded()
		return m
	}
	runLockstep(t, mk, 1, 0)
}

// TestLockstepSelfModifyingCode locksteps the store-to-text invalidation
// path: the fast path must drop the covering block run mid-execution.
func TestLockstepSelfModifyingCode(t *testing.T) {
	nop, err := armv8.New().Encode(isa.Instr{Op: isa.OpNOP, Cond: isa.CondAL})
	if err != nil {
		t.Fatal(err)
	}
	prog := []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: int64(nop & 0xffff)}),
		al(isa.Instr{Op: isa.OpMOVK, Rd: 0, Ra: 1, Imm: int64(nop >> 16)}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: kernBase + 4*4}),
		al(isa.Instr{Op: isa.OpSTRW, Rd: 0, Rn: 1, Imm: 0}),
		al(isa.Instr{Op: isa.OpHALT}), // overwritten with nop by the store above
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 5, Imm: 1}),
		al(isa.Instr{Op: isa.OpHALT}),
	}
	mk := func(slow bool) *Machine {
		cfg := testConfig(armv8.New(), 1)
		cfg.SlowPath = slow
		m := newTestMachine(t, cfg, prog, nil)
		// Pre-decode everything so both paths start from warm caches.
		for pc := uint32(kernBase); pc < kernBase+7*4; pc += 4 {
			m.decoded[pc>>2] = m.ISA.Decode(m.Mem.ReadU32(pc))
			m.decValid[pc>>2] = true
		}
		return m
	}
	runLockstep(t, mk, 1, 0)
	m := mk(false)
	if r := m.Run(100000); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if m.Cores[0].Regs[5] != 1 {
		t.Error("fast path executed a stale block run across self-modification")
	}
}

// TestLockstepInjectionHook locksteps a mid-run injection (a register flip
// armed at a commit index): the fast path must fire the hook at exactly
// the same boundary and re-derive its cursors afterwards.
func TestLockstepInjectionHook(t *testing.T) {
	prog := []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: 400}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: 0}),
		al(isa.Instr{Op: isa.OpADD, Rd: 1, Rn: 1, Rm: 0}),
		al(isa.Instr{Op: isa.OpSUBI, Rd: 0, Rn: 0, Imm: 1}),
		al(isa.Instr{Op: isa.OpCBNZ, Rn: 0, Imm: -2}),
		al(isa.Instr{Op: isa.OpHALT}),
	}
	mk := func(slow bool) *Machine {
		cfg := testConfig(armv8.New(), 1)
		cfg.SlowPath = slow
		m := newTestMachine(t, cfg, prog, nil)
		m.InjectAt = 123
		m.Inject = func(mm *Machine) { mm.Cores[0].Regs[1] ^= 1 << 7 }
		return m
	}
	runLockstep(t, mk, 1, 0)
}

// TestRestoreDropsBlockRuns mirrors the not-yet-decoded-word invalidation
// test at TestStoreToTextInvalidatesDecode for the block cache: a snapshot
// restore must drop (or revalidate) every cached run, so text that changed
// between capture and restore is re-decoded, never dispatched stale.
func TestRestoreDropsBlockRuns(t *testing.T) {
	prog := []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: 50}),
		al(isa.Instr{Op: isa.OpSUBI, Rd: 0, Rn: 0, Imm: 1}),
		al(isa.Instr{Op: isa.OpCBNZ, Rn: 0, Imm: -1}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 5, Imm: 7}),
		al(isa.Instr{Op: isa.OpHALT}),
	}
	cfg := testConfig(armv8.New(), 1)
	m := newTestMachine(t, cfg, prog, nil)
	snap := m.Snapshot() // boot state, before any block run exists
	if r := m.Run(0); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if m.Cores[0].Regs[5] != 7 {
		t.Fatalf("r5 = %d, want 7", m.Cores[0].Regs[5])
	}
	// The loop body is now block-cached. Rewrite the MOVZ r5,#7 word in
	// RAM behind the machine's back, restore the snapshot (which holds the
	// original RAM), and run again: a stale block run would reproduce the
	// pre-restore decode.
	w, err := cfg.ISA.Encode(al(isa.Instr{Op: isa.OpMOVZ, Rd: 5, Imm: 9}))
	if err != nil {
		t.Fatal(err)
	}
	m.Restore(snap)
	m.Mem.WriteU32(kernBase+3*4, w)
	m.InvalidateText(kernBase+3*4, 4)
	if r := m.Run(0); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if m.Cores[0].Regs[5] != 9 {
		t.Errorf("r5 = %d after restore+retext, want 9 (stale block run)", m.Cores[0].Regs[5])
	}
	// And restoring again re-decodes the snapshot's original text.
	m.Restore(snap)
	if r := m.Run(0); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if m.Cores[0].Regs[5] != 7 {
		t.Errorf("r5 = %d after second restore, want 7 (stale block run)", m.Cores[0].Regs[5])
	}
}

// TestInvalidateTextFirstAndLastWord pins the decode-cache edges the
// instruction-memory fault injector hits: flips at the first and the very
// last cached text word (including a text limit that is not a multiple of
// the cache's limit/4+1 slot rounding) must drop both the decode and any
// covering block run, and must not index out of range.
func TestInvalidateTextFirstAndLastWord(t *testing.T) {
	nop := al(isa.Instr{Op: isa.OpNOP})
	prog := []isa.Instr{nop, nop, nop, nop, al(isa.Instr{Op: isa.OpHALT})}
	for _, limit := range []uint32{dataBase, dataBase - 2, dataBase + 1} {
		cfg := testConfig(armv8.New(), 1)
		m := newTestMachine(t, cfg, prog, nil)
		m.SetTextLimit(limit)
		m.SetEntry(kernBase)
		if r := m.Run(0); r != StopHalted {
			t.Fatalf("limit %#x: stop = %v", limit, r)
		}
		// Flip a bit in the first and last cached words; both must
		// re-decode on the next fetch.
		for _, addr := range []uint32{0, (limit - 1) &^ 3} {
			m.Mem.WriteU32(addr, m.Mem.ReadU32(addr)^(1<<3))
			m.InvalidateText(addr, 4) // must not panic or leave stale state
		}
		// Whole-range invalidation across the rounded tail slot.
		m.InvalidateText(limit-4, 64)
		m.InvalidateText(0, limit+64)
	}
}
