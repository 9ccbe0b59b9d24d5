package mach

import (
	"testing"

	"serfi/internal/cache"
	"serfi/internal/isa"
	"serfi/internal/isa/armv7"
	"serfi/internal/isa/armv8"
	"serfi/internal/mem"
)

const (
	kernBase = 0x1000
	userBase = 0x4000
	dataBase = 0x8000
)

func testConfig(i isa.ISA, cores int) Config {
	return Config{
		ISA:      i,
		Cores:    cores,
		RAMBytes: 1 << 20,
		Timing: TimingModel{
			Name: "test", IntALU: 1, Mul: 3, Div: 10, FPALU: 2, FPDiv: 10,
			LdSt: 1, Branch: 1, Mispredict: 5, ExcEntry: 8, MMIO: 2,
			TickCycles: 1000,
		},
		Cache: cache.HierConfig{
			L1I:   cache.Config{Name: "l1i", SizeBytes: 4 << 10, LineBytes: 64, Ways: 2},
			L1D:   cache.Config{Name: "l1d", SizeBytes: 4 << 10, LineBytes: 64, Ways: 2},
			L2:    cache.Config{Name: "l2", SizeBytes: 64 << 10, LineBytes: 64, Ways: 4},
			L1Lat: 1, L2Lat: 8, MemLat: 40, CoherencePenalty: 10, LineBytes: 64,
		},
	}
}

// asm encodes a program, failing the test on any encoding error.
func asm(t *testing.T, codec isa.ISA, prog []isa.Instr) []byte {
	t.Helper()
	out := make([]byte, 0, len(prog)*4)
	for i, ins := range prog {
		if ins.Cond == 0 && !codec.Feat().HasPred {
			ins.Cond = isa.CondAL
		}
		if ins.Cond == 0 {
			ins.Cond = isa.CondAL
		}
		w, err := codec.Encode(ins)
		if err != nil {
			t.Fatalf("asm[%d] %+v: %v", i, ins, err)
		}
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return out
}

// newTestMachine maps a simple kernel/user layout and loads code.
func newTestMachine(t *testing.T, cfg Config, kernel, user []isa.Instr) *Machine {
	t.Helper()
	m := New(cfg)
	m.Map(mem.Region{Name: "vektor", Start: 0, End: kernBase, Perm: mem.PermR | mem.PermW | mem.PermX})
	m.Map(mem.Region{Name: "ktext", Start: kernBase, End: userBase, Perm: mem.PermR | mem.PermW | mem.PermX})
	m.Map(mem.Region{Name: "utext", Start: userBase, End: dataBase, Perm: mem.PermR | mem.PermX | mem.PermUser})
	m.Map(mem.Region{Name: "data", Start: dataBase, End: 0x20000, Perm: mem.PermR | mem.PermW | mem.PermUser})
	m.Map(mem.Region{Name: "kstack", Start: 0x20000, End: 0x40000, Perm: mem.PermR | mem.PermW})
	if kernel != nil {
		m.LoadBytes(kernBase, asm(t, cfg.ISA, kernel))
	}
	if user != nil {
		m.LoadBytes(userBase, asm(t, cfg.ISA, user))
	}
	m.SetTextLimit(dataBase)
	m.SetEntry(kernBase)
	return m
}

// al wraps an instruction in the always condition.
func al(ins isa.Instr) isa.Instr { ins.Cond = isa.CondAL; return ins }

func TestSumLoopV8(t *testing.T) {
	// r1 = sum of 1..100 computed with a backward loop, then halt.
	prog := []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: 100}), // counter
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: 0}),   // sum
		al(isa.Instr{Op: isa.OpADD, Rd: 1, Rn: 1, Rm: 0}),
		al(isa.Instr{Op: isa.OpSUBI, Rd: 0, Rn: 0, Imm: 1}),
		al(isa.Instr{Op: isa.OpCBNZ, Rn: 0, Imm: -2}),
		al(isa.Instr{Op: isa.OpHALT}),
	}
	m := newTestMachine(t, testConfig(armv8.New(), 1), prog, nil)
	if r := m.Run(0); r != StopHalted {
		t.Fatalf("stop reason %v", r)
	}
	if got := m.Cores[0].Regs[1]; got != 5050 {
		t.Errorf("sum = %d, want 5050", got)
	}
	if m.Cores[0].Stats.Retired != uint64(2+3*100+1) {
		t.Errorf("retired = %d, want %d", m.Cores[0].Stats.Retired, 2+3*100+1)
	}
	if m.Cores[0].Stats.Branches != 100 {
		t.Errorf("branches = %d, want 100", m.Cores[0].Stats.Branches)
	}
}

func TestSumLoopV7WithPredication(t *testing.T) {
	// Same loop using flags and a predicated branch on the v7 ISA.
	prog := []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: 100}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: 0}),
		al(isa.Instr{Op: isa.OpADD, Rd: 1, Rn: 1, Rm: 0}),
		al(isa.Instr{Op: isa.OpSUBI, Rd: 0, Rn: 0, Imm: 1}),
		al(isa.Instr{Op: isa.OpCMPI, Rn: 0, Imm: 0}),
		{Op: isa.OpB, Cond: isa.CondNE, Imm: -3},
		al(isa.Instr{Op: isa.OpHALT}),
	}
	m := newTestMachine(t, testConfig(armv7.New(), 1), prog, nil)
	if r := m.Run(0); r != StopHalted {
		t.Fatalf("stop reason %v", r)
	}
	if got := m.Cores[0].Regs[1]; got != 5050 {
		t.Errorf("sum = %d, want 5050", got)
	}
}

func TestPredicatedSkipRetires(t *testing.T) {
	prog := []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: 1}),
		al(isa.Instr{Op: isa.OpCMPI, Rn: 0, Imm: 1}),
		{Op: isa.OpADDI, Cond: isa.CondEQ, Rd: 1, Rn: 1, Imm: 7}, // executes
		{Op: isa.OpADDI, Cond: isa.CondNE, Rd: 1, Rn: 1, Imm: 9}, // skipped
		al(isa.Instr{Op: isa.OpHALT}),
	}
	m := newTestMachine(t, testConfig(armv7.New(), 1), prog, nil)
	m.Run(0)
	if got := m.Cores[0].Regs[1]; got != 7 {
		t.Errorf("r1 = %d, want 7", got)
	}
	if m.Cores[0].Stats.CondSkipped != 1 {
		t.Errorf("condSkipped = %d, want 1", m.Cores[0].Stats.CondSkipped)
	}
	if m.Cores[0].Stats.Retired != 5 {
		t.Errorf("retired = %d, want 5 (skipped instruction still retires)", m.Cores[0].Stats.Retired)
	}
}

func TestUMULLV7(t *testing.T) {
	prog := []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: 0xffff}),
		al(isa.Instr{Op: isa.OpMOVK, Rd: 0, Ra: 1, Imm: 0x1234}), // r0 = 0x1234ffff
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: 0x5678}),
		al(isa.Instr{Op: isa.OpUMULL, Rd: 2, Ra: 3, Rn: 0, Rm: 1}),
		al(isa.Instr{Op: isa.OpHALT}),
	}
	m := newTestMachine(t, testConfig(armv7.New(), 1), prog, nil)
	m.Run(0)
	p := uint64(0x1234ffff) * uint64(0x5678)
	if got := m.Cores[0].Regs[2]; got != p&0xffffffff {
		t.Errorf("umull lo = %#x, want %#x", got, p&0xffffffff)
	}
	if got := m.Cores[0].Regs[3]; got != p>>32 {
		t.Errorf("umull hi = %#x, want %#x", got, p>>32)
	}
}

func TestMemoryOps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec isa.ISA
	}{{"v7", armv7.New()}, {"v8", armv8.New()}} {
		t.Run(tc.name, func(t *testing.T) {
			prog := []isa.Instr{
				al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: dataBase}),
				al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: 0xbeef}),
				al(isa.Instr{Op: isa.OpSTR, Rd: 1, Rn: 0, Imm: 16}),
				al(isa.Instr{Op: isa.OpLDR, Rd: 2, Rn: 0, Imm: 16}),
				al(isa.Instr{Op: isa.OpSTRB, Rd: 1, Rn: 0, Imm: 3}),
				al(isa.Instr{Op: isa.OpLDRB, Rd: 3, Rn: 0, Imm: 3}),
				al(isa.Instr{Op: isa.OpHALT}),
			}
			m := newTestMachine(t, testConfig(tc.codec, 1), prog, nil)
			m.Run(0)
			c := &m.Cores[0]
			if c.Regs[2] != 0xbeef {
				t.Errorf("ldr = %#x, want 0xbeef", c.Regs[2])
			}
			if c.Regs[3] != 0xef {
				t.Errorf("ldrb = %#x, want 0xef", c.Regs[3])
			}
			if c.Stats.Loads != 2 || c.Stats.Stores != 2 {
				t.Errorf("loads/stores = %d/%d, want 2/2", c.Stats.Loads, c.Stats.Stores)
			}
		})
	}
}

// eretTo builds kernel code that drops to user mode at userBase with the
// given pstate (bit1 = IRQ enabled).
func eretTo(pstate int64) []isa.Instr {
	return []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: pstate}),
		al(isa.Instr{Op: isa.OpMSR, Rn: 0, Imm: isa.SysSPSR}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: userBase}),
		al(isa.Instr{Op: isa.OpMSR, Rn: 1, Imm: isa.SysELR}),
		al(isa.Instr{Op: isa.OpERET}),
	}
}

// vectorHalt installs a trivial exception handler at the vector: it stashes
// the cause in a register and halts.
func installVectorHalt(t *testing.T, m *Machine, codec isa.ISA) {
	prog := []isa.Instr{
		al(isa.Instr{Op: isa.OpMRS, Rd: 9, Imm: isa.SysCAUSE}),
		al(isa.Instr{Op: isa.OpHALT}),
	}
	m.LoadBytes(VectorBase, asm(t, codec, prog))
	m.SetTextLimit(m.textLimit) // drop every decode
}

func TestUserSegfaultVectors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec isa.ISA
	}{{"v7", armv7.New()}, {"v8", armv8.New()}} {
		t.Run(tc.name, func(t *testing.T) {
			user := []isa.Instr{
				al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: kernBase}), // kernel-only region
				al(isa.Instr{Op: isa.OpSTR, Rd: 0, Rn: 0, Imm: 0}),
				al(isa.Instr{Op: isa.OpB, Imm: 0}), // unreachable spin
			}
			m := newTestMachine(t, testConfig(tc.codec, 1), eretTo(0), user)
			installVectorHalt(t, m, tc.codec)
			if r := m.Run(200000); r != StopHalted {
				t.Fatalf("stop = %v", r)
			}
			if got := m.Cores[0].Regs[9]; got != isa.ExcDataAbort {
				t.Errorf("cause = %d (%s), want data abort", got, isa.ExcName(got))
			}
			if got := m.Cores[0].Sys[isa.SysBADADDR]; got != kernBase {
				t.Errorf("badaddr = %#x, want %#x", got, kernBase)
			}
		})
	}
}

func TestSVCVectors(t *testing.T) {
	user := []isa.Instr{
		al(isa.Instr{Op: isa.OpSVC, Imm: 42}),
		al(isa.Instr{Op: isa.OpB, Imm: 0}),
	}
	m := newTestMachine(t, testConfig(armv8.New(), 1), eretTo(0), user)
	installVectorHalt(t, m, armv8.New())
	if r := m.Run(200000); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if got := m.Cores[0].Regs[9]; got != isa.ExcSVC {
		t.Errorf("cause = %d, want svc", got)
	}
	if got := m.Cores[0].Sys[isa.SysELR]; got != userBase+4 {
		t.Errorf("elr = %#x, want %#x", got, userBase+4)
	}
}

func TestTimerInterruptsUserLoop(t *testing.T) {
	kern := []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 2, Imm: 500}),
		al(isa.Instr{Op: isa.OpMSR, Rn: 2, Imm: isa.SysTIMER}),
	}
	kern = append(kern, eretTo(2)...) // user mode with IRQs enabled
	user := []isa.Instr{
		al(isa.Instr{Op: isa.OpB, Imm: 0}), // spin forever
	}
	m := newTestMachine(t, testConfig(armv8.New(), 1), kern, user)
	installVectorHalt(t, m, armv8.New())
	if r := m.Run(1000000); r != StopHalted {
		t.Fatalf("stop = %v (timer never fired)", r)
	}
	if got := m.Cores[0].Regs[9]; got != isa.ExcTimer {
		t.Errorf("cause = %d, want timer", got)
	}
}

func TestUndefinedInstructionVectors(t *testing.T) {
	m := newTestMachine(t, testConfig(armv8.New(), 1), eretTo(0), nil)
	// Write a garbage word at userBase.
	m.LoadBytes(userBase, []byte{0xff, 0xff, 0xff, 0xee})
	installVectorHalt(t, m, armv8.New())
	if r := m.Run(200000); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if got := m.Cores[0].Regs[9]; got != isa.ExcUndef {
		t.Errorf("cause = %d, want undef", got)
	}
}

func TestPrivilegedOpsTrapInUserMode(t *testing.T) {
	for _, op := range []isa.Op{isa.OpHALT, isa.OpWFI, isa.OpERET, isa.OpSAVECTX, isa.OpRESTCTX} {
		user := []isa.Instr{al(isa.Instr{Op: op})}
		m := newTestMachine(t, testConfig(armv8.New(), 1), eretTo(0), user)
		installVectorHalt(t, m, armv8.New())
		if r := m.Run(200000); r != StopHalted {
			t.Fatalf("op %v: stop = %v", op, r)
		}
		if got := m.Cores[0].Regs[9]; got != isa.ExcUndef {
			t.Errorf("op %v: cause = %d, want undef", op, got)
		}
	}
}

func TestWFIDeadlockDetected(t *testing.T) {
	kern := []isa.Instr{al(isa.Instr{Op: isa.OpWFI})}
	m := newTestMachine(t, testConfig(armv8.New(), 2), kern, nil)
	if r := m.Run(100000); r != StopDeadlock {
		t.Fatalf("stop = %v, want deadlock", r)
	}
}

func TestWFIWakesOnTimer(t *testing.T) {
	kern := []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: 300}),
		al(isa.Instr{Op: isa.OpMSR, Rn: 0, Imm: isa.SysTIMER}),
		al(isa.Instr{Op: isa.OpWFI}),
		// After wake (pending, IRQs masked) execution continues here.
		al(isa.Instr{Op: isa.OpHALT}),
	}
	m := newTestMachine(t, testConfig(armv8.New(), 1), kern, nil)
	if r := m.Run(100000); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if m.Cores[0].Stats.IdleCycles == 0 {
		t.Error("expected idle cycles from WFI sleep")
	}
}

func TestFPOpsV8(t *testing.T) {
	d := dataBase
	prog := []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: int64(d)}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: 3}),
		al(isa.Instr{Op: isa.OpSCVTF, Rd: 0, Rn: 1}), // d0 = 3.0
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 2, Imm: 4}),
		al(isa.Instr{Op: isa.OpSCVTF, Rd: 1, Rn: 2}),           // d1 = 4.0
		al(isa.Instr{Op: isa.OpFMUL, Rd: 2, Rn: 0, Rm: 0}),     // d2 = 9
		al(isa.Instr{Op: isa.OpFMUL, Rd: 3, Rn: 1, Rm: 1}),     // d3 = 16
		al(isa.Instr{Op: isa.OpFADD, Rd: 4, Rn: 2, Rm: 3}),     // d4 = 25
		al(isa.Instr{Op: isa.OpFSQRT, Rd: 5, Rm: 4}),           // d5 = 5
		al(isa.Instr{Op: isa.OpFSTR, Rd: 5, Rn: 0, Imm: 0}),    // store
		al(isa.Instr{Op: isa.OpFCVTZS, Rd: 3, Rn: 5}),          // r3 = 5
		al(isa.Instr{Op: isa.OpFCMP, Rn: 5, Rm: 4}),            // 5 < 25
		al(isa.Instr{Op: isa.OpCSET, Rd: 4, Cond: isa.CondMI}), // r4 = 1 (less)
		al(isa.Instr{Op: isa.OpHALT}),
	}
	m := newTestMachine(t, testConfig(armv8.New(), 1), prog, nil)
	m.Run(0)
	c := &m.Cores[0]
	if c.Regs[3] != 5 {
		t.Errorf("fcvtzs = %d, want 5", c.Regs[3])
	}
	if c.Regs[4] != 1 {
		t.Errorf("fcmp less flag = %d, want 1", c.Regs[4])
	}
	if got := m.Mem.ReadU64(uint32(d)); got != 0x4014000000000000 { // 5.0
		t.Errorf("stored bits = %#x, want 5.0", got)
	}
}

func TestCASSemantics(t *testing.T) {
	prog := []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: dataBase}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: 7}),
		al(isa.Instr{Op: isa.OpSTR, Rd: 1, Rn: 0, Imm: 0}),
		// CAS expecting 7 -> swap in 9: succeeds, r4 = 7.
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 2, Imm: 9}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 3, Imm: 7}),
		al(isa.Instr{Op: isa.OpCAS, Rd: 4, Rn: 0, Rm: 2, Ra: 3}),
		// CAS expecting 7 again: fails, r5 = 9, memory unchanged.
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 6, Imm: 11}),
		al(isa.Instr{Op: isa.OpCAS, Rd: 5, Rn: 0, Rm: 6, Ra: 3}),
		al(isa.Instr{Op: isa.OpHALT}),
	}
	m := newTestMachine(t, testConfig(armv8.New(), 1), prog, nil)
	m.Run(0)
	c := &m.Cores[0]
	if c.Regs[4] != 7 || c.Regs[5] != 9 {
		t.Errorf("cas olds = %d,%d want 7,9", c.Regs[4], c.Regs[5])
	}
	if got := m.Mem.ReadU64(dataBase); got != 9 {
		t.Errorf("mem = %d, want 9", got)
	}
}

func TestSaveRestCtxRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec isa.ISA
	}{{"v7", armv7.New()}, {"v8", armv8.New()}} {
		t.Run(tc.name, func(t *testing.T) {
			feat := tc.codec.Feat()
			ctxAddr := int64(0x21000)
			// Kernel: set CTXPTR and KSP, drop to user. Vector: savectx,
			// bump a counter, after 3 traps halt; otherwise restctx+eret.
			kern := []isa.Instr{
				al(isa.Instr{Op: isa.OpMOVZ, Rd: 3, Imm: ctxAddr & 0xffff}),
				al(isa.Instr{Op: isa.OpMOVK, Rd: 3, Ra: hwOne(feat), Imm: ctxAddr >> 16}),
				al(isa.Instr{Op: isa.OpMSR, Rn: 3, Imm: isa.SysCTXPTR}),
				al(isa.Instr{Op: isa.OpMOVZ, Rd: 4, Imm: 0x3000}),
				al(isa.Instr{Op: isa.OpMSR, Rn: 4, Imm: isa.SysKSP}),
			}
			kern = append(kern, eretTo(0)...)
			vector := []isa.Instr{
				al(isa.Instr{Op: isa.OpSAVECTX}),
				al(isa.Instr{Op: isa.OpMRS, Rd: 0, Imm: isa.SysSCRATCH}),
				al(isa.Instr{Op: isa.OpADDI, Rd: 0, Rn: 0, Imm: 1}),
				al(isa.Instr{Op: isa.OpMSR, Rn: 0, Imm: isa.SysSCRATCH}),
				al(isa.Instr{Op: isa.OpCMPI, Rn: 0, Imm: 3}),
				{Op: isa.OpB, Cond: isa.CondLT, Imm: 2},
				al(isa.Instr{Op: isa.OpHALT}),
				al(isa.Instr{Op: isa.OpRESTCTX}),
				al(isa.Instr{Op: isa.OpERET}),
			}
			user := []isa.Instr{
				al(isa.Instr{Op: isa.OpADDI, Rd: 5, Rn: 5, Imm: 1}),
				al(isa.Instr{Op: isa.OpSVC, Imm: 0}),
				al(isa.Instr{Op: isa.OpB, Imm: -2}),
			}
			m := newTestMachine(t, testConfig(tc.codec, 1), kern, user)
			m.LoadBytes(VectorBase, asm(t, tc.codec, vector))
			m.SetTextLimit(m.textLimit) // drop every decode
			if r := m.Run(1000000); r != StopHalted {
				t.Fatalf("stop = %v", r)
			}
			// After 3 traps, user r5 incremented 3 times; its value was
			// saved into the context block on the third trap.
			wb := uint32(feat.WordBytes)
			slotAddr := uint32(ctxAddr) + 5*wb
			var got uint64
			if wb == 4 {
				got = uint64(m.Mem.ReadU32(slotAddr))
			} else {
				got = m.Mem.ReadU64(slotAddr)
			}
			if got != 3 {
				t.Errorf("saved r5 = %d, want 3", got)
			}
			if m.Cores[0].Stats.CtxRestores != 2 {
				t.Errorf("ctx restores = %d, want 2", m.Cores[0].Stats.CtxRestores)
			}
		})
	}
}

// hwOne returns the MOVK half-word index for the second 16-bit chunk.
func hwOne(f isa.Features) uint8 { return 1 }

func TestDeterministicMulticore(t *testing.T) {
	// Two cores hammer adjacent counters; the full run must be bitwise
	// reproducible.
	kern := []isa.Instr{
		al(isa.Instr{Op: isa.OpMRS, Rd: 0, Imm: isa.SysCOREID}),
		al(isa.Instr{Op: isa.OpLSLI, Rd: 0, Rn: 0, Imm: 3}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: dataBase}),
		al(isa.Instr{Op: isa.OpADD, Rd: 1, Rn: 1, Rm: 0}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 2, Imm: 2000}),
		al(isa.Instr{Op: isa.OpLDR, Rd: 3, Rn: 1, Imm: 0}),
		al(isa.Instr{Op: isa.OpADDI, Rd: 3, Rn: 3, Imm: 1}),
		al(isa.Instr{Op: isa.OpSTR, Rd: 3, Rn: 1, Imm: 0}),
		al(isa.Instr{Op: isa.OpSUBI, Rd: 2, Rn: 2, Imm: 1}),
		al(isa.Instr{Op: isa.OpCBNZ, Rn: 2, Imm: -4}),
		// Core 0 halts the machine; core 1 spins.
		al(isa.Instr{Op: isa.OpMRS, Rd: 4, Imm: isa.SysCOREID}),
		al(isa.Instr{Op: isa.OpCBNZ, Rn: 4, Imm: 2}),
		al(isa.Instr{Op: isa.OpHALT}),
		al(isa.Instr{Op: isa.OpB, Imm: 0}),
	}
	run := func() (uint64, uint64, uint64) {
		m := newTestMachine(t, testConfig(armv8.New(), 2), kern, nil)
		m.Run(10_000_000)
		return m.Mem.Hash(), m.RegFileHash(), m.TotalRetired
	}
	h1, r1, n1 := run()
	h2, r2, n2 := run()
	if h1 != h2 || r1 != r2 || n1 != n2 {
		t.Errorf("nondeterministic: (%x,%x,%d) vs (%x,%x,%d)", h1, r1, n1, h2, r2, n2)
	}
	if n1 == 0 {
		t.Error("no instructions retired")
	}
}

func TestConsoleAndPoweroffMMIO(t *testing.T) {
	prog := []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: 0}),
		al(isa.Instr{Op: isa.OpMOVK, Rd: 0, Ra: hwTop(armv8.New().Feat()), Imm: 0xf000}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: 'h'}),
		al(isa.Instr{Op: isa.OpSTRB, Rd: 1, Rn: 0, Imm: 0}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: 'i'}),
		al(isa.Instr{Op: isa.OpSTRB, Rd: 1, Rn: 0, Imm: 0}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 2, Imm: 17}),
		al(isa.Instr{Op: isa.OpSTR, Rd: 2, Rn: 0, Imm: 0x10}),
		al(isa.Instr{Op: isa.OpB, Imm: 0}),
	}
	m := newTestMachine(t, testConfig(armv8.New(), 1), prog, nil)
	if r := m.Run(100000); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if got := m.ConsoleString(); got != "hi" {
		t.Errorf("console = %q, want %q", got, "hi")
	}
	if m.ExitCode != 17 {
		t.Errorf("exit = %d, want 17", m.ExitCode)
	}
}

// hwTop returns the MOVK half-word index that places a 16-bit chunk at the
// top of a 32-bit address.
func hwTop(f isa.Features) uint8 { return 1 }

func TestInjectionHookFires(t *testing.T) {
	prog := []isa.Instr{
		al(isa.Instr{Op: isa.OpADDI, Rd: 0, Rn: 0, Imm: 1}),
		al(isa.Instr{Op: isa.OpCMPI, Rn: 0, Imm: 100}),
		{Op: isa.OpB, Cond: isa.CondLT, Imm: -2},
		al(isa.Instr{Op: isa.OpHALT}),
	}
	// armv7 so the conditional branch can be predicated.
	m := newTestMachine(t, testConfig(armv7.New(), 1), prog, nil)
	var at uint64
	m.InjectAt = 50
	m.Inject = func(mm *Machine) { at = mm.TotalRetired }
	m.Run(0)
	if at != 50 {
		t.Errorf("inject fired at %d, want 50", at)
	}
}

func TestStoreToTextInvalidatesDecode(t *testing.T) {
	// Kernel overwrites its own next instruction (a halt) with a nop,
	// then falls through to a later halt with a marker set.
	nop, err := armv8.New().Encode(isa.Instr{Op: isa.OpNOP, Cond: isa.CondAL})
	if err != nil {
		t.Fatal(err)
	}
	prog := []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: int64(nop & 0xffff)}),
		al(isa.Instr{Op: isa.OpMOVK, Rd: 0, Ra: 1, Imm: int64(nop >> 16)}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: kernBase + 4*4}),
		al(isa.Instr{Op: isa.OpSTRW, Rd: 0, Rn: 1, Imm: 0}),
		al(isa.Instr{Op: isa.OpHALT}), // will be overwritten by nop
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 5, Imm: 1}),
		al(isa.Instr{Op: isa.OpHALT}),
	}
	m := newTestMachine(t, testConfig(armv8.New(), 1), prog, nil)
	// Pre-decode the whole program by running it once? Instead rely on
	// sequential execution: fetch of instruction 4 happens after the
	// store, so this validates invalidation of not-yet-decoded words and
	// the write path. Force pre-decoding to test invalidation proper:
	for pc := uint32(kernBase); pc < kernBase+7*4; pc += 4 {
		m.decoded[pc>>2] = m.ISA.Decode(m.Mem.ReadU32(pc))
		m.decValid[pc>>2] = true
	}
	if r := m.Run(100000); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if m.Cores[0].Regs[5] != 1 {
		t.Error("self-modified code did not take effect (stale decode cache)")
	}
}

// TestPageTouchStampsCommitNumber pins the page-touch record's contract with
// the injection hook: a data access of the instruction that retires as number
// n stamps its page(s) with n, the hook of index n fires after that access,
// and fetches stamp nothing — so "stamp <= n" means "not accessed again once
// fault n has struck". Table-less machines (every machine but fi's golden
// one) are covered by every other test in this package.
func TestPageTouchStampsCommitNumber(t *testing.T) {
	const lo, hi = dataBase / mem.PageBytes, dataBase/mem.PageBytes + 1 // two data pages
	prog := []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: lo * mem.PageBytes}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 3, Imm: hi * mem.PageBytes}),
		al(isa.Instr{Op: isa.OpSTR, Rd: 0, Rn: 1, Imm: 0}), // 3: store, low page
		al(isa.Instr{Op: isa.OpNOP}),
		al(isa.Instr{Op: isa.OpLDR, Rd: 4, Rn: 3, Imm: 0}), // 5: load, high page
		al(isa.Instr{Op: isa.OpSTR, Rd: 0, Rn: 1, Imm: 8}), // 6: store, low page
		al(isa.Instr{Op: isa.OpSUBI, Rd: 5, Rn: 3, Imm: 4}),
		al(isa.Instr{Op: isa.OpSTR, Rd: 0, Rn: 5, Imm: 0}), // 8: 8-byte store across the boundary
		al(isa.Instr{Op: isa.OpHALT}),
	}
	for _, slow := range []bool{false, true} {
		cfg := testConfig(armv8.New(), 1)
		cfg.SlowPath = slow
		m := newTestMachine(t, cfg, prog, nil)
		m.PageTouch = make([]uint64, m.Mem.Size()/mem.PageBytes)
		var atHook []uint64
		m.InjectAt = 5
		m.Inject = func(m *Machine) { atHook = append([]uint64(nil), m.PageTouch...) }
		if r := m.Run(1_000_000); r != StopHalted {
			t.Fatalf("slow=%v: stop = %v", slow, r)
		}
		if atHook == nil {
			t.Fatalf("slow=%v: hook 5 never fired", slow)
		}
		if atHook[lo] != 3 || atHook[hi] != 5 {
			t.Errorf("slow=%v: stamps when hook 5 fired = low %d, high %d, want 3 and 5", slow, atHook[lo], atHook[hi])
		}
		if m.PageTouch[lo] != 8 || m.PageTouch[hi] != 8 {
			t.Errorf("slow=%v: final stamps low %d, high %d, want 8 and 8 (the straddling store)", slow, m.PageTouch[lo], m.PageTouch[hi])
		}
		if got := m.PageTouch[kernBase/mem.PageBytes]; got != 0 {
			t.Errorf("slow=%v: the text page carries stamp %d, fetches must not be recorded", slow, got)
		}
	}
}

// TestRegFileEqualsMatchesHashFields: the exact register-file compare the
// classifier scores Vanished versus ONA with covers exactly the fields
// RegFileHash digests — every GPR, the FP file where the ISA has one, PC
// and the packed PSTATE, per core — and nothing else.
func TestRegFileEqualsMatchesHashFields(t *testing.T) {
	for _, codec := range []isa.ISA{armv7.New(), armv8.New()} {
		feat := codec.Feat()
		for _, tc := range []struct {
			name  string
			flip  func(c *Core)
			equal bool
		}{
			{"none", func(*Core) {}, true},
			{"gpr0", func(c *Core) { c.Regs[0] ^= 1 }, false},
			{"gpr-last", func(c *Core) { c.Regs[feat.NumGPR-1] ^= 1 << 63 }, false},
			{"beyond-gpr", func(c *Core) { c.Regs[31] ^= 1 }, feat.NumGPR <= 31},
			{"fp", func(c *Core) { c.F[7] ^= 1 }, !feat.HasHWFloat},
			{"pc", func(c *Core) { c.PC += 4 }, false},
			{"kernel", func(c *Core) { c.Kernel = !c.Kernel }, false},
			{"flag-z", func(c *Core) { c.Flags.Z = !c.Flags.Z }, false},
		} {
			a, b := New(testConfig(codec, 2)), New(testConfig(codec, 2))
			tc.flip(&b.Cores[1])
			if got := a.RegFileEquals(b); got != tc.equal {
				t.Errorf("%s %s: RegFileEquals = %v, want %v", feat.Name, tc.name, got, tc.equal)
			}
			if hashEq := a.RegFileHash() == b.RegFileHash(); hashEq != tc.equal {
				t.Errorf("%s %s: RegFileHash equal = %v, want %v", feat.Name, tc.name, hashEq, tc.equal)
			}
		}
	}
}
