package mach

import (
	"testing"

	"serfi/internal/isa"
	"serfi/internal/isa/armv8"
)

// TestLivenessLineage pins the liveness record's answers on a two-core
// microprogram that walks every lineage case. Core 0 saves its context and
// hands the block to core 1, which restores it, reads x5 with an ALU op,
// stores x11, loads slot 7 with a plain load and leaves x6 alone. Mark A is taken before
// the first instruction, mark B right after core 0's SAVECTX; the fates are
// the same on the fast path and on the reference interpreter. Core 0 ends
// with an SVC whose vector halts the machine.
func TestLivenessLineage(t *testing.T) {
	const (
		flag = dataBase       // core 0 -> core 1: the block is saved
		done = dataBase + 8   // core 1 -> core 0: the block is consumed
		ctx  = dataBase + 512 // the context block, one line away from the flags
	)
	core0 := []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: ctx}),
		al(isa.Instr{Op: isa.OpMSR, Rn: 1, Imm: isa.SysCTXPTR}),
		al(isa.Instr{Op: isa.OpSAVECTX}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 4, Imm: 0}), // mark B before this: x4 overwritten before any read
		al(isa.Instr{Op: isa.OpBL, Imm: 1}),          // x30 overwritten by the link
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: flag}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 2, Imm: 1}),
		al(isa.Instr{Op: isa.OpSTR, Rd: 2, Rn: 1}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: done}),
		al(isa.Instr{Op: isa.OpLDR, Rd: 2, Rn: 1}),
		al(isa.Instr{Op: isa.OpCBZ, Rn: 2, Imm: -1}),
		al(isa.Instr{Op: isa.OpSVC}), // the bank switch reads sp; the vector halts
	}
	core1 := []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 1, Imm: flag}),
		al(isa.Instr{Op: isa.OpLDR, Rd: 2, Rn: 1}), // x2's value at mark A: overwritten before any read
		al(isa.Instr{Op: isa.OpCBZ, Rn: 2, Imm: -1}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 3, Imm: ctx}),
		al(isa.Instr{Op: isa.OpMSR, Rn: 3, Imm: isa.SysCTXPTR}),
		al(isa.Instr{Op: isa.OpRESTCTX}),                     // core 0's x0..x30 move onto core 1
		al(isa.Instr{Op: isa.OpADD, Rd: 20, Rn: 5, Rm: 5}),   // the moved x5 is read by an ALU op
		al(isa.Instr{Op: isa.OpLDR, Rd: 21, Rn: 1, Imm: 56}), // slot 7 is read by a plain load (x1 = ctx)
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 9, Imm: done}),
		al(isa.Instr{Op: isa.OpSTR, Rd: 11, Rn: 9, Imm: 8}), // the moved x11 is read as store data
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 10, Imm: 1}),
		al(isa.Instr{Op: isa.OpSTR, Rd: 10, Rn: 9}),
		al(isa.Instr{Op: isa.OpB, Imm: 0}),
	}
	prelude := []isa.Instr{
		al(isa.Instr{Op: isa.OpMRS, Rd: 0, Imm: isa.SysCOREID}),
		al(isa.Instr{Op: isa.OpCBNZ, Rn: 0, Imm: int64(1 + len(core0))}),
	}
	prog := append(append(prelude, core0...), core1...)
	afterSave := uint64(kernBase + 4*(len(prelude)+3)) // core 0's pc once SAVECTX retired
	slot := func(i int) uint32 { return ctx + uint32(i)*8 }

	for _, slow := range []bool{false, true} {
		cfg := testConfig(armv8.New(), 2)
		cfg.SlowPath = slow
		cfg.Profile = true
		m := newTestMachine(t, cfg, prog, nil)
		m.LoadBytes(VectorBase, asm(t, cfg.ISA, []isa.Instr{al(isa.Instr{Op: isa.OpHALT})}))
		a := m.CheckpointSnapshot().Live()
		for m.Cores[0].PC != afterSave {
			m.SetInstrBudget(m.TotalRetired + 1)
			if r := m.Run(100_000); r != StopInstrBudget {
				t.Fatalf("slow=%v: stopped %v before core 0's SAVECTX", slow, r)
			}
		}
		b := m.CheckpointSnapshot().Live()
		if b.Slot(slot(6)) != Consumed {
			t.Fatalf("slow=%v: a mark answered before the record was finished", slow)
		}
		m.SetInstrBudget(0)
		if r := m.Run(1_000_000); r != StopHalted {
			t.Fatalf("slow=%v: stop %v", slow, r)
		}
		m.Liveness().Finish()

		for _, c := range []struct {
			name string
			got  Fate
			want Fate
		}{
			{"A: core 0 x0, overwritten by MRS before CBNZ reads x0", a.Reg(0, 0), Dropped},
			{"A: core 0 x5, saved, restored on core 1, read by ADD", a.Reg(0, 5), Consumed},
			{"A: core 0 x6, saved, restored on core 1, never read", a.Reg(0, 6), Kept},
			{"A: core 0 x4, overwritten after SAVECTX moved it away", a.Reg(0, 4), Kept},
			{"A: core 0 x7, saved, its slot loaded", a.Reg(0, 7), Consumed},
			{"A: core 0 x11, saved, restored on core 1, stored", a.Reg(0, 11), Consumed},
			{"A: core 1 x2, overwritten before any read", a.Reg(1, 2), Dropped},
			{"A: core 1 x6, overwritten by RESTCTX", a.Reg(1, 6), Dropped},
			{"A: slot 6, not a slot yet", a.Slot(slot(6)), Consumed},
			{"B: core 0 x4, overwritten before any read", b.Reg(0, 4), Dropped},
			{"B: core 0 x30, overwritten by BL", b.Reg(0, 30), Dropped},
			{"B: core 0 x5, its own copy never read", b.Reg(0, 5), Kept},
			{"B: core 0 x6, left in a GPR at halt", b.Reg(0, 6), Kept},
			{"B: core 0 sp, read only by the bank switch at SVC", b.Reg(0, 31), Consumed},
			{"B: core 1 x6, overwritten by RESTCTX", b.Reg(1, 6), Dropped},
			{"B: slot 5, restored on core 1, read by ADD", b.Slot(slot(5)), Consumed},
			{"B: slot 6, restored on core 1, left in a slot and a GPR at halt", b.Slot(slot(6)), Kept},
			{"B: slot 7, read by a plain load", b.Slot(slot(7)), Consumed},
			{"B: slot 11, restored on core 1, stored by STR", b.Slot(slot(11)), Consumed},
			{"B: slot 31, the user sp from USP: no slot", b.Slot(slot(31)), Consumed},
		} {
			if c.got != c.want {
				t.Errorf("slow=%v: %s: fate %d, want %d", slow, c.name, c.got, c.want)
			}
		}
		if m.Cores[1].Regs[6] != m.Cores[0].Regs[6] || m.Mem.ReadU64(slot(6)) != m.Cores[0].Regs[6] {
			t.Errorf("slow=%v: x6 did not travel: core 0 %#x, slot %#x, core 1 %#x", slow,
				m.Cores[0].Regs[6], m.Mem.ReadU64(slot(6)), m.Cores[1].Regs[6])
		}
	}
}
