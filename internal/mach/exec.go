package mach

import (
	"math"
	"math/bits"

	"serfi/internal/isa"
	"serfi/internal/mem"
)

// rreg reads an integer register; on the v7 ISA r15 reads as pc+8.
func (m *Machine) rreg(c *Core, i uint8) uint64 {
	if m.pcIsR15 && i == 15 {
		return (c.PC + 8) & m.wmask
	}
	return c.Regs[i] & m.wmask
}

// wreg writes an integer register and reports whether it branched (a v7
// write to r15 redirects the pc).
func (m *Machine) wreg(c *Core, i uint8, v uint64) (branched bool) {
	if m.wrSlow&(1<<(i&31)) != 0 {
		if m.pcIsR15 && i == 15 {
			c.PC = v & m.wmask &^ 3
			c.lastLine = 0
			return true
		}
		m.live.birth(c.ID, i) // past the pc, only a record sets wrSlow bits
	}
	c.Regs[i] = v & m.wmask
	return false
}

// cmpFlags computes NZCV for a-b at the machine word width.
func (m *Machine) cmpFlags(a, b uint64) isa.Flags {
	a &= m.wmask
	b &= m.wmask
	r := (a - b) & m.wmask
	sign := uint64(1) << (m.wbits - 1)
	return isa.Flags{
		N: r&sign != 0,
		Z: r == 0,
		C: a >= b,
		V: ((a^b)&(a^r))&sign != 0,
	}
}

func (m *Machine) shiftL(v, amt uint64) uint64 {
	if amt >= uint64(m.wbits) {
		return 0
	}
	return v << amt
}

func (m *Machine) shiftR(v, amt uint64) uint64 {
	if amt >= uint64(m.wbits) {
		return 0
	}
	return (v & m.wmask) >> amt
}

func (m *Machine) shiftA(v, amt uint64) uint64 {
	var sv int64
	if m.wbits == 32 {
		sv = int64(int32(uint32(v)))
	} else {
		sv = int64(v)
	}
	if amt >= uint64(m.wbits) {
		amt = uint64(m.wbits) - 1
	}
	return uint64(sv >> amt)
}

// sdiv implements ARM signed division semantics (div-by-zero yields 0,
// INT_MIN/-1 yields INT_MIN).
func (m *Machine) sdiv(a, b uint64) uint64 {
	if m.wbits == 32 {
		x, y := int32(uint32(a)), int32(uint32(b))
		if y == 0 {
			return 0
		}
		if x == math.MinInt32 && y == -1 {
			return uint64(uint32(x))
		}
		return uint64(uint32(x / y))
	}
	x, y := int64(a), int64(b)
	if y == 0 {
		return 0
	}
	if x == math.MinInt64 && y == -1 {
		return uint64(x)
	}
	return uint64(x / y)
}

func (m *Machine) udiv(a, b uint64) uint64 {
	a &= m.wmask
	b &= m.wmask
	if b == 0 {
		return 0
	}
	return a / b
}

// retire commits one instruction: global counting, injection trigger and
// PC sampling.
func (m *Machine) retire(c *Core) {
	c.Stats.Retired++
	if c.Kernel {
		c.Stats.KernelRetired++
	}
	m.TotalRetired++
	if m.TotalRetired == m.InjectAt && m.Inject != nil && !m.injected {
		m.injected = true
		m.Inject(m)
	}
	if m.Samples != nil && m.Cfg.SamplePeriod > 0 {
		if m.untilSample == 0 {
			m.Samples[uint32(c.PC)]++
			m.untilSample = m.Cfg.SamplePeriod
		}
		m.untilSample--
	}
}

// touch stamps the pages of a data access into PageTouch, when the machine
// keeps one. The instruction committing the access retires as number
// TotalRetired+1 and the injection hook of index n fires after instruction n
// retired, so a page whose stamp is <= n is not accessed again once fault n
// has struck.
func (m *Machine) touch(addr, size uint32) {
	if m.PageTouch == nil {
		return
	}
	for p := addr / mem.PageBytes; p <= (addr+size-1)/mem.PageBytes; p++ {
		m.PageTouch[p] = m.TotalRetired + 1
	}
}

// branchStat books a branch outcome against the static
// backward-taken/forward-not-taken predictor; indirect branches always
// mispredict.
func (m *Machine) branchStat(c *Core, taken, predictTaken bool) {
	c.Stats.Branches++
	if taken {
		c.Stats.BranchTaken++
	}
	c.Cycles += uint64(m.Cfg.Timing.Branch)
	if taken != predictTaken {
		c.Stats.Mispredicts++
		c.Cycles += uint64(m.Cfg.Timing.Mispredict)
		c.lastLine = 0
	}
}

// load performs a checked data load; ok=false means an exception was taken.
func (m *Machine) load(c *Core, addr uint64, size uint32) (v uint64, ok bool) {
	if addr >= MMIOBase && addr < 1<<32 {
		if !c.Kernel {
			m.exception(c, isa.ExcDataAbort, c.PC, addr)
			return 0, false
		}
		return m.mmioRead(c, uint32(addr)), true
	}
	if addr+uint64(size) > 1<<32 {
		m.exception(c, isa.ExcDataAbort, c.PC, addr)
		return 0, false
	}
	a := uint32(addr)
	if f := m.Mem.Check(a, size, mem.PermR, !c.Kernel); f != nil {
		m.exception(c, isa.ExcDataAbort, c.PC, addr)
		return 0, false
	}
	c.Cycles += uint64(m.Hier.Data(c.ID, a, false))
	c.Stats.Loads++
	if m.PageTouch != nil {
		// A machine keeping the golden records: the pages, and the slot
		// words of the liveness record (the context ops book theirs).
		m.touch(a, size)
		if l := m.live; l != nil && l.slotNear(a, size) {
			l.ram(a, size, false)
		}
	}
	switch size {
	case 1:
		return uint64(m.Mem.ReadU8(a)), true
	case 4:
		return uint64(m.Mem.ReadU32(a)), true
	default:
		return m.Mem.ReadU64(a), true
	}
}

// store performs a checked data store; ok=false means an exception was taken.
func (m *Machine) store(c *Core, addr uint64, size uint32, v uint64) bool {
	if addr >= MMIOBase && addr < 1<<32 {
		if !c.Kernel {
			m.exception(c, isa.ExcDataAbort, c.PC, addr)
			return false
		}
		m.mmioWrite(c, uint32(addr), v)
		return true
	}
	if addr+uint64(size) > 1<<32 {
		m.exception(c, isa.ExcDataAbort, c.PC, addr)
		return false
	}
	a := uint32(addr)
	if f := m.Mem.Check(a, size, mem.PermW, !c.Kernel); f != nil {
		m.exception(c, isa.ExcDataAbort, c.PC, addr)
		return false
	}
	c.Cycles += uint64(m.Hier.Data(c.ID, a, true))
	c.Stats.Stores++
	if m.PageTouch != nil {
		// A machine keeping the golden records: the pages, and the slot
		// words of the liveness record (the context ops book theirs).
		m.touch(a, size)
		if l := m.live; l != nil && l.slotNear(a, size) {
			l.ram(a, size, true)
		}
	}
	switch size {
	case 1:
		m.Mem.WriteU8(a, uint8(v))
	case 4:
		m.Mem.WriteU32(a, uint32(v))
	default:
		m.Mem.WriteU64(a, v)
	}
	m.invalidateDecoded(a, size)
	return true
}

// fetch reads and decodes the instruction at pc, handling the decoded-text
// cache. ok=false means a prefetch abort was taken.
func (m *Machine) fetch(c *Core) (ins isa.Instr, ok bool) {
	if c.PC >= 1<<32 || c.PC&3 != 0 {
		m.exception(c, isa.ExcPrefetchAbort, c.PC, c.PC)
		return ins, false
	}
	pc := uint32(c.PC)
	if f := m.Mem.Check(pc, 4, mem.PermX, !c.Kernel); f != nil {
		m.exception(c, isa.ExcPrefetchAbort, c.PC, c.PC)
		return ins, false
	}
	line := pc>>6 + 1
	if line != c.lastLine {
		c.Cycles += uint64(m.Hier.Fetch(c.ID, pc))
		c.lastLine = line
	}
	if pc < m.textLimit {
		idx := pc >> 2
		if !m.decValid[idx] {
			m.decoded[idx] = m.ISA.Decode(m.Mem.ReadU32(pc))
			m.decValid[idx] = true
		}
		return m.decoded[idx], true
	}
	return m.ISA.Decode(m.Mem.ReadU32(pc)), true
}

// step advances one core by one event (interrupt delivery or instruction).
func (m *Machine) step(c *Core) {
	if c.timerAt != 0 && c.Cycles >= c.timerAt {
		c.pending = true
		c.timerAt = 0
	}
	if c.pending && c.IRQOn {
		c.pending = false
		m.exception(c, isa.ExcTimer, c.PC, 0)
		return
	}

	ins, ok := m.fetch(c)
	if !ok {
		return
	}
	if l := m.live; l != nil && l.hot[c.ID&7]&readRegs(&ins) != 0 {
		l.reads(c.ID, &ins)
	}
	m.execute(c, &ins)
}

// execute commits one fetched instruction: predication, the op dispatch,
// pc advance and retirement. It returns true exactly when execution fell
// through sequentially — the pc advanced by 4 with no exception, branch or
// pc-writing side effect — which is the condition under which the block
// fast path may keep dispatching from a cached straight-line run.
func (m *Machine) execute(c *Core, ins *isa.Instr) bool {
	t := &m.Cfg.Timing

	// v7 predication: any non-branch instruction whose condition fails is
	// skipped (it still retires).
	if m.hasPred && ins.Cond != isa.CondAL {
		switch ins.Op {
		case isa.OpB, isa.OpBL, isa.OpBR, isa.OpBLR:
			// branches account for their condition below
		default:
			if !ins.Cond.Pass(c.Flags) {
				c.Stats.CondSkipped++
				c.Cycles += uint64(t.IntALU)
				c.PC += 4
				m.retire(c)
				return true
			}
		}
	}

	adv := true // advance pc by 4 after execution
	switch ins.Op {
	case isa.OpNOP:
		c.Cycles += uint64(t.IntALU)

	case isa.OpADD:
		adv = !m.wreg(c, ins.Rd, m.rreg(c, ins.Rn)+m.rreg(c, ins.Rm))
		c.Cycles += uint64(t.IntALU)
	case isa.OpSUB:
		adv = !m.wreg(c, ins.Rd, m.rreg(c, ins.Rn)-m.rreg(c, ins.Rm))
		c.Cycles += uint64(t.IntALU)
	case isa.OpMUL:
		adv = !m.wreg(c, ins.Rd, m.rreg(c, ins.Rn)*m.rreg(c, ins.Rm))
		c.Cycles += uint64(t.Mul)
	case isa.OpUDIV:
		adv = !m.wreg(c, ins.Rd, m.udiv(m.rreg(c, ins.Rn), m.rreg(c, ins.Rm)))
		c.Cycles += uint64(t.Div)
	case isa.OpSDIV:
		adv = !m.wreg(c, ins.Rd, m.sdiv(m.rreg(c, ins.Rn), m.rreg(c, ins.Rm)))
		c.Cycles += uint64(t.Div)
	case isa.OpAND:
		adv = !m.wreg(c, ins.Rd, m.rreg(c, ins.Rn)&m.rreg(c, ins.Rm))
		c.Cycles += uint64(t.IntALU)
	case isa.OpORR:
		adv = !m.wreg(c, ins.Rd, m.rreg(c, ins.Rn)|m.rreg(c, ins.Rm))
		c.Cycles += uint64(t.IntALU)
	case isa.OpEOR:
		adv = !m.wreg(c, ins.Rd, m.rreg(c, ins.Rn)^m.rreg(c, ins.Rm))
		c.Cycles += uint64(t.IntALU)
	case isa.OpLSL:
		adv = !m.wreg(c, ins.Rd, m.shiftL(m.rreg(c, ins.Rn), m.rreg(c, ins.Rm)&63))
		c.Cycles += uint64(t.IntALU)
	case isa.OpLSR:
		adv = !m.wreg(c, ins.Rd, m.shiftR(m.rreg(c, ins.Rn), m.rreg(c, ins.Rm)&63))
		c.Cycles += uint64(t.IntALU)
	case isa.OpASR:
		adv = !m.wreg(c, ins.Rd, m.shiftA(m.rreg(c, ins.Rn), m.rreg(c, ins.Rm)&63))
		c.Cycles += uint64(t.IntALU)
	case isa.OpMVN:
		adv = !m.wreg(c, ins.Rd, ^m.rreg(c, ins.Rm))
		c.Cycles += uint64(t.IntALU)
	case isa.OpNEG:
		adv = !m.wreg(c, ins.Rd, -m.rreg(c, ins.Rm))
		c.Cycles += uint64(t.IntALU)
	case isa.OpCLZ:
		var n int
		if m.wbits == 32 {
			n = bits.LeadingZeros32(uint32(m.rreg(c, ins.Rm)))
		} else {
			n = bits.LeadingZeros64(m.rreg(c, ins.Rm))
		}
		adv = !m.wreg(c, ins.Rd, uint64(n))
		c.Cycles += uint64(t.IntALU)
	case isa.OpUMULL:
		p := uint64(uint32(m.rreg(c, ins.Rn))) * uint64(uint32(m.rreg(c, ins.Rm)))
		lo, hi := p&0xffffffff, p>>32
		br := m.wreg(c, ins.Rd, lo)
		br = m.wreg(c, ins.Ra, hi) || br
		adv = !br
		c.Cycles += uint64(t.Mul)
	case isa.OpUMULH:
		hi, _ := bits.Mul64(m.rreg(c, ins.Rn), m.rreg(c, ins.Rm))
		adv = !m.wreg(c, ins.Rd, hi)
		c.Cycles += uint64(t.Mul)

	case isa.OpADDI:
		adv = !m.wreg(c, ins.Rd, m.rreg(c, ins.Rn)+uint64(ins.Imm))
		c.Cycles += uint64(t.IntALU)
	case isa.OpSUBI:
		adv = !m.wreg(c, ins.Rd, m.rreg(c, ins.Rn)-uint64(ins.Imm))
		c.Cycles += uint64(t.IntALU)
	case isa.OpANDI:
		adv = !m.wreg(c, ins.Rd, m.rreg(c, ins.Rn)&uint64(ins.Imm))
		c.Cycles += uint64(t.IntALU)
	case isa.OpORRI:
		adv = !m.wreg(c, ins.Rd, m.rreg(c, ins.Rn)|uint64(ins.Imm))
		c.Cycles += uint64(t.IntALU)
	case isa.OpEORI:
		adv = !m.wreg(c, ins.Rd, m.rreg(c, ins.Rn)^uint64(ins.Imm))
		c.Cycles += uint64(t.IntALU)
	case isa.OpLSLI:
		adv = !m.wreg(c, ins.Rd, m.shiftL(m.rreg(c, ins.Rn), uint64(ins.Imm)&63))
		c.Cycles += uint64(t.IntALU)
	case isa.OpLSRI:
		adv = !m.wreg(c, ins.Rd, m.shiftR(m.rreg(c, ins.Rn), uint64(ins.Imm)&63))
		c.Cycles += uint64(t.IntALU)
	case isa.OpASRI:
		adv = !m.wreg(c, ins.Rd, m.shiftA(m.rreg(c, ins.Rn), uint64(ins.Imm)&63))
		c.Cycles += uint64(t.IntALU)

	case isa.OpMOVZ:
		adv = !m.wreg(c, ins.Rd, uint64(ins.Imm)<<(16*uint(ins.Ra)))
		c.Cycles += uint64(t.IntALU)
	case isa.OpMOVK:
		sh := 16 * uint(ins.Ra)
		old := m.rreg(c, ins.Rd)
		adv = !m.wreg(c, ins.Rd, old&^(0xffff<<sh)|uint64(ins.Imm)<<sh)
		c.Cycles += uint64(t.IntALU)

	case isa.OpCMP:
		c.Flags = m.cmpFlags(m.rreg(c, ins.Rn), m.rreg(c, ins.Rm))
		c.Cycles += uint64(t.IntALU)
	case isa.OpCMPI:
		c.Flags = m.cmpFlags(m.rreg(c, ins.Rn), uint64(ins.Imm))
		c.Cycles += uint64(t.IntALU)

	case isa.OpCSEL:
		v := m.rreg(c, ins.Rm)
		if ins.Cond.Pass(c.Flags) {
			v = m.rreg(c, ins.Rn)
		}
		adv = !m.wreg(c, ins.Rd, v)
		c.Cycles += uint64(t.IntALU)
	case isa.OpCSET:
		var v uint64
		if ins.Cond.Pass(c.Flags) {
			v = 1
		}
		adv = !m.wreg(c, ins.Rd, v)
		c.Cycles += uint64(t.IntALU)

	case isa.OpB:
		taken := ins.Cond.Pass(c.Flags)
		// Unconditional branches are predicted taken; conditional ones
		// follow the static backward-taken/forward-not heuristic.
		m.branchStat(c, taken, ins.Cond == isa.CondAL || ins.Imm < 0)
		if taken {
			c.PC = uint64(int64(c.PC)+ins.Imm*4) & m.wmask
			adv = false
		}
	case isa.OpBL:
		taken := ins.Cond.Pass(c.Flags)
		m.branchStat(c, taken, true)
		if taken {
			target := uint64(int64(c.PC)+ins.Imm*4) & m.wmask
			m.wreg(c, uint8(m.Feat.LRIndex), c.PC+4)
			c.PC = target
			c.Stats.Calls++
			if m.CallCounts != nil {
				m.CallCounts[uint32(target)]++
			}
			adv = false
		}
	case isa.OpBR:
		if ins.Cond.Pass(c.Flags) {
			c.PC = m.rreg(c, ins.Rn) &^ 3
			adv = false
			m.branchStat(c, true, false) // indirect: modelled as mispredicted
		} else {
			m.branchStat(c, false, false)
		}
	case isa.OpBLR:
		if ins.Cond.Pass(c.Flags) {
			target := m.rreg(c, ins.Rn) &^ 3
			m.wreg(c, uint8(m.Feat.LRIndex), c.PC+4)
			c.PC = target
			c.Stats.Calls++
			if m.CallCounts != nil {
				m.CallCounts[uint32(target)]++
			}
			adv = false
			m.branchStat(c, true, false)
		} else {
			m.branchStat(c, false, false)
		}
	case isa.OpCBZ:
		taken := m.rreg(c, ins.Rn) == 0
		m.branchStat(c, taken, ins.Imm < 0)
		if taken {
			c.PC = uint64(int64(c.PC)+ins.Imm*4) & m.wmask
			adv = false
		}
	case isa.OpCBNZ:
		taken := m.rreg(c, ins.Rn) != 0
		m.branchStat(c, taken, ins.Imm < 0)
		if taken {
			c.PC = uint64(int64(c.PC)+ins.Imm*4) & m.wmask
			adv = false
		}

	case isa.OpLDR, isa.OpLDRW, isa.OpLDRB:
		size := m.wbytes
		if ins.Op == isa.OpLDRW {
			size = 4
		} else if ins.Op == isa.OpLDRB {
			size = 1
		}
		addr := (m.rreg(c, ins.Rn) + uint64(ins.Imm)) & m.wmask
		c.Cycles += uint64(t.LdSt)
		v, lok := m.load(c, addr, size)
		if !lok {
			return false
		}
		adv = !m.wreg(c, ins.Rd, v)
	case isa.OpSTR, isa.OpSTRW, isa.OpSTRB:
		size := m.wbytes
		if ins.Op == isa.OpSTRW {
			size = 4
		} else if ins.Op == isa.OpSTRB {
			size = 1
		}
		addr := (m.rreg(c, ins.Rn) + uint64(ins.Imm)) & m.wmask
		c.Cycles += uint64(t.LdSt)
		if !m.store(c, addr, size, m.rreg(c, ins.Rd)) {
			return false
		}

	case isa.OpFLDR:
		addr := (m.rreg(c, ins.Rn) + uint64(ins.Imm)) & m.wmask
		c.Cycles += uint64(t.LdSt)
		v, lok := m.load(c, addr, 8)
		if !lok {
			return false
		}
		c.F[ins.Rd&31] = v
		c.Stats.FPOps++
	case isa.OpFSTR:
		addr := (m.rreg(c, ins.Rn) + uint64(ins.Imm)) & m.wmask
		c.Cycles += uint64(t.LdSt)
		if !m.store(c, addr, 8, c.F[ins.Rd&31]) {
			return false
		}
		c.Stats.FPOps++

	case isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFDIV:
		a := math.Float64frombits(c.F[ins.Rn&31])
		b := math.Float64frombits(c.F[ins.Rm&31])
		var r float64
		switch ins.Op {
		case isa.OpFADD:
			r = a + b
		case isa.OpFSUB:
			r = a - b
		case isa.OpFMUL:
			r = a * b
		default:
			r = a / b
		}
		c.F[ins.Rd&31] = math.Float64bits(r)
		c.Stats.FPOps++
		if ins.Op == isa.OpFDIV {
			c.Cycles += uint64(t.FPDiv)
		} else {
			c.Cycles += uint64(t.FPALU)
		}
	case isa.OpFSQRT:
		c.F[ins.Rd&31] = math.Float64bits(math.Sqrt(math.Float64frombits(c.F[ins.Rm&31])))
		c.Stats.FPOps++
		c.Cycles += uint64(t.FPDiv)
	case isa.OpFNEG:
		c.F[ins.Rd&31] = c.F[ins.Rm&31] ^ (1 << 63)
		c.Stats.FPOps++
		c.Cycles += uint64(t.FPALU)
	case isa.OpFMOVD:
		c.F[ins.Rd&31] = c.F[ins.Rm&31]
		c.Stats.FPOps++
		c.Cycles += uint64(t.FPALU)
	case isa.OpFABS:
		c.F[ins.Rd&31] = c.F[ins.Rm&31] &^ (1 << 63)
		c.Stats.FPOps++
		c.Cycles += uint64(t.FPALU)
	case isa.OpFCMP:
		a := math.Float64frombits(c.F[ins.Rn&31])
		b := math.Float64frombits(c.F[ins.Rm&31])
		switch {
		case math.IsNaN(a) || math.IsNaN(b):
			c.Flags = isa.Flags{C: true, V: true}
		case a == b:
			c.Flags = isa.Flags{Z: true, C: true}
		case a < b:
			c.Flags = isa.Flags{N: true}
		default:
			c.Flags = isa.Flags{C: true}
		}
		c.Stats.FPOps++
		c.Cycles += uint64(t.FPALU)
	case isa.OpFMOVFI:
		adv = !m.wreg(c, ins.Rd, c.F[ins.Rn&31])
		c.Stats.FPOps++
		c.Cycles += uint64(t.FPALU)
	case isa.OpFMOVIF:
		c.F[ins.Rd&31] = m.rreg(c, ins.Rn)
		c.Stats.FPOps++
		c.Cycles += uint64(t.FPALU)
	case isa.OpSCVTF:
		c.F[ins.Rd&31] = math.Float64bits(float64(int64(m.rreg(c, ins.Rn))))
		c.Stats.FPOps++
		c.Cycles += uint64(t.FPALU)
	case isa.OpFCVTZS:
		f := math.Float64frombits(c.F[ins.Rn&31])
		var v int64
		switch {
		case math.IsNaN(f):
			v = 0
		case f >= math.MaxInt64:
			v = math.MaxInt64
		case f <= math.MinInt64:
			v = math.MinInt64
		default:
			v = int64(f)
		}
		adv = !m.wreg(c, ins.Rd, uint64(v))
		c.Stats.FPOps++
		c.Cycles += uint64(t.FPALU)

	case isa.OpCAS:
		addr := m.rreg(c, ins.Rn) & m.wmask
		c.Cycles += uint64(t.LdSt)
		old, lok := m.load(c, addr, m.wbytes)
		if !lok {
			return false
		}
		if old == m.rreg(c, ins.Ra) {
			if !m.store(c, addr, m.wbytes, m.rreg(c, ins.Rm)) {
				return false
			}
		}
		adv = !m.wreg(c, ins.Rd, old)
		c.Cycles += uint64(t.IntALU)

	case isa.OpSVC:
		c.Stats.Svcs++
		m.exception(c, isa.ExcSVC, c.PC+4, 0)
		m.retire(c)
		return false

	case isa.OpERET:
		if !c.Kernel {
			m.exception(c, isa.ExcUndef, c.PC, 0)
			return false
		}
		unpackPstate(c, c.Sys[isa.SysSPSR])
		c.PC = c.Sys[isa.SysELR] & m.wmask &^ 3
		c.Cycles += uint64(t.ExcEntry)
		c.lastLine = 0
		m.retire(c)
		return false

	case isa.OpMRS:
		var v uint64
		switch ins.Imm {
		case isa.SysCYCLES:
			v = c.Cycles
		case isa.SysINSTRET:
			v = c.Stats.Retired
		default:
			if ins.Imm >= 0 && ins.Imm < isa.NumSysregs {
				v = c.Sys[ins.Imm]
			}
		}
		adv = !m.wreg(c, ins.Rd, v)
		c.Cycles += uint64(t.IntALU)
	case isa.OpMSR:
		if !c.Kernel {
			m.exception(c, isa.ExcUndef, c.PC, 0)
			return false
		}
		v := m.rreg(c, ins.Rn)
		switch ins.Imm {
		case isa.SysCOREID, isa.SysNCORES, isa.SysCYCLES, isa.SysINSTRET:
			// read-only: ignore
		case isa.SysTIMER:
			// Re-arming (or disarming) also acknowledges a pending
			// interrupt, so the kernel idle loop can WFI repeatedly.
			c.pending = false
			if v == 0 {
				c.timerAt = 0
			} else {
				c.timerAt = c.Cycles + v
			}
		default:
			if ins.Imm >= 0 && ins.Imm < isa.NumSysregs {
				c.Sys[ins.Imm] = v
			}
		}
		c.Cycles += uint64(t.IntALU)

	case isa.OpSAVECTX:
		if !c.Kernel {
			m.exception(c, isa.ExcUndef, c.PC, 0)
			return false
		}
		if !m.saveCtx(c) {
			return false
		}
		c.Cycles += uint64(m.Feat.NumGPR)
	case isa.OpRESTCTX:
		if !c.Kernel {
			m.exception(c, isa.ExcUndef, c.PC, 0)
			return false
		}
		if !m.restCtx(c) {
			return false
		}
		c.Stats.CtxRestores++
		c.Cycles += uint64(m.Feat.NumGPR)

	case isa.OpWFI:
		if !c.Kernel {
			m.exception(c, isa.ExcUndef, c.PC, 0)
			return false
		}
		if !c.pending {
			c.wfi = true
			c.Stats.WFISleeps++
		}
		c.Cycles += uint64(t.IntALU)
	case isa.OpHALT:
		if !c.Kernel {
			m.exception(c, isa.ExcUndef, c.PC, 0)
			return false
		}
		m.Halted = true
		c.Cycles += uint64(t.IntALU)

	default: // OpINVALID and anything unhandled
		m.exception(c, isa.ExcUndef, c.PC, 0)
		return false
	}

	if adv {
		c.PC += 4
	}
	m.retire(c)
	return adv
}

// ctxAddr validates and returns the context block pointer.
func (m *Machine) ctxAddr(c *Core) (uint32, bool) {
	addr := c.Sys[isa.SysCTXPTR]
	size := uint32(isa.CtxBytes(m.Feat))
	if addr+uint64(size) > 1<<32 {
		m.exception(c, isa.ExcDataAbort, c.PC, addr)
		return 0, false
	}
	a := uint32(addr)
	if f := m.Mem.Check(a, size, mem.PermW, false); f != nil {
		m.exception(c, isa.ExcDataAbort, c.PC, addr)
		return 0, false
	}
	m.touch(a, size)
	return a, true
}

// saveCtx implements SAVECTX: store user GPRs, pc and pstate to [CTXPTR].
func (m *Machine) saveCtx(c *Core) bool {
	a, ok := m.ctxAddr(c)
	if !ok {
		return false
	}
	if m.live != nil {
		m.live.saveCtx(m, c, a)
	}
	wb := m.wbytes
	put := func(slot int, v uint64) {
		addr := a + uint32(slot)*wb
		if wb == 4 {
			m.Mem.WriteU32(addr, uint32(v))
		} else {
			m.Mem.WriteU64(addr, v)
		}
		m.invalidateDecoded(addr, wb)
	}
	pcSlot := isa.CtxPCSlot(m.Feat)
	for i := 0; i < m.Feat.NumGPR; i++ {
		switch {
		case i == pcSlot && m.Feat.PCTarget:
			put(i, c.Sys[isa.SysELR])
		case i == m.spIndex:
			put(i, c.Sys[isa.SysUSP])
		default:
			put(i, c.Regs[i])
		}
	}
	if !m.Feat.PCTarget {
		put(pcSlot, c.Sys[isa.SysELR])
	}
	put(isa.CtxSPSRSlot(m.Feat), c.Sys[isa.SysSPSR])
	if m.Feat.HasHWFloat {
		base := isa.CtxFPSlot(m.Feat)
		for i := 0; i < m.Feat.NumFP; i++ {
			put(base+i, c.F[i])
		}
	}
	c.Stats.Stores += uint64(isa.CtxWords(m.Feat))
	return true
}

// restCtx implements RESTCTX: load user GPRs, pc and pstate from [CTXPTR].
func (m *Machine) restCtx(c *Core) bool {
	a, ok := m.ctxAddr(c)
	if !ok {
		return false
	}
	if m.live != nil {
		m.live.restCtx(m, c, a)
	}
	wb := m.wbytes
	get := func(slot int) uint64 {
		addr := a + uint32(slot)*wb
		if wb == 4 {
			return uint64(m.Mem.ReadU32(addr))
		}
		return m.Mem.ReadU64(addr)
	}
	pcSlot := isa.CtxPCSlot(m.Feat)
	for i := 0; i < m.Feat.NumGPR; i++ {
		if i == pcSlot && m.Feat.PCTarget {
			continue // pc handled via ELR
		}
		c.Regs[i] = get(i) & m.wmask
	}
	c.Sys[isa.SysELR] = get(pcSlot) & m.wmask
	c.Sys[isa.SysSPSR] = get(isa.CtxSPSRSlot(m.Feat))
	if m.Feat.HasHWFloat {
		base := isa.CtxFPSlot(m.Feat)
		for i := 0; i < m.Feat.NumFP; i++ {
			c.F[i] = get(base + i)
		}
	}
	c.Stats.Loads += uint64(isa.CtxWords(m.Feat))
	return true
}
