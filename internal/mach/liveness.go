package mach

import (
	"math/bits"
	"slices"

	"serfi/internal/isa"
	"serfi/internal/mem"
)

// Liveness is the golden run's value-lineage record over the locations the
// register fault domains can corrupt: every GPR of every core, and every
// context-block word SAVECTX writes from a GPR (a slot). Only a golden
// machine (Config.Profile) keeps one; like PageTouch it is no part of
// Snapshot, Restore or StateEquals, and every other machine carries none.
//
// Each CheckpointSnapshot marks the record: every location gets a fresh
// lineage node, the root of "this location's value at this instant". After
// the mark three things can happen to a value:
//
//   - a move copies it: SAVECTX from GPR i to slot i, RESTCTX from slot i to
//     GPR i. The destination gets a child node of the source's node;
//   - a consumption reads it: an ALU operand, an address, store data, a plain
//     load of a slot, a partial overwrite of a slot, the sp bank switch at
//     exception entry, slot traffic with ELR, USP or SPSR. The node and every
//     ancestor are marked consumed;
//   - a birth overwrites it with a new value (every other write).
//
// At halt (Finish) every node a location still holds is marked kept, with
// its ancestors. A mark's root then answers, for its location, whether any
// copy of its value was consumed after the mark and whether one still sits
// in a location at halt — every location is one classify compares: a GPR of
// the register file or a word of RAM.
//
// The cost is kept off the hot path by node 0, "born after the latest mark":
// reads, writes and moves of such a value need no bookkeeping. A per-core
// mask of the GPRs holding other nodes (hot) makes that one compare per
// register write — a write books a birth only while some core tracks the
// register (Machine.wrSlow) — and one per cached block run a cursor binds
// to (a run
// that reads a hot GPR goes through the reference interpreter, which books
// its reads; see runWords). A
// consumed location drops to node 0 too: its roots are consumed already, and
// nothing it holds can answer for a root any more. Nodes are allocated only
// at marks and moves.
type Liveness struct {
	nodes []liveNode // nodes[0] is the "born after the latest mark" sentinel
	// regs is the node GPR i of core c holds at c*32+i, valid while bit i of
	// hot[c] is set; a clear bit means node 0 (reg).
	regs []int32
	hot  [8]uint32 // a directory byte per line caps machines at 8 cores
	// slow is the owner's Machine.wrSlow: fixed (the v7 pc) plus a superset
	// of the union of hot, so that wreg books births only of GPRs some core
	// may still track. setReg adds a bit at once; bits of values consumed or
	// overwritten since leave at the next trim.
	slow  *uint32
	fixed uint32
	// slotIdx maps a slot word's address to its index in slotNode, which is
	// append-only: a mark's slots are a prefix of it. Plain loads and stores
	// pass two filters before it: [slotLo, slotEnd) bounds every slot's
	// address, and slotLine flags the 64-byte lines holding one.
	slotIdx  map[uint32]int32
	slotNode []int32
	slotLo   uint32
	slotEnd  uint32
	slotLine []bool
	ngpr     int
	wbytes   uint32
	done     bool
}

// liveNode is one lineage node: a copy of a value in one location.
type liveNode struct {
	parent   int32 // node this copy descends from, 0 for none
	consumed bool  // some copy in the subtree was consumed
	kept     bool  // some copy in the subtree is held by a location at halt
}

// slotLineShift is log2 of the granule slotLine filters by.
const slotLineShift = 6

// Liveness returns the machine's liveness record, nil unless the machine
// was built with Config.Profile.
func (m *Machine) Liveness() *Liveness { return m.live }

// newNode allocates a node descending from parent.
func (l *Liveness) newNode(parent int32) int32 {
	l.nodes = append(l.nodes, liveNode{parent: parent})
	return int32(len(l.nodes) - 1)
}

// consume marks node n and its ancestors consumed. Marking always runs to
// the root or to a consumed ancestor, so a consumed node's ancestors are all
// consumed and the walk is amortized O(1).
func (l *Liveness) consume(n int32) {
	for n != 0 && !l.nodes[n].consumed {
		l.nodes[n].consumed = true
		n = l.nodes[n].parent
	}
}

// readReg records a consumption of GPR i of core c at once.
func (l *Liveness) readReg(c int, i uint8) {
	if l.hot[c&7]&(1<<i) != 0 {
		l.consume(l.regs[c*32+int(i)])
		l.hot[c&7] &^= 1 << i
	}
}

// reg returns the node GPR i of core c holds: regs' entry while the hot bit
// is set, 0 once it is clear.
func (l *Liveness) reg(c, i int) int32 {
	if l.hot[c&7]&(1<<i) == 0 {
		return 0
	}
	return l.regs[c*32+i]
}

// setReg gives GPR i of core c node n.
func (l *Liveness) setReg(c, i int, n int32) {
	l.regs[c*32+i] = n
	if n != 0 {
		l.hot[c&7] |= 1 << i
		*l.slow |= 1 << i
	} else {
		l.hot[c&7] &^= 1 << i
	}
}

// birth records a write of a new value into GPR i of core c: clearing the
// hot bit is all it takes (see reg).
func (l *Liveness) birth(c int, i uint8) { l.hot[c&7] &^= 1 << (i & 31) }

// trim drops from the owner's wrSlow the GPRs no core tracks any more.
func (l *Liveness) trim() {
	u := l.fixed
	for _, h := range l.hot {
		u |= h
	}
	*l.slow = u
}

// regReads holds per op an enable mask for each register field — Rn, Rm,
// Ra, Rd — that execute reads as a GPR. FP data fields, the MOVZ/MOVK shift
// in Ra and pure destinations are no reads. A superset would only cost
// pruning; the context ops' traffic is booked as moves.
var regReads = func() (t [isa.NumOps][4]uint32) {
	const on = ^uint32(0)
	for _, op := range []isa.Op{isa.OpADD, isa.OpSUB, isa.OpMUL, isa.OpUDIV, isa.OpSDIV, isa.OpAND,
		isa.OpORR, isa.OpEOR, isa.OpLSL, isa.OpLSR, isa.OpASR, isa.OpUMULL, isa.OpUMULH, isa.OpCMP, isa.OpCSEL} {
		t[op] = [4]uint32{on, on, 0, 0}
	}
	for _, op := range []isa.Op{isa.OpMVN, isa.OpNEG, isa.OpCLZ} {
		t[op] = [4]uint32{0, on, 0, 0}
	}
	for _, op := range []isa.Op{isa.OpADDI, isa.OpSUBI, isa.OpANDI, isa.OpORRI, isa.OpEORI, isa.OpLSLI,
		isa.OpLSRI, isa.OpASRI, isa.OpCMPI, isa.OpBR, isa.OpBLR, isa.OpCBZ, isa.OpCBNZ, isa.OpLDR,
		isa.OpLDRW, isa.OpLDRB, isa.OpFLDR, isa.OpFSTR, isa.OpFMOVIF, isa.OpSCVTF, isa.OpMSR} {
		t[op] = [4]uint32{on, 0, 0, 0}
	}
	for _, op := range []isa.Op{isa.OpSTR, isa.OpSTRW, isa.OpSTRB} {
		t[op] = [4]uint32{on, 0, 0, on}
	}
	t[isa.OpMOVK] = [4]uint32{0, 0, 0, on}
	t[isa.OpCAS] = [4]uint32{on, on, on, 0}
	return t
}()

// readRegs is the set of GPRs an instruction reads (bit i for GPR i). The
// reference interpreter tests it against the hot set before it executes an
// instruction; the fast path tests the union over a block run once, when a
// cursor binds to the run (blockRun.reads, runWords).
func readRegs(ins *isa.Instr) uint32 {
	e := &regReads[ins.Op]
	return 1<<(ins.Rn&31)&e[0] | 1<<(ins.Rm&31)&e[1] | 1<<(ins.Ra&31)&e[2] | 1<<(ins.Rd&31)&e[3]
}

// reads records the GPR reads of an instruction about to execute: every
// operand is read before any result is written, so booking them first keeps
// a read-then-overwrite of one register a consumption.
func (l *Liveness) reads(c int, ins *isa.Instr) {
	for r := readRegs(ins) & l.hot[c&7]; r != 0; r &= r - 1 {
		l.readReg(c, uint8(bits.TrailingZeros32(r)))
	}
}

// slotAt returns the slot index of the word at addr, or -1.
func (l *Liveness) slotAt(addr uint32) int32 {
	if i, ok := l.slotIdx[addr]; ok {
		return i
	}
	return -1
}

// slotNear reports whether a data access of size bytes (at most a line) at
// addr may overlap a slot: the inline filter in front of ram.
func (l *Liveness) slotNear(addr, size uint32) bool {
	return addr < l.slotEnd && addr+size > l.slotLo &&
		(l.slotLine[addr>>slotLineShift] || l.slotLine[(addr+size-1)>>slotLineShift])
}

// ram records a plain data access of size bytes at addr: a load consumes
// every slot it overlaps, a store consumes the slots it overwrites only in
// part and gives every overlapped slot a new value.
func (l *Liveness) ram(addr, size uint32, write bool) {
	end := addr + size - 1
	for w := addr &^ (l.wbytes - 1); w <= end; w += l.wbytes {
		s := l.slotAt(w)
		if s < 0 {
			continue
		}
		if !write || w < addr || w+l.wbytes-1 > end {
			l.consume(l.slotNode[s])
		}
		l.slotNode[s] = 0
	}
}

// track makes the word at addr a slot (idempotent) and returns its index.
func (l *Liveness) track(addr uint32) int32 {
	if s := l.slotAt(addr); s >= 0 {
		return s
	}
	s := int32(len(l.slotNode))
	l.slotIdx[addr] = s
	l.slotNode = append(l.slotNode, 0)
	l.slotLo, l.slotEnd = min(l.slotLo, addr), max(l.slotEnd, addr+l.wbytes)
	l.slotLine[addr>>slotLineShift] = true
	l.slotLine[(addr+l.wbytes-1)>>slotLineShift] = true
	return s
}

// move copies the value holding node n into a new location: the copy's node.
func (l *Liveness) move(n int32) int32 {
	if n == 0 {
		return 0
	}
	return l.newNode(n)
}

// dataWord reports whether the context-block word at w can be a slot: it is
// aligned to the machine word, as the slot table's words are, and lies
// outside every executable region, where a fetch would read it unrecorded.
func (l *Liveness) dataWord(m *Machine, w uint32) bool {
	if w%l.wbytes != 0 {
		return false
	}
	r := m.Mem.FindRegion(w)
	return r != nil && r.Perm&mem.PermX == 0 && w+l.wbytes <= r.End
}

// saveCtx records SAVECTX of core c into the context block at a: GPR i moves
// to slot i, every other word written (USP, ELR, SPSR, FP registers) is a
// birth. A GPR whose word cannot be a slot is consumed instead.
func (l *Liveness) saveCtx(m *Machine, c *Core, a uint32) {
	f := m.Feat
	if a%l.wbytes != 0 {
		// No word of the block is a slot, but it may overwrite slots in part.
		l.ram(a, uint32(isa.CtxBytes(f)), true)
	}
	pcSlot := isa.CtxPCSlot(f)
	for slot := 0; slot < isa.CtxWords(f); slot++ {
		w := a + uint32(slot)*l.wbytes
		fromGPR := slot < f.NumGPR && slot != m.spIndex && !(f.PCTarget && slot == pcSlot)
		switch {
		case fromGPR && l.dataWord(m, w):
			l.slotNode[l.track(w)] = l.move(l.reg(c.ID, slot))
			continue
		case fromGPR:
			l.readReg(c.ID, uint8(slot))
		}
		if s := l.slotAt(w); s >= 0 {
			l.slotNode[s] = 0
		}
	}
}

// restCtx records RESTCTX of core c from the context block at a: slot i
// moves to GPR i (a birth when the word is no slot), every other word read
// (into ELR, SPSR, FP registers) is consumed.
func (l *Liveness) restCtx(m *Machine, c *Core, a uint32) {
	f := m.Feat
	if a%l.wbytes != 0 {
		l.ram(a, uint32(isa.CtxBytes(f)), false)
	}
	pcSlot := isa.CtxPCSlot(f)
	for slot := 0; slot < isa.CtxWords(f); slot++ {
		s := l.slotAt(a + uint32(slot)*l.wbytes)
		var n int32
		if s >= 0 {
			n = l.slotNode[s]
		}
		if slot < f.NumGPR && !(f.PCTarget && slot == pcSlot) {
			l.setReg(c.ID, slot, l.move(n))
		} else if n != 0 {
			l.consume(n)
			l.slotNode[s] = 0
		}
	}
}

// mark gives every location a fresh root and returns the mark holding them.
func (l *Liveness) mark(cores int) *LiveMark {
	lm := &LiveMark{l: l, base: int32(len(l.nodes)), cores: cores, slots: len(l.slotNode)}
	for c := 0; c < cores; c++ {
		for i := 0; i < l.ngpr; i++ {
			l.setReg(c, i, l.newNode(l.reg(c, i)))
		}
	}
	for s := range l.slotNode {
		l.slotNode[s] = l.newNode(l.slotNode[s])
	}
	return lm
}

// Finish closes the record at the golden run's halt: every value a location
// still holds is kept. Marks answer only once the record is finished.
func (l *Liveness) Finish() {
	keep := func(n int32) {
		for n != 0 && !l.nodes[n].kept {
			l.nodes[n].kept = true
			n = l.nodes[n].parent
		}
	}
	for c := 0; c < len(l.regs)/32; c++ {
		for i := 0; i < l.ngpr; i++ {
			keep(l.reg(c, i))
		}
	}
	for _, n := range l.slotNode {
		keep(n)
	}
	l.done = true
}

// Equal reports whether two records hold the same lineage: the lockstep
// tests' check that the fast and reference interpreters record alike.
func (l *Liveness) Equal(o *Liveness) bool {
	if !slices.Equal(l.nodes, o.nodes) || len(l.slotNode) != len(o.slotNode) || l.done != o.done {
		return false
	}
	for c := 0; c < len(l.regs)/32; c++ {
		for i := 0; i < l.ngpr; i++ {
			if l.reg(c, i) != o.reg(c, i) {
				return false
			}
		}
	}
	for addr, i := range l.slotIdx {
		if j, ok := o.slotIdx[addr]; !ok || j != i || l.slotNode[i] != o.slotNode[i] {
			return false
		}
	}
	return true
}

// LiveMark is the liveness record of one checkpoint candidate: the roots a
// CheckpointSnapshot gave every location. It rides on the snapshot (a
// dropped candidate drops its mark) but is no part of its state: Restore
// ignores it and StateEquals does not compare it.
type LiveMark struct {
	l     *Liveness
	base  int32 // root of GPR i of core c is base + c*ngpr + i
	cores int
	slots int // the record's first slots slots existed at the mark
}

// Fate is what became of one location's value after a mark.
type Fate uint8

// Fates. Consumed covers untracked locations too: either way a difference
// there may steer the run.
const (
	Consumed Fate = iota // a copy was read after the mark, or the location is untracked
	Dropped              // only moved after the mark, and no copy is left at halt
	Kept                 // only moved after the mark, and a copy is left at halt
)

func (lm *LiveMark) fate(root int32) Fate {
	switch n := lm.l.nodes[root]; {
	case n.consumed:
		return Consumed
	case n.kept:
		return Kept
	}
	return Dropped
}

// Reg returns the fate of GPR i of core c's value at the mark.
func (lm *LiveMark) Reg(c, i int) Fate {
	if !lm.l.done || i >= lm.l.ngpr || c >= lm.cores {
		return Consumed
	}
	return lm.fate(lm.base + int32(c*lm.l.ngpr+i))
}

// Slot returns the fate of the slot word at addr's value at the mark.
func (lm *LiveMark) Slot(addr uint32) Fate {
	s := lm.l.slotAt(addr)
	if !lm.l.done || s < 0 || int(s) >= lm.slots {
		return Consumed
	}
	return lm.fate(lm.base + int32(lm.cores*lm.l.ngpr) + s)
}
