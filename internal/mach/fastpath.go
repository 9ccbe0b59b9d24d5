// The block-cached fast path of the execute loop. The per-word decoded
// cache (mach.go) is extended into straight-line "block runs": maximal
// sequences of decoded instructions inside one executable region that can
// be dispatched back to back without re-checking fetch permissions or
// rescanning the scheduler. A run ends at any instruction that can redirect
// control or change event state (branches, SVC/ERET, MSR — it may re-arm
// the timer — WFI/HALT, context ops), and execution inside a run still
// stops at every boundary the per-instruction interpreter observes: timer
// expiry, pending-interrupt delivery, the injection hook's commit index,
// instruction and cycle budgets, snapshot/checkpoint slice bounds, and
// invalidated words (self-modifying code or an instruction-memory fault).
//
// The scheduler side hoists pickCore's per-step event-time recomputation
// into an incrementally maintained next-event structure: every runnable
// core carries a cursor into its cached run, the next core to commit is an
// inline argmin over the cursors' cycle counters (ties to the lower core
// index — the exact pickCore order), and parked cores contribute one
// precomputed wake horizon. Anything the cursor loop cannot express — an
// interrupt delivery, a WFI wake, uncached text, a budget edge — falls
// back to the reference scheduler for exactly one event and the cursors
// re-form.
//
// The contract, pinned by the lockstep differential tests, is that the
// fast path is bit-identical to the retained reference interpreter
// (Config.SlowPath) in architectural state and in every cycle and
// statistics counter at every retirement boundary.
package mach

import (
	"math"

	"serfi/internal/isa"
	"serfi/internal/mem"
)

// ForceSlowPath is a process-wide escape hatch that makes every machine
// built after it is set use the reference interpreter, regardless of
// Config.SlowPath. The serfi CLI sets it from the -slowpath flag before
// any simulation starts; it must not be toggled while machines are running.
var ForceSlowPath bool

// blockRun is one cached straight-line run of decoded instructions.
type blockRun struct {
	start  uint32 // first word index (pc >> 2)
	nwords uint32 // words in the run (>= 1)
	userOK bool   // the containing region is user-executable
	reads  uint32 // every GPR an instruction of the run reads (readRegs)
}

// blockEnd marks the ops that terminate a block run: control transfers,
// and ops whose side effects change event or scheduling state that the
// cursor loop caches (timer re-arm, sleep, halt, context save/restore).
// Invalid words terminate too — they raise an undefined-instruction
// exception when executed.
var blockEnd = func() [isa.NumOps]bool {
	var t [isa.NumOps]bool
	for _, op := range []isa.Op{
		isa.OpB, isa.OpBL, isa.OpBR, isa.OpBLR, isa.OpCBZ, isa.OpCBNZ,
		isa.OpSVC, isa.OpERET, isa.OpMSR, isa.OpWFI, isa.OpHALT,
		isa.OpSAVECTX, isa.OpRESTCTX, isa.OpINVALID,
	} {
		t[op] = true
	}
	return t
}()

// branchRebind marks the ops after which a cursor may re-bind to the run
// at the new pc without a full refresh: plain control transfers change
// neither the privilege mode nor any event state (wfi, pending, timer), so
// only the run lookup and the mode-vs-region check need redoing. Every
// other run terminator (exceptions, ERET, MSR, WFI, ...) takes the full
// refreshCursor path.
var branchRebind = func() [isa.NumOps]bool {
	var t [isa.NumOps]bool
	for _, op := range []isa.Op{
		isa.OpB, isa.OpBL, isa.OpBR, isa.OpBLR, isa.OpCBZ, isa.OpCBNZ,
	} {
		t[op] = true
	}
	return t
}()

// resetBlocks drops every cached run (full decode-cache flush or restore).
func (m *Machine) resetBlocks() {
	m.blocks = m.blocks[:0]
	m.blockFree = m.blockFree[:0]
	for i := range m.blockOf {
		m.blockOf[i] = -1
	}
}

// dropBlock invalidates one run, returning its slot to the free list.
func (m *Machine) dropBlock(bi int32) {
	b := &m.blocks[bi]
	for i := b.start; i < b.start+b.nwords; i++ {
		m.blockOf[i] = -1
	}
	b.nwords = 0
	m.blockFree = append(m.blockFree, bi)
}

// buildBlock decodes and caches the straight-line run starting at word w,
// returning its slot or -1 when w is not fast-path executable (outside an
// executable region, or its instruction word crosses the region end). The
// whole run lies inside one region, so one permission check at build time
// plus a user/kernel mode check at cursor refresh replaces the per-fetch
// Mem.Check.
func (m *Machine) buildBlock(w uint32) int32 {
	pc := w << 2
	r := m.Mem.FindRegion(pc)
	if r == nil || r.Perm&mem.PermX == 0 {
		return -1
	}
	// Words must fit inside the region ([pc, pc+4) checked by fetch) and
	// start below the decoded-cache limit.
	maxW := r.End >> 2
	if tw := (m.textLimit + 3) >> 2; tw < maxW {
		maxW = tw
	}
	if w >= maxW {
		return -1
	}
	n, reads := uint32(0), uint32(0)
	for i := w; i < maxW && m.blockOf[i] < 0; i++ {
		if !m.decValid[i] {
			m.decoded[i] = m.ISA.Decode(m.Mem.ReadU32(i << 2))
			m.decValid[i] = true
		}
		reads |= readRegs(&m.decoded[i])
		n++
		if blockEnd[m.decoded[i].Op] {
			break
		}
	}
	var bi int32
	run := blockRun{start: w, nwords: n, userOK: r.Perm&mem.PermUser != 0, reads: reads}
	if k := len(m.blockFree); k > 0 {
		bi = m.blockFree[k-1]
		m.blockFree = m.blockFree[:k-1]
		m.blocks[bi] = run
	} else {
		bi = int32(len(m.blocks))
		m.blocks = append(m.blocks, run)
	}
	for i := w; i < w+n; i++ {
		m.blockOf[i] = bi
	}
	return bi
}

// cursor is one runnable core's position inside a cached run, plus the
// precomputed cycle bound at which it must leave the cursor loop (timer
// expiry, the cycle budget, or a parked core's wake horizon — whichever
// comes first).
type cursor struct {
	c     *Core
	idx   int32
	w     uint32 // current word index in the cached run
	pc    uint32 // current pc (always equals uint32(c.PC) when picked)
	k     uint32 // words left in the run; 0 = cursor needs a refresh
	bound uint64 // last cycle value at which this core may still commit
}

// runWords returns how many words of run b from word w on a cursor may
// execute: all of them, or on a machine keeping a liveness record those
// before the first that reads a GPR of core c the record still tracks
// (Liveness.hot). The reference interpreter executes that one and books the
// read as it happens, so the hot loop books none. The hot set only shrinks
// while a cursor is bound — marks come between Run calls, RESTCTX ends a
// run — so the words counted never read a tracked value.
func (m *Machine) runWords(c *Core, b *blockRun, w uint32) uint32 {
	if m.live != nil {
		return m.hotRead(c, b, w) - w
	}
	return b.start + b.nwords - w
}

// hotRead returns the first word of run b from w on that reads a GPR of
// core c the liveness record tracks, or the run's end: the run's union of
// reads (blockRun.reads) is the quick test, the words themselves the exact
// one.
func (m *Machine) hotRead(c *Core, b *blockRun, w uint32) uint32 {
	hot, end := m.live.hot[c.ID&7], b.start+b.nwords
	if hot&b.reads == 0 {
		return end
	}
	for ; w < end; w++ {
		if hot&readRegs(&m.decoded[w]) != 0 {
			return w
		}
	}
	return end
}

// refreshCursor re-derives a core's cursor from its architectural state:
// the core must be awake with no deliverable interrupt or due timer
// transition, and its pc must sit inside a (buildable) cached run it may
// execute in its current mode. A false return parks the whole cursor loop
// for one reference-scheduler event. The cursor's cycle bound folds every
// boundary that depends only on cycle time: the run's cycle budget, the
// core's own timer, and the group's parked-core wake horizon (ties go to
// the lower core index, so a core above the waker's index must stop one
// cycle earlier).
func (m *Machine) refreshCursor(cu *cursor, maxCycles uint64) bool {
	c := cu.c
	if c.wfi || (c.pending && c.IRQOn) {
		return false
	}
	if c.timerAt != 0 && c.Cycles >= c.timerAt {
		return false // timer transition due: the reference step applies it
	}
	if c.PC&3 != 0 || c.PC >= uint64(m.textLimit) {
		return false
	}
	w := uint32(c.PC) >> 2
	bi := m.blockOf[w]
	if bi < 0 {
		if bi = m.buildBlock(w); bi < 0 {
			return false
		}
	}
	b := &m.blocks[bi]
	if !c.Kernel && !b.userOK {
		return false
	}
	k := m.runWords(c, b, w)
	if k == 0 {
		return false // the next word reads a tracked GPR: the reference books it
	}
	cu.w = w
	cu.pc = uint32(c.PC)
	cu.k = k
	bound := maxCycles
	if c.timerAt != 0 && c.timerAt-1 < bound {
		// The timer fires at timerAt; the commit before it must be the last.
		bound = c.timerAt - 1
	}
	if h := m.groupH; h != math.MaxUint64 {
		if m.groupHIdx < cu.idx {
			// The waker wins a tie: this core must stop before cycle h.
			if h == 0 {
				return false
			}
			h--
		}
		if h < bound {
			bound = h
		}
	}
	cu.bound = bound
	return true
}

// runGroup is the hot loop: it forms cursors for every runnable core and
// dispatches from the cached runs — argmin-picking the next core inline —
// until some boundary only the reference scheduler handles. It executes
// nothing at all when any awake core is not cursor-ready, so the caller
// can always fall back to one reference event and retry.
func (m *Machine) runGroup(maxCycles uint64) {
	if m.TotalRetired >= m.maxInstr {
		return
	}
	if m.live != nil {
		m.live.trim()
	}
	// Instruction allowance: the global budget, capped by a pending
	// injection hook. The hook may rewrite arbitrary machine state
	// (including the cached runs), so the commit that fires it must be the
	// last before cursors re-form.
	gK := m.maxInstr - m.TotalRetired
	if m.Inject != nil && !m.injected && m.InjectAt > m.TotalRetired {
		if d := m.InjectAt - m.TotalRetired; d < gK {
			gK = d
		}
	}
	// The parked-core wake horizon, computed before cursors form so that
	// refreshCursor can fold it into each cursor's cycle bound.
	m.groupH = math.MaxUint64
	m.groupHIdx = math.MaxInt32
	n := 0
	for i := range m.Cores {
		c := &m.Cores[i]
		if !c.wfi {
			continue
		}
		var at uint64
		switch {
		case c.pending:
			at = c.Cycles
		case c.timerAt != 0:
			at = c.timerAt
		default:
			continue // parked for good: no event can wake it
		}
		if at < m.groupH {
			m.groupH, m.groupHIdx = at, int32(i)
		}
	}
	for i := range m.Cores {
		c := &m.Cores[i]
		if c.wfi {
			continue
		}
		cu := &m.curs[n]
		cu.c, cu.idx = c, int32(i)
		if !m.refreshCursor(cu, maxCycles) {
			return
		}
		n++
	}
	if n == 0 {
		return
	}
	curs := m.curs[:n]
	// The decode arrays are stable for the whole group run (only
	// SetTextLimit reallocates them, never mid-run), so hoist them out of
	// the per-instruction loop.
	decValid, decoded := m.decValid, m.decoded
	for {
		// Pick the next core to commit: smallest cycle counter, ties to
		// the lower index (cursors are ordered by index, and the scan
		// keeps the first minimum — exactly pickCore's order).
		cu := &curs[0]
		for j := 1; j < n; j++ {
			if curs[j].c.Cycles < cu.c.Cycles {
				cu = &curs[j]
			}
		}
		c := cu.c
		if c.Cycles > cu.bound {
			// Timer expiry, cycle budget or a parked core's wake: the
			// reference loop decides.
			return
		}
		if cu.k == 0 || !decValid[cu.w] {
			// Run boundary, control transfer landing, or an invalidated
			// word (self-modifying store, instruction-memory fault):
			// re-derive the cursor, or hand the event to the reference.
			if !m.refreshCursor(cu, maxCycles) {
				return
			}
			continue
		}
		// I-line accounting, identical to fetch.
		if line := cu.pc>>6 + 1; line != c.lastLine {
			c.Cycles += uint64(m.Hier.Fetch(c.ID, cu.pc))
			c.lastLine = line
		}
		ins := &decoded[cu.w]
		op := ins.Op
		seq := m.execute(c, ins)
		if m.Halted {
			return
		}
		if seq && !blockEnd[op] {
			cu.k--
			cu.w++
			cu.pc += 4
		} else {
			cu.k = 0 // exception or state-changing op: refresh when picked
			if branchRebind[op] && c.PC < uint64(m.textLimit) && c.PC&3 == 0 {
				// A plain branch (or its fall-through) changes no event or
				// mode state, so the cursor re-binds to the target's run
				// in place; the cycle bound stays valid.
				w := uint32(c.PC) >> 2
				if bi := m.blockOf[w]; bi >= 0 {
					if b := &m.blocks[bi]; c.Kernel || b.userOK {
						cu.w = w
						cu.pc = uint32(c.PC)
						cu.k = m.runWords(c, b, w)
					}
				}
			}
		}
		gK--
		if gK == 0 {
			return // instruction budget or injection boundary reached
		}
	}
}

// runFast is the block-cached main loop: the cursor group runs as far as
// the cached runs allow, then the reference scheduler handles exactly one
// event (interrupt delivery, WFI wake, uncached text, abort, budget edge)
// and the group re-forms.
func (m *Machine) runFast(maxCycles uint64) (reason StopReason) {
	// Fallback steps accumulate locally and flush in one atomic add at the
	// slice boundary, like the retirement counters in Run.
	fallback := 0
	defer func() {
		if fallback > 0 {
			obsFallbackSteps.Add(float64(fallback))
		}
	}()
	for !m.Halted {
		m.runGroup(maxCycles)
		if m.Halted {
			break
		}
		c := m.pickCore()
		if c == nil {
			return StopDeadlock
		}
		if c.Cycles > maxCycles {
			return StopCycleBudget
		}
		if m.TotalRetired >= m.maxInstr {
			return StopInstrBudget
		}
		fallback++
		m.step(c)
	}
	return StopHalted
}
