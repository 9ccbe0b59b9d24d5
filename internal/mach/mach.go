// Package mach implements the full-system multicore machine simulator that
// stands in for gem5 in this reproduction: deterministic interleaved
// execution of 1-4 cores, a two-level cache timing model, exceptions and
// per-core timer interrupts, memory-mapped devices (console, power control,
// application-lifecycle beacons) and commit-point hooks used by the fault
// injector.
//
// Determinism is the central design property: given the same image and
// configuration, every run interleaves identically, so a faulty run can be
// compared instruction-for-instruction against its golden reference.
package mach

import (
	"bytes"
	"math"
	"slices"

	"serfi/internal/cache"
	"serfi/internal/isa"
	"serfi/internal/mem"
)

// Physical memory map shared by both ISAs.
const (
	// VectorBase is where exception handling begins (kernel text).
	VectorBase = 0x0080
	// MMIOBase opens the device window; addresses at or above it are
	// devices, not RAM, and are accessible from kernel mode only.
	MMIOBase = 0xF0000000

	MMIOConsole  = MMIOBase + 0x00 // write: emit low byte to console
	MMIOPoweroff = MMIOBase + 0x10 // write: halt machine, value = machine exit code
	MMIOAppStart = MMIOBase + 0x20 // write: application lifespan begins
	MMIOAppExit  = MMIOBase + 0x28 // write: app ended; low byte exit code, next byte signal
)

// TimingModel carries the base instruction latencies (in cycles) of a
// processor model; cache latencies live in cache.HierConfig.
type TimingModel struct {
	Name       string
	IntALU     uint32
	Mul        uint32
	Div        uint32
	FPALU      uint32
	FPDiv      uint32
	LdSt       uint32 // address-generation cost added before cache latency
	Branch     uint32
	Mispredict uint32
	ExcEntry   uint32 // pipeline flush on exception/eret
	MMIO       uint32
	// TickCycles is the period of the per-core scheduler timer programmed
	// by the guest kernel (exposed to it via a boot global).
	TickCycles uint64
}

// Config assembles a machine.
type Config struct {
	ISA      isa.ISA
	Cores    int
	RAMBytes uint32
	Timing   TimingModel
	Cache    cache.HierConfig
	// Profile makes a golden machine: New starts every record only a golden
	// run keeps — call counts, PC samples, PageTouch, the liveness record
	// and the cache-set stamps. No snapshot carries any of them. A golden
	// machine has at most 8 cores.
	Profile bool
	// SamplePeriod is the PC-sampling period in committed instructions.
	SamplePeriod uint64
	// SlowPath selects the retained reference interpreter (per-instruction
	// fetch/decode/dispatch with a full scheduler rescan each step) instead
	// of the block-cached fast path. Both paths are bit-identical in
	// architectural state and cycle/stat counters at every retirement
	// boundary; the slow path exists as a differential-testing reference
	// and as the `-slowpath` CLI escape hatch.
	SlowPath bool
}

// StopReason reports why Run returned.
type StopReason int

// Stop reasons.
const (
	StopHalted      StopReason = iota // guest powered off
	StopCycleBudget                   // budget exhausted (hang candidate)
	StopDeadlock                      // every core asleep with no timer armed
	StopInstrBudget                   // retired-instruction budget exhausted
)

func (s StopReason) String() string {
	switch s {
	case StopHalted:
		return "halted"
	case StopCycleBudget:
		return "cycle-budget"
	case StopDeadlock:
		return "deadlock"
	case StopInstrBudget:
		return "instr-budget"
	}
	return "unknown"
}

// CoreStats counts per-core events.
type CoreStats struct {
	Retired       uint64
	KernelRetired uint64
	Cycles        uint64
	IdleCycles    uint64
	Branches      uint64
	BranchTaken   uint64
	Mispredicts   uint64
	CondSkipped   uint64
	Loads         uint64
	Stores        uint64
	FPOps         uint64
	Calls         uint64
	Svcs          uint64
	Exceptions    uint64
	CtxRestores   uint64
	// WFISleeps counts low-power entries (the paper's future-work
	// "power state transitions" statistic).
	WFISleeps uint64
}

// Core is one simulated CPU core.
type Core struct {
	ID    int
	Regs  [32]uint64
	F     [32]uint64 // FP register bits (v8 only)
	PC    uint64
	Flags isa.Flags
	// Kernel selects privileged mode; IRQOn unmasks the timer interrupt.
	Kernel bool
	IRQOn  bool
	Sys    [isa.NumSysregs]uint64

	Cycles  uint64
	timerAt uint64 // absolute cycle of next timer event; 0 = disarmed
	pending bool
	wfi     bool

	lastLine uint32 // last fetched I-line address +1 (0 = none)

	Stats CoreStats
}

// Machine is a complete simulated system.
type Machine struct {
	Cfg  Config
	ISA  isa.ISA
	Feat isa.Features
	Mem  *mem.Memory
	Hier *cache.Hierarchy

	Cores []Core

	// Decoded-text cache: one slot per instruction word below textLimit.
	decoded   []isa.Instr
	decValid  []bool
	textLimit uint32

	// Block cache (fast path, fastpath.go): straight-line runs over the
	// decoded text. blockOf maps a word index to its covering run (-1 =
	// none); freed runs are recycled through blockFree. curs is the
	// cursor-loop scratch space, one slot per core.
	blocks    []blockRun
	blockOf   []int32
	blockFree []int32
	curs      []cursor
	groupH    uint64 // parked-core wake horizon of the current cursor group
	groupHIdx int32  // core index of the earliest waker

	Console bytes.Buffer

	Halted   bool
	ExitCode uint64

	TotalRetired uint64

	// Application lifecycle beacons (written by the guest kernel).
	AppStartRetired uint64
	AppEndRetired   uint64
	AppExited       bool
	AppExitCode     int
	AppSignal       int

	// Fault-injection hook: when TotalRetired reaches InjectAt the
	// machine calls Inject once.
	InjectAt uint64
	Inject   func(m *Machine)
	injected bool

	// Profiling (enabled by Cfg.Profile).
	CallCounts  map[uint32]uint64
	Samples     map[uint32]uint64
	untilSample uint64

	// PageTouch, when non-nil, records per mem.PageBytes page the 1-based
	// number of the last instruction whose data access (load, store, SAVECTX,
	// RESTCTX) touched it; fetches are not recorded. Only a golden machine
	// (Cfg.Profile) keeps one, and like every golden record it is no part of
	// Snapshot, Restore or StateEquals.
	PageTouch []uint64
	// live, when non-nil, is the value-lineage record of the GPRs and context
	// slots (liveness.go); like PageTouch only a golden machine keeps one.
	live *Liveness

	wmask    uint64 // word mask (0xffffffff on v7)
	wbits    uint32
	wbytes   uint32
	spIndex  int
	pcIsR15  bool
	hasPred  bool
	slow     bool // reference interpreter selected (Config.SlowPath / ForceSlowPath)
	stopWhy  StopReason
	maxInstr uint64
	// wrSlow flags the GPRs whose write takes more than a store (wreg): r15
	// on v7, a branch; on a machine keeping a liveness record, every GPR
	// some core may still track, a birth (Liveness.slow). Machines without a
	// record pay nothing more than the pc test.
	wrSlow uint32
}

// New builds a machine with zeroed RAM and no mapped region. Before Run, the
// memory map must be installed via Map and code via LoadBytes and
// SetTextLimit/SetEntry, or a linked image installed at once
// (cc.Image.InstallTo), which shares the image's pages instead of copying
// them.
func New(cfg Config) *Machine {
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.RAMBytes == 0 {
		cfg.RAMBytes = 16 << 20
	}
	f := cfg.ISA.Feat()
	m := &Machine{
		Cfg:      cfg,
		ISA:      cfg.ISA,
		Feat:     f,
		Mem:      mem.New(cfg.RAMBytes),
		Hier:     cache.NewHierarchy(cfg.Cache, cfg.Cores, cfg.RAMBytes),
		Cores:    make([]Core, cfg.Cores),
		wmask:    math.MaxUint64,
		wbits:    uint32(f.WordBytes * 8),
		wbytes:   uint32(f.WordBytes),
		spIndex:  f.SPIndex,
		pcIsR15:  f.PCTarget,
		hasPred:  f.HasPred,
		InjectAt: math.MaxUint64,
		maxInstr: math.MaxUint64,
		slow:     cfg.SlowPath || ForceSlowPath,
	}
	if f.WordBytes == 4 {
		m.wmask = 0xffffffff
	}
	if f.PCTarget {
		m.wrSlow = 1 << 15
	}
	for i := range m.Cores {
		m.Cores[i].ID = i
	}
	m.curs = make([]cursor, cfg.Cores)
	if cfg.Profile {
		if len(m.Cores) > 8 {
			panic("mach: a liveness record covers at most 8 cores")
		}
		m.CallCounts = make(map[uint32]uint64, 256)
		m.Samples = make(map[uint32]uint64, 4096)
		m.untilSample = cfg.SamplePeriod
		m.PageTouch = make([]uint64, (uint64(m.Mem.Size())+mem.PageBytes-1)/mem.PageBytes)
		m.live = &Liveness{
			nodes:    make([]liveNode, 1, 1024),
			regs:     make([]int32, len(m.Cores)*32),
			slotIdx:  make(map[uint32]int32),
			slotLo:   math.MaxUint32,
			slotLine: make([]bool, uint64(m.Mem.Size())>>slotLineShift+1),
			slow:     &m.wrSlow,
			fixed:    m.wrSlow,
			ngpr:     f.NumGPR,
			wbytes:   m.wbytes,
		}
		m.Hier.StampSets(&m.TotalRetired)
	}
	return m
}

// Map installs a memory region.
func (m *Machine) Map(r mem.Region) { m.Mem.Map(r) }

// LoadBytes writes raw bytes into RAM (loader path, no permission checks).
func (m *Machine) LoadBytes(addr uint32, b []byte) { m.Mem.WriteBytes(addr, b) }

// SetTextLimit sizes the decoded-instruction cache to cover [0, limit).
func (m *Machine) SetTextLimit(limit uint32) {
	m.textLimit = limit
	m.decoded = make([]isa.Instr, limit/4+1)
	m.decValid = make([]bool, limit/4+1)
	m.blockOf = make([]int32, limit/4+1)
	m.blocks = m.blocks[:0]
	m.blockFree = m.blockFree[:0]
	for i := range m.blockOf {
		m.blockOf[i] = -1
	}
}

// SetEntry points every core at the boot entry in kernel mode with
// interrupts masked. The guest boot code differentiates cores via COREID.
func (m *Machine) SetEntry(pc uint32) {
	for i := range m.Cores {
		c := &m.Cores[i]
		c.PC = uint64(pc)
		c.Kernel = true
		c.IRQOn = false
		c.Sys[isa.SysCOREID] = uint64(i)
		c.Sys[isa.SysNCORES] = uint64(len(m.Cores))
	}
}

// SetInstrBudget bounds Run by total retired instructions (0 = unlimited).
func (m *Machine) SetInstrBudget(n uint64) {
	if n == 0 {
		m.maxInstr = math.MaxUint64
	} else {
		m.maxInstr = n
	}
}

// MaxCycles returns the largest per-core cycle counter (machine time).
func (m *Machine) MaxCycles() uint64 {
	var max uint64
	for i := range m.Cores {
		if m.Cores[i].Cycles > max {
			max = m.Cores[i].Cycles
		}
	}
	return max
}

// pickCore returns the runnable core with the smallest next-event time, or
// nil if every core is asleep with no timer armed (deadlock).
func (m *Machine) pickCore() *Core {
	var best *Core
	bestAt := uint64(math.MaxUint64)
	for i := range m.Cores {
		c := &m.Cores[i]
		at := c.Cycles
		if c.wfi {
			if c.pending {
				at = c.Cycles
			} else if c.timerAt != 0 {
				at = c.timerAt
			} else {
				continue // parked until another event type exists
			}
		}
		if at < bestAt {
			best, bestAt = c, at
		}
	}
	if best != nil && best.wfi {
		// Sleeping advances local time to the wake event.
		if best.timerAt > best.Cycles {
			best.Stats.IdleCycles += best.timerAt - best.Cycles
			best.Cycles = best.timerAt
		}
		best.wfi = false
	}
	return best
}

// Run executes until the guest halts, the cycle budget (per-core) is
// exceeded, every core deadlocks, or the instruction budget is exhausted.
// The block-cached fast path (fastpath.go) is the default engine; the
// retained per-instruction reference interpreter (Config.SlowPath, or the
// process-wide ForceSlowPath escape hatch) evolves the machine
// bit-identically — same architectural state and same cycle/stat counters
// at every retirement boundary.
func (m *Machine) Run(maxCycles uint64) StopReason {
	if maxCycles == 0 {
		maxCycles = math.MaxUint64
	}
	// Telemetry is batched here at the slice boundary: one set of atomic
	// adds per Run call, never inside the retirement loops.
	start := m.TotalRetired
	cacheBefore := m.cacheCensus()
	if m.slow {
		r := m.runSlow(maxCycles)
		obsRetiredSlow.Add(float64(m.TotalRetired - start))
		obsRunsSlow.Inc()
		observeCacheDelta(cacheBefore, m.cacheCensus())
		return r
	}
	r := m.runFast(maxCycles)
	obsRetiredFast.Add(float64(m.TotalRetired - start))
	obsRunsFast.Inc()
	observeCacheDelta(cacheBefore, m.cacheCensus())
	return r
}

// runSlow is the reference interpreter's main loop: rescan every core,
// step one instruction, repeat.
func (m *Machine) runSlow(maxCycles uint64) StopReason {
	for !m.Halted {
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
		m.step(c)
	}
	return StopHalted
}

// exception vectors the core into the kernel.
func (m *Machine) exception(c *Core, cause, ret, badaddr uint64) {
	c.Sys[isa.SysSPSR] = packPstate(c)
	c.Sys[isa.SysELR] = ret
	c.Sys[isa.SysCAUSE] = cause
	c.Sys[isa.SysBADADDR] = badaddr
	if m.live != nil {
		m.live.readReg(c.ID, uint8(m.spIndex)) // the bank switch consumes sp; KSP is a birth
	}
	c.Sys[isa.SysUSP] = c.Regs[m.spIndex]
	c.Regs[m.spIndex] = c.Sys[isa.SysKSP] & m.wmask
	c.Kernel = true
	c.IRQOn = false
	c.PC = VectorBase
	c.Cycles += uint64(m.Cfg.Timing.ExcEntry)
	c.Stats.Exceptions++
	c.lastLine = 0
}

// packPstate folds mode, interrupt mask and flags into a SPSR word.
func packPstate(c *Core) uint64 {
	var v uint64
	if c.Kernel {
		v |= 1
	}
	if c.IRQOn {
		v |= 2
	}
	if c.Flags.N {
		v |= 1 << 4
	}
	if c.Flags.Z {
		v |= 1 << 5
	}
	if c.Flags.C {
		v |= 1 << 6
	}
	if c.Flags.V {
		v |= 1 << 7
	}
	return v
}

// unpackPstate restores mode, interrupt mask and flags from a SPSR word.
func unpackPstate(c *Core, v uint64) {
	c.Kernel = v&1 != 0
	c.IRQOn = v&2 != 0
	c.Flags = isa.Flags{
		N: v&(1<<4) != 0,
		Z: v&(1<<5) != 0,
		C: v&(1<<6) != 0,
		V: v&(1<<7) != 0,
	}
}

// mmioWrite handles a store into the device window.
func (m *Machine) mmioWrite(c *Core, addr uint32, v uint64) {
	switch addr {
	case MMIOConsole:
		m.Console.WriteByte(byte(v))
	case MMIOPoweroff:
		m.Halted = true
		m.ExitCode = v
	case MMIOAppStart:
		if m.AppStartRetired == 0 {
			m.AppStartRetired = m.TotalRetired
		}
	case MMIOAppExit:
		if !m.AppExited {
			m.AppExited = true
			m.AppEndRetired = m.TotalRetired
			m.AppExitCode = int(v & 0xff)
			m.AppSignal = int(v >> 8 & 0xff)
		}
	}
	c.Cycles += uint64(m.Cfg.Timing.MMIO)
}

// mmioRead handles a load from the device window (all registers read 0).
func (m *Machine) mmioRead(c *Core, addr uint32) uint64 {
	c.Cycles += uint64(m.Cfg.Timing.MMIO)
	return 0
}

// invalidateDecoded drops cached decodes — and any block runs covering
// them — for a store into text. The word range is computed defensively:
// unaligned addresses and sizes round outward to whole words, a zero size
// is a no-op, and address arithmetic that would wrap past the top of the
// 32-bit space clamps to the end of the cache instead of missing words.
func (m *Machine) invalidateDecoded(addr, size uint32) {
	if addr >= m.textLimit || size == 0 {
		return
	}
	first := addr / 4
	last := (addr + size - 1) / 4
	if last < first { // addr+size wrapped past 2^32
		last = uint32(len(m.decValid) - 1)
	}
	for i := first; i <= last && int(i) < len(m.decValid); i++ {
		m.decValid[i] = false
		if b := m.blockOf[i]; b >= 0 {
			m.dropBlock(b)
		}
	}
}

// InvalidateText drops cached decodes for a text range written from outside
// the store path (the instruction-memory fault injector writes RAM directly,
// bypassing the invalidation that guest stores trigger).
func (m *Machine) InvalidateText(addr, size uint32) { m.invalidateDecoded(addr, size) }

// ConsoleString returns the console output so far.
func (m *Machine) ConsoleString() string { return m.Console.String() }

// RegFileHash digests every core's architectural register state.
func (m *Machine) RegFileHash() uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	for i := range m.Cores {
		c := &m.Cores[i]
		for _, r := range c.Regs[:m.Feat.NumGPR] {
			mix(r)
		}
		if m.Feat.HasHWFloat {
			for _, f := range c.F {
				mix(f)
			}
		}
		mix(c.PC)
		mix(packPstate(c))
	}
	return h
}

// RegFileEquals reports whether every core of m holds the architectural
// register state of the same core of o: exactly the fields RegFileHash
// digests, compared field by field. m and o share one configuration.
func (m *Machine) RegFileEquals(o *Machine) bool {
	n := m.Feat.NumGPR
	for i := range m.Cores {
		c, d := &m.Cores[i], &o.Cores[i]
		if !slices.Equal(c.Regs[:n], d.Regs[:n]) || c.PC != d.PC || packPstate(c) != packPstate(d) ||
			m.Feat.HasHWFloat && c.F != d.F {
			return false
		}
	}
	return true
}

// TotalStats sums per-core counters.
func (m *Machine) TotalStats() CoreStats {
	var t CoreStats
	for i := range m.Cores {
		s := &m.Cores[i].Stats
		t.Retired += s.Retired
		t.KernelRetired += s.KernelRetired
		t.Cycles += s.Cycles
		t.IdleCycles += s.IdleCycles
		t.Branches += s.Branches
		t.BranchTaken += s.BranchTaken
		t.Mispredicts += s.Mispredicts
		t.CondSkipped += s.CondSkipped
		t.Loads += s.Loads
		t.Stores += s.Stores
		t.FPOps += s.FPOps
		t.Calls += s.Calls
		t.Svcs += s.Svcs
		t.Exceptions += s.Exceptions
		t.CtxRestores += s.CtxRestores
		t.WFISleeps += s.WFISleeps
	}
	return t
}
