package mach

import (
	"bytes"
	"slices"

	"serfi/internal/cache"
	"serfi/internal/mem"
)

// Snapshot is a complete copy of a machine's mutable state at one committed
// instruction boundary: core register files and private core state, RAM
// (which holds all guest-kernel structures), the cache hierarchy, console
// output, lifecycle beacons and retirement counters — machine state only:
// no snapshot carries a golden machine's records (Config.Profile), which
// observe one run and never steer it. Restoring it into a machine built
// from the same Config resumes execution bit-for-bit: the continuation
// interleaves, retires and classifies exactly as the original run would
// have. Snapshots are immutable once captured and safe to share
// across goroutines; Restore only reads them.
//
// The decoded-text cache and memory-lookup caches are derived state and are
// rebuilt lazily after restore rather than stored.
type Snapshot struct {
	cores     []Core
	mem       *mem.Snapshot
	hier      *cache.HierState
	console   []byte
	textLimit uint32

	halted       bool
	exitCode     uint64
	totalRetired uint64

	appStartRetired uint64
	appEndRetired   uint64
	appExited       bool
	appExitCode     int
	appSignal       int

	injected bool

	// live is the golden run's liveness mark at this instant (LiveMark): an
	// annotation CheckpointSnapshot attaches on a machine keeping a record,
	// never machine state.
	live *LiveMark
}

// Retired returns the machine's total retired-instruction count at capture
// time; checkpoint schedulers use it to pick the nearest pre-fault snapshot.
func (s *Snapshot) Retired() uint64 { return s.totalRetired }

// MemBytes returns the payload of the RAM pages the snapshots hold, each page
// shared between captures counted once (mem.Bytes).
func MemBytes(snaps ...*Snapshot) int {
	mems := make([]*mem.Snapshot, len(snaps))
	for i, s := range snaps {
		mems[i] = s.mem
	}
	return mem.Bytes(mems...)
}

// CacheBytes returns the payload of the cache-hierarchy state the snapshots
// hold, each chunk shared between captures counted once
// (cache.StateBytes).
func CacheBytes(snaps []*Snapshot) int {
	states := make([]*cache.HierState, len(snaps))
	for i, s := range snaps {
		states[i] = s.hier
	}
	return cache.StateBytes(states...)
}

// Snapshot captures the machine's current state. Its RAM image shares every
// page with the machine's memory, which copies a page the first time it
// writes it afterwards (mem.Memory.Snapshot), so a series of captures pays
// only for the pages written between them.
//
// The cache hierarchy state shares by its own rule: its line arrays and
// coherence directory (one byte per line of RAM, about 0.6 MB together for
// the 24 MiB guests) are cut into fixed-size chunks, and every chunk equal
// to the hierarchy's base — the state last captured from or restored into
// it — is shared, not copied (cache.Hierarchy.State).
func (m *Machine) Snapshot() *Snapshot { return m.capture() }

// DeltaSnapshot is Snapshot; kept for bench/ (ROADMAP item 8).
func (m *Machine) DeltaSnapshot() *Snapshot { return m.Snapshot() }

// CheckpointSnapshot is Snapshot that, on a golden machine, also marks the
// liveness record; the snapshot carries the mark (Live). Snapshot marks
// nothing, so a test may compare a golden machine's state at any boundary
// without adding lineage roots to its record.
func (m *Machine) CheckpointSnapshot() *Snapshot {
	s := m.capture()
	if m.live != nil {
		s.live = m.live.mark(len(m.Cores))
	}
	return s
}

// Live returns the liveness mark CheckpointSnapshot attached, nil on every
// snapshot of a machine without a record.
func (s *Snapshot) Live() *LiveMark { return s.live }

func (m *Machine) capture() *Snapshot {
	return &Snapshot{
		cores:           append([]Core(nil), m.Cores...),
		mem:             m.Mem.Snapshot(),
		hier:            m.Hier.State(),
		console:         append([]byte(nil), m.Console.Bytes()...),
		textLimit:       m.textLimit,
		halted:          m.Halted,
		exitCode:        m.ExitCode,
		totalRetired:    m.TotalRetired,
		appStartRetired: m.AppStartRetired,
		appEndRetired:   m.AppEndRetired,
		appExited:       m.AppExited,
		appExitCode:     m.AppExitCode,
		appSignal:       m.AppSignal,
		injected:        m.injected,
	}
}

// StateEquals reports whether the machine's current execution state is
// bit-identical to the snapshot: cores (registers, flags, timers, cycle and
// event counters), RAM, cache hierarchy, console and lifecycle beacons.
// Equality implies the machine's continuation is instruction-for-instruction
// the continuation the snapshotted machine would have taken — the basis of
// the fault injector's convergence pruning. Injection plumbing (InjectAt,
// the injected latch) and derived caches are deliberately excluded: a fired,
// latched fault hook can no longer influence execution. So are cache-line
// fields no lookup can read (cache.HierState.Equals).
func (s *Snapshot) StateEquals(m *Machine) bool {
	return s.coresEqual(m) && s.hier.Equals(m.Hier) && s.mem.EqualsMemory(m.Mem)
}

// StateEqualsExact is StateEquals with the cache hierarchy compared bit for
// bit (cache.HierState.EqualsExact).
func (s *Snapshot) StateEqualsExact(m *Machine) bool {
	return s.coresEqual(m) && s.hier.EqualsExact(m.Hier) && s.mem.EqualsMemory(m.Mem)
}

// coresEqual compares everything StateEquals covers outside caches and RAM.
func (s *Snapshot) coresEqual(m *Machine) bool {
	return s.metaEqual(m) && slices.Equal(m.Cores, s.cores)
}

// metaEqual compares the retirement count, halt and lifecycle state and the
// console.
func (s *Snapshot) metaEqual(m *Machine) bool {
	return m.TotalRetired == s.totalRetired &&
		m.Halted == s.halted && m.ExitCode == s.exitCode &&
		m.AppStartRetired == s.appStartRetired && m.AppEndRetired == s.appEndRetired &&
		m.AppExited == s.appExited && m.AppExitCode == s.appExitCode && m.AppSignal == s.appSignal &&
		bytes.Equal(m.Console.Bytes(), s.console)
}

// DeadDiff is StateEquals modulo dead state, in one pass, against a golden
// checkpoint that carries a liveness mark. ok reports that the machine
// equals the snapshot everywhere except in GPRs and slot words whose values
// at the mark no later instruction consumes: no later instruction reads a
// differing value, so addresses, branches and latencies are the golden
// run's, the run ends exactly as the golden run did, and only copies of the
// differing values move on. dead reports that some such location did differ
// (false: StateEquals holds), kept that a copy of one still sits in a GPR or
// RAM at halt (the run ends ONA; otherwise Vanished).
//
// Any difference outside the record's locations fails at once: pc, flags,
// mode, system registers, FP registers, timers, counters, console, lifecycle
// beacons, canonical cache state (HierState.Equals), any RAM word that is no
// slot. Without a mark, or before the record is finished, every location
// counts as consumed and ok is StateEquals.
func (s *Snapshot) DeadDiff(m *Machine) (ok, dead, kept bool) {
	if len(m.Cores) != len(s.cores) || !s.metaEqual(m) {
		return false, false, false
	}
	lm := s.live
	n := 0 // GPRs left out of the core compare, checked one by one below
	if lm != nil && lm.l.done {
		n = lm.l.ngpr
	}
	for i := range m.Cores {
		c := m.Cores[i]
		copy(c.Regs[:n], s.cores[i].Regs[:n])
		if c != s.cores[i] {
			return false, false, false
		}
	}
	if !s.hier.Equals(m.Hier) {
		return false, false, false
	}
	differs := func(f Fate) bool {
		dead = true
		kept = kept || f == Kept
		return f != Consumed
	}
	for i := range m.Cores {
		for r := 0; r < n; r++ {
			if m.Cores[i].Regs[r] != s.cores[i].Regs[r] && !differs(lm.Reg(i, r)) {
				return false, false, false
			}
		}
	}
	if !s.mem.DiffWords(m.Mem, m.wbytes, func(addr uint32) bool { return lm != nil && differs(lm.Slot(addr)) }) {
		return false, false, false
	}
	return true, dead, kept
}

// Restore resets the machine to a snapshot taken from a machine with the
// same Config (ISA, core count, RAM size, cache geometry). The injection
// hook (InjectAt/Inject) is left untouched so a caller can arm a fault
// before resuming; the injected latch is reset to the snapshot's value. A
// golden machine's records (Config.Profile) are left as they were.
func (m *Machine) Restore(s *Snapshot) {
	if len(m.Cores) != len(s.cores) {
		m.Cores = make([]Core, len(s.cores))
	}
	copy(m.Cores, s.cores)
	touched := m.Mem.Restore(s.mem)
	m.Hier.SetState(s.hier)
	m.Console.Reset()
	m.Console.Write(s.console)
	if m.textLimit != s.textLimit {
		m.SetTextLimit(s.textLimit)
	} else {
		// The restore repointed only the returned pages. Every other page is
		// the slice it was, with the bytes it had, so decoded instructions
		// and block runs over it stay valid.
		for _, off := range touched {
			m.invalidateDecoded(off, mem.PageBytes)
		}
	}
	m.Halted = s.halted
	m.ExitCode = s.exitCode
	m.TotalRetired = s.totalRetired
	m.AppStartRetired = s.appStartRetired
	m.AppEndRetired = s.appEndRetired
	m.AppExited = s.appExited
	m.AppExitCode = s.appExitCode
	m.AppSignal = s.appSignal
	m.injected = s.injected
}
