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
// output, lifecycle beacons and retirement counters. Restoring it into a
// machine built from the same Config resumes execution bit-for-bit: the
// continuation interleaves, retires and classifies exactly as the original
// run would have. Snapshots are immutable once captured and safe to share
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

	injected   bool
	sampleLeft uint64
	callCounts map[uint32]uint64
	samples    map[uint32]uint64
}

// Retired returns the machine's total retired-instruction count at capture
// time; checkpoint schedulers use it to pick the nearest pre-fault snapshot.
func (s *Snapshot) Retired() uint64 { return s.totalRetired }

// Mem returns the snapshot's RAM image: the handle for chaining
// further deltas onto it (mem.Snapshot.DeltaOf) and chain telemetry
// (Depth, ChainBytes).
func (s *Snapshot) Mem() *mem.Snapshot { return s.mem }

// MemBytes returns the in-memory payload of this snapshot's own RAM pages
// (telemetry; for a delta that is just the pages it adds to the chain).
func (s *Snapshot) MemBytes() int { return s.mem.Bytes() }

func copyCounts(m map[uint32]uint64) map[uint32]uint64 {
	if m == nil {
		return nil
	}
	out := make(map[uint32]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Snapshot captures the machine's current state with a full RAM copy.
func (m *Machine) Snapshot() *Snapshot { return m.capture(m.Mem.Snapshot(), true) }

// DeltaSnapshot captures the machine's current state with the RAM image
// stored as a delta off the memory's tracking base — the snapshot most
// recently captured from or restored into this machine — so a checkpoint
// chain pays only for the pages dirtied since its predecessor. It falls
// back to a full copy when no base exists. Restoring the result is
// bit-identical to restoring a full Snapshot of the same instant.
//
// Only RAM is delta-encoded. The cache hierarchy state is captured in full,
// and on a capture that dirtied few pages it is the dominant cost: line
// arrays plus the coherence directory, one byte per line of RAM — about
// 0.6 MB for the 24 MiB guests.
func (m *Machine) DeltaSnapshot() *Snapshot { return m.capture(m.Mem.DeltaSnapshot(), true) }

// CheckpointSnapshot is DeltaSnapshot without the profile tables
// (CallCounts, Samples, the sampling countdown): the snapshot an unprofiled
// machine would capture at this instant. Profiling observes execution and
// never steers it, so a profiled fault-free run can capture the checkpoints
// that unprofiled injection machines restore — a restore hands them no
// tables to fill.
func (m *Machine) CheckpointSnapshot() *Snapshot { return m.capture(m.Mem.DeltaSnapshot(), false) }

func (m *Machine) capture(ms *mem.Snapshot, profile bool) *Snapshot {
	s := &Snapshot{
		cores:           append([]Core(nil), m.Cores...),
		mem:             ms,
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
	if profile {
		s.sampleLeft = m.sampleLeft
		s.callCounts = copyCounts(m.CallCounts)
		s.samples = copyCounts(m.Samples)
	}
	return s
}

// Squash is mem.Squash over machine snapshots: keep lists members of one
// delta chain in ascending order, and the result holds the same machine
// states with their RAM images chained to each other directly, the deltas of
// the members left out folded forward. The input snapshots are not modified.
func Squash(keep []*Snapshot) []*Snapshot {
	mems := make([]*mem.Snapshot, len(keep))
	for i, s := range keep {
		mems[i] = s.mem
	}
	mems = mem.Squash(mems)
	out := make([]*Snapshot, len(keep))
	for i, s := range keep {
		if mems[i] != s.mem { // rechained: same machine state over the new image
			c := *s
			c.mem = mems[i]
			s = &c
		}
		out[i] = s
	}
	return out
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
	if m.TotalRetired != s.totalRetired ||
		m.Halted != s.halted || m.ExitCode != s.exitCode ||
		m.AppStartRetired != s.appStartRetired || m.AppEndRetired != s.appEndRetired ||
		m.AppExited != s.appExited || m.AppExitCode != s.appExitCode || m.AppSignal != s.appSignal {
		return false
	}
	if !slices.Equal(m.Cores, s.cores) {
		return false
	}
	return bytes.Equal(m.Console.Bytes(), s.console)
}

// Restore resets the machine to a snapshot taken from a machine with the
// same Config (ISA, core count, RAM size, cache geometry). The injection
// hook (InjectAt/Inject) is left untouched so a caller can arm a fault
// before resuming; the injected latch is reset to the snapshot's value.
func (m *Machine) Restore(s *Snapshot) {
	if len(m.Cores) != len(s.cores) {
		m.Cores = make([]Core, len(s.cores))
	}
	copy(m.Cores, s.cores)
	touched, selective := m.Mem.Restore(s.mem)
	m.Hier.SetState(s.hier)
	m.Console.Reset()
	m.Console.Write(s.console)
	switch {
	case m.textLimit != s.textLimit:
		m.SetTextLimit(s.textLimit)
	case selective:
		// The selective restore rewrote only the returned pages; decoded
		// instructions and block runs over untouched pages are still valid
		// by the dirty-page invariant, so invalidate page by page instead
		// of flushing a warm decode cache wholesale.
		for _, off := range touched {
			m.invalidateDecoded(off, mem.PageBytes)
		}
	default:
		m.FlushDecoded()
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
	m.sampleLeft = s.sampleLeft
	m.CallCounts = copyCounts(s.callCounts)
	m.Samples = copyCounts(s.samples)
}
