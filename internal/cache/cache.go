// Package cache models the two-level cache hierarchy of the simulated
// processors: private L1 instruction and data caches per core and a shared
// unified L2, with an invalidation-based coherence directory.
//
// The model is timing-and-statistics only: architectural data always flows
// through flat RAM (package mem), so cache state can never corrupt
// simulation results. This mirrors how the study uses gem5's cache model —
// to shape execution time and to produce the microarchitectural statistics
// mined in the paper's cross-layer analysis (memory transaction rates,
// hit/miss ratios), not as a fault target.
package cache

import (
	"bytes"
	"fmt"
	"slices"
	"unsafe"
)

// Config describes one cache.
type Config struct {
	Name      string
	SizeBytes uint32
	LineBytes uint32
	Ways      uint32
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() uint32 { return c.SizeBytes / (c.LineBytes * c.Ways) }

// TagBits returns the number of meaningful bits in a stored tag. Tags hold
// the full line address (addr >> log2(LineBytes)), so the top log2(LineBytes)
// bits of the 32-bit address space never reach the tag array.
func (c Config) TagBits() int {
	bits := 32
	for l := c.LineBytes; l > 1; l >>= 1 {
		bits--
	}
	return bits
}

// Validate checks the geometry for power-of-two consistency.
func (c Config) Validate() error {
	if c.SizeBytes == 0 || c.LineBytes == 0 || c.Ways == 0 {
		return fmt.Errorf("cache %s: zero geometry", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	sets := c.Sets()
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

type line struct {
	tag   uint32
	valid bool
	dirty bool
	lru   uint64
}

// Stats counts accesses for one cache.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Writeback uint64
}

// Accesses returns hits+misses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns the miss ratio in [0,1], 0 when never accessed.
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

// Cache is a single set-associative write-back cache.
type Cache struct {
	cfg      Config
	lines    []line // sets*ways, row-major by set
	setShift uint32
	setMask  uint32
	tick     uint64
	Stats    Stats

	// stamp, when non-nil, holds per set the commit number of the last
	// instruction whose access read or wrote the set: *clock+1 at the access,
	// so a set stamped n is not read again once the injection hook of index n
	// has fired (the mach.Machine.PageTouch convention). Only the golden
	// hierarchy keeps stamps (Hierarchy.StampSets); they are no part of
	// HierState.
	stamp []uint64
	clock *uint64
}

// New builds a cache; it panics on invalid geometry (configuration is fixed
// by the processor model).
func New(cfg Config) *Cache { return newCache(cfg, nil) }

// newCache builds a cache over the front of lines, or over lines of its own
// when lines is too short.
func newCache(cfg Config, lines []line) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg}
	n := cfg.Sets() * cfg.Ways
	if uint32(len(lines)) < n {
		lines = make([]line, n)
	}
	c.lines = lines[:n:n]
	shift := uint32(0)
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		shift++
	}
	c.setShift = shift
	c.setMask = cfg.Sets() - 1
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Access looks up addr, allocating on miss (write-allocate). It returns
// true on hit. evictedTag receives the replaced line's address when a dirty
// line was evicted (for write-back accounting); it is -1 otherwise.
func (c *Cache) Access(addr uint32, write bool) (hit bool, evicted int64) {
	c.tick++
	lineAddr := addr >> c.setShift
	set := lineAddr & c.setMask
	tag := lineAddr // full line address as tag (set bits redundant but harmless)
	if c.stamp != nil {
		c.stamp[set] = *c.clock + 1
	}
	base := set * c.cfg.Ways
	ways := c.lines[base : base+c.cfg.Ways]
	// Hit scan first, victim bookkeeping only on the miss path: the choice
	// is identical to a single fused scan (same visit order, same
	// comparisons), but the common hit pays no victim accounting.
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.tick
			if write {
				ways[i].dirty = true
			}
			c.Stats.Hits++
			return true, -1
		}
	}
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
		} else if ways[victim].valid && ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	c.Stats.Misses++
	evicted = -1
	if ways[victim].valid {
		c.Stats.Evictions++
		if ways[victim].dirty {
			c.Stats.Writeback++
			evicted = int64(ways[victim].tag) << c.setShift
		}
	}
	ways[victim] = line{tag: tag, valid: true, dirty: write, lru: c.tick}
	return false, evicted
}

// Invalidate drops the line containing addr if present, returning whether it
// was present (and dirty).
func (c *Cache) Invalidate(addr uint32) (present, dirty bool) {
	lineAddr := addr >> c.setShift
	set := lineAddr & c.setMask
	if c.stamp != nil {
		c.stamp[set] = *c.clock + 1
	}
	base := set * c.cfg.Ways
	ways := c.lines[base : base+c.cfg.Ways]
	for i := range ways {
		if ways[i].valid && ways[i].tag == lineAddr {
			present, dirty = true, ways[i].dirty
			ways[i] = line{}
			return
		}
	}
	return false, false
}

// Contains reports whether addr's line is resident (test helper).
func (c *Cache) Contains(addr uint32) bool {
	lineAddr := addr >> c.setShift
	set := lineAddr & c.setMask
	if c.stamp != nil {
		c.stamp[set] = *c.clock + 1
	}
	base := set * c.cfg.Ways
	for _, l := range c.lines[base : base+c.cfg.Ways] {
		if l.valid && l.tag == lineAddr {
			return true
		}
	}
	return false
}

// Level selects one cache array of a Hierarchy: the per-core L1
// instruction and data caches or the shared unified L2. It is the uncore
// fault domains' addressing scheme (internal/fault): a fault point names
// (level, core, set, way, bit), with core ignored at L2.
type Level int

// Hierarchy levels, in the frozen order the fault domains sample them.
const (
	L1I Level = iota
	L1D
	L2
	NumLevels
)

func (l Level) String() string {
	switch l {
	case L1I:
		return "l1i"
	case L1D:
		return "l1d"
	case L2:
		return "l2"
	}
	return "?"
}

// LevelConfig returns the geometry of one hierarchy level.
func (c HierConfig) LevelConfig(l Level) Config {
	switch l {
	case L1I:
		return c.L1I
	case L1D:
		return c.L1D
	case L2:
		return c.L2
	}
	panic(fmt.Sprintf("cache: bad level %d", l))
}

// HierConfig describes a full hierarchy. Latencies are the *additional*
// cycles paid at each level on the way to a hit there; an L1 hit costs
// L1Lat, an L2 hit L1Lat+L2Lat, a RAM access L1Lat+L2Lat+MemLat.
type HierConfig struct {
	L1I, L1D, L2          Config
	L1Lat, L2Lat, MemLat  uint32
	CoherencePenalty      uint32 // extra cycles when a store invalidates a peer line
	LineBytes             uint32 // convenience copy of the L1 line size
	DirectoryGranularBits uint32 // log2 line size used by the directory
}

// DefaultConfig returns the paper's cache configuration (§3.1): L1I 32kB
// 4-way, L1D 32kB 4-way, L2 512kB 8-way, 64-byte lines.
func DefaultConfig() HierConfig {
	return HierConfig{
		L1I:              Config{Name: "l1i", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4},
		L1D:              Config{Name: "l1d", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4},
		L2:               Config{Name: "l2", SizeBytes: 512 << 10, LineBytes: 64, Ways: 8},
		L1Lat:            1,
		L2Lat:            10,
		MemLat:           60,
		CoherencePenalty: 20,
		LineBytes:        64,
	}
}

// Hierarchy is the per-machine cache system.
type Hierarchy struct {
	cfg       HierConfig
	l1i       []*Cache
	l1d       []*Cache
	l2        *Cache
	all       []*Cache // l1i, l1d, l2: the fault domains' unit order
	lines     []line   // every array's lines back to back, in that order
	dir       []uint8  // line index -> bitmask of cores with the line in L1D
	lineShift uint32
	// Invalidations counts coherence invalidations of peer L1D lines.
	Invalidations uint64

	// base is the state most recently captured from or restored into the
	// hierarchy: State shares each of its chunks the live state still equals.
	base *HierState
}

// NewHierarchy builds caches for the given core count over ramSize bytes.
func NewHierarchy(cfg HierConfig, cores int, ramSize uint32) *Hierarchy {
	h := &Hierarchy{cfg: cfg}
	shift := uint32(0)
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		shift++
	}
	h.lineShift = shift
	h.dir = make([]uint8, ramSize>>shift)
	// One line array for the whole hierarchy, each cache a window on it, so
	// that a state's chunks cut across caches like the directory's do.
	size := func(c Config) int {
		if err := c.Validate(); err != nil {
			panic(err)
		}
		return int(c.Sets() * c.Ways)
	}
	h.lines = make([]line, cores*(size(cfg.L1I)+size(cfg.L1D))+size(cfg.L2))
	rest := h.lines
	add := func(c Config) *Cache {
		cc := newCache(c, rest)
		rest = rest[len(cc.lines):]
		return cc
	}
	for i := 0; i < cores; i++ {
		ci := cfg.L1I
		ci.Name = fmt.Sprintf("l1i%d", i)
		h.l1i = append(h.l1i, add(ci))
	}
	for i := 0; i < cores; i++ {
		cd := cfg.L1D
		cd.Name = fmt.Sprintf("l1d%d", i)
		h.l1d = append(h.l1d, add(cd))
	}
	h.l2 = add(cfg.L2)
	h.all = append(append(append([]*Cache(nil), h.l1i...), h.l1d...), h.l2)
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierConfig { return h.cfg }

// Chunk sizes of a HierState: 64 lines (1 KiB) of the line arrays, 4 KiB of
// the directory (one byte per 64-byte line of RAM, so 256 KiB of RAM).
const (
	lineChunk = 64
	dirChunk  = 4 << 10
)

// HierState is an opaque copy of a Hierarchy's mutable state (line tags, LRU
// clocks, statistics and the coherence directory). Cache state shapes timing,
// and timing shapes interrupt interleaving, so deterministic restore of a
// simulated machine must include it. A HierState is immutable once captured
// and safe to share across goroutines.
//
// The line arrays and the directory are held as fixed-size chunks, and a
// capture shares every chunk that equals the same chunk of the hierarchy's
// base (the state last captured from or restored into it): a chain of
// captures pays only for the chunks that changed between neighbours.
type HierState struct {
	lines [][]line  // chunks of Hierarchy.lines, lineChunk lines each (the last may be shorter)
	dir   [][]uint8 // chunks of Hierarchy.dir, dirChunk bytes each
	ticks []uint64  // per array, in Hierarchy.all order
	stats []Stats
	inval uint64
}

// State captures the hierarchy's current contents and counters, and becomes
// the base. Which chunks it shares with the previous base is decided by
// comparing each live chunk whole with the base's, not by tracking writes:
// no access path records what it changes.
func (h *Hierarchy) State() *HierState {
	s := &HierState{ticks: make([]uint64, len(h.all)), stats: make([]Stats, len(h.all)), inval: h.Invalidations}
	for i, c := range h.all {
		s.ticks[i], s.stats[i] = c.tick, c.Stats
	}
	base := h.base
	if base == nil {
		base = &HierState{}
	}
	s.lines = shareChunks(h.lines, lineChunk, base.lines, slices.Equal[[]line])
	s.dir = shareChunks(h.dir, dirChunk, base.dir, bytes.Equal)
	h.base = s
	return s
}

// shareChunks cuts live into chunks of size elements: prev's chunk where
// equal says it still holds the live one, otherwise a copy. Every copied
// chunk is carved from one allocation.
func shareChunks[E any](live []E, size int, prev [][]E, equal func(a, b []E) bool) [][]E {
	out := make([][]E, (len(live)+size-1)/size)
	fresh := 0
	for i := range out {
		if c := live[i*size : min((i+1)*size, len(live))]; prev != nil && equal(c, prev[i]) {
			out[i] = prev[i]
		} else {
			fresh += len(c)
		}
	}
	if fresh == 0 {
		return out
	}
	back := make([]E, 0, fresh)
	for i := range out {
		if out[i] == nil {
			c := live[i*size : min((i+1)*size, len(live))]
			back = append(back, c...)
			out[i] = back[len(back)-len(c) : len(back) : len(back)]
		}
	}
	return out
}

// StateBytes returns the payload of the distinct chunks the given states
// hold, each chunk counted once however many states share it: the resident
// cost of a chain of captures.
func StateBytes(states ...*HierState) int {
	seen := make(map[any]struct{})
	n := 0
	for _, s := range states {
		for _, c := range s.lines {
			if _, ok := seen[&c[0]]; !ok {
				seen[&c[0]] = struct{}{}
				n += len(c) * int(unsafe.Sizeof(line{}))
			}
		}
		for _, c := range s.dir {
			if _, ok := seen[&c[0]]; !ok {
				seen[&c[0]] = struct{}{}
				n += len(c)
			}
		}
	}
	return n
}

// Equals reports whether a hierarchy's current state — line tags, LRU
// clocks, statistics, directory and coherence counters — is
// indistinguishable from the captured state. Used by the fault injector's
// convergence pruning: cache state shapes timing, so "the machine has
// rejoined the golden path" must include it. The tag, dirty bit and LRU clock
// of a line that is invalid on both sides are dead and compare equal: Access'
// hit scan and Invalidate gate on valid, victim choice takes an invalid way
// without reading its clock, and a fill overwrites the whole slot.
func (s *HierState) Equals(h *Hierarchy) bool { return s.equals(h, false) }

// EqualsExact is Equals with dead fields compared too: every stored bit must
// match. The injector's full-copy reference sets converge by it.
func (s *HierState) EqualsExact(h *Hierarchy) bool { return s.equals(h, true) }

func (s *HierState) equals(h *Hierarchy, exact bool) bool {
	if !s.fits(h) || h.Invalidations != s.inval {
		return false
	}
	for i, c := range h.all {
		if c.tick != s.ticks[i] || c.Stats != s.stats[i] {
			return false
		}
	}
	for i, o := range s.lines {
		c := h.lines[i*lineChunk : i*lineChunk+len(o)]
		if slices.Equal(c, o) {
			continue
		}
		if exact {
			return false
		}
		for j, l := range c {
			if l != o[j] && (l.valid || o[j].valid) {
				return false
			}
		}
	}
	for i, o := range s.dir {
		if !bytes.Equal(h.dir[i*dirChunk:i*dirChunk+len(o)], o) {
			return false
		}
	}
	return true
}

// fits reports whether the state was captured from a hierarchy of h's
// geometry and core count.
func (s *HierState) fits(h *Hierarchy) bool {
	return len(s.ticks) == len(h.all) && sameCut(s.lines, len(h.lines), lineChunk) && sameCut(s.dir, len(h.dir), dirChunk)
}

// sameCut reports whether chunks cut n elements into chunks of size.
func sameCut[E any](chunks [][]E, n, size int) bool {
	return len(chunks) == (n+size-1)/size && (n == 0 || len(chunks[len(chunks)-1]) == n-(len(chunks)-1)*size)
}

// SetState restores a previously captured state, which becomes the
// hierarchy's base. The hierarchy must have the same geometry and core count
// as the one the state was captured from.
func (h *Hierarchy) SetState(s *HierState) {
	if !s.fits(h) {
		panic("cache: SetState geometry mismatch")
	}
	for i, c := range s.lines {
		copy(h.lines[i*lineChunk:], c)
	}
	for i, c := range s.dir {
		copy(h.dir[i*dirChunk:], c)
	}
	for i, c := range h.all {
		c.tick, c.Stats = s.ticks[i], s.stats[i]
	}
	h.Invalidations = s.inval
	h.base = s
}

// Cores returns the number of per-core L1 pairs the hierarchy holds.
func (h *Hierarchy) Cores() int { return len(h.l1d) }

// at resolves one cache array; core is ignored at L2. It panics on an
// out-of-range coordinate — fault sampling draws within the geometry, so a
// bad coordinate is a programmer error, exactly like SetState mismatches.
func (h *Hierarchy) at(l Level, core int) *Cache {
	switch l {
	case L1I:
		return h.l1i[core]
	case L1D:
		return h.l1d[core]
	case L2:
		return h.l2
	}
	panic(fmt.Sprintf("cache: bad level %d", l))
}

// lineAt resolves one line's storage slot within a cache array.
func (c *Cache) lineAt(set, way uint32) *line {
	if set >= c.cfg.Sets() || way >= c.cfg.Ways {
		panic(fmt.Sprintf("cache %s: line (set %d, way %d) outside %dx%d geometry",
			c.cfg.Name, set, way, c.cfg.Sets(), c.cfg.Ways))
	}
	return &c.lines[set*c.cfg.Ways+way]
}

// FlipTag XORs one bit of a line's stored tag — the cache-tag soft-error
// model. A flipped tag of a valid line turns later lookups of the original
// address into misses (silent eviction of live data from the timing model's
// view) and can alias a different line address into a spurious hit. RAM is
// never touched; the fault manifests only through timing and coherence.
// Bits at or above Config.TagBits are unused by comparisons, so fault
// domains sample bit in [0, TagBits).
func (h *Hierarchy) FlipTag(l Level, core int, set, way uint32, bit int) {
	h.at(l, core).lineAt(set, way).tag ^= 1 << uint(bit)
}

// FlipDirty flips a line's status bits: bit 0 toggles dirty (a spurious
// writeback, or a lost one), bit 1 toggles valid (a silently dropped line,
// or a resurrected stale one). The flip applies regardless of current
// validity — the SRAM cell holding the bit does not know whether the line
// is live.
func (h *Hierarchy) FlipDirty(l Level, core int, set, way uint32, bit int) {
	ln := h.at(l, core).lineAt(set, way)
	switch bit {
	case 0:
		ln.dirty = !ln.dirty
	case 1:
		ln.valid = !ln.valid
	default:
		panic(fmt.Sprintf("cache: FlipDirty bit %d outside status bits [0,1]", bit))
	}
}

// FlipRepl XORs one bit of a line's LRU clock — the replacement-state
// soft-error model. A perturbed clock reorders future victim selection
// (premature eviction of hot lines or retention of dead ones), shifting
// miss patterns without corrupting any stored data.
func (h *Hierarchy) FlipRepl(l Level, core int, set, way uint32, bit int) {
	h.at(l, core).lineAt(set, way).lru ^= 1 << uint(bit)
}

// StampSets starts the per-set last-access record on every array of the
// hierarchy: from now on each access, victim choice, writeback, coherence
// probe and Contains stamps its set with *clock+1, clock being the owner's
// retired-instruction count. Only the golden machine calls it; every other
// hierarchy keeps no stamps, and HierState never carries them.
func (h *Hierarchy) StampSets(clock *uint64) {
	for _, c := range h.all {
		c.stamp, c.clock = make([]uint64, c.cfg.Sets()), clock
	}
}

// SetStamp returns the stamp of one set (see StampSets): 0 when the set was
// never accessed since stamping began. It panics on a hierarchy without
// stamps or an out-of-range coordinate.
func (h *Hierarchy) SetStamp(l Level, core int, set uint32) uint64 {
	return h.at(l, core).stamp[set]
}

// SetStamps returns every stamp in the fault domains' unit order (L1I per
// core, L1D per core, L2), nil on a hierarchy without stamps: the lockstep
// tests compare two hierarchies' records with it.
func (h *Hierarchy) SetStamps() []uint64 {
	var out []uint64
	for _, c := range h.all {
		out = append(out, c.stamp...)
	}
	return out
}

// LineState exposes one line's stored state (tag, valid, dirty, LRU clock)
// for tests and the propagation tracer.
func (h *Hierarchy) LineState(l Level, core int, set, way uint32) (tag uint32, valid, dirty bool, lru uint64) {
	ln := h.at(l, core).lineAt(set, way)
	return ln.tag, ln.valid, ln.dirty, ln.lru
}

// LevelStats sums the per-cache counters of one hierarchy level (all cores
// for L1I/L1D, the single shared array for L2).
func (h *Hierarchy) LevelStats(l Level) Stats {
	var t Stats
	switch l {
	case L1I:
		for _, c := range h.l1i {
			t.add(c.Stats)
		}
	case L1D:
		for _, c := range h.l1d {
			t.add(c.Stats)
		}
	case L2:
		t = h.l2.Stats
	}
	return t
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Writeback += o.Writeback
}

// L1IStats, L1DStats and L2Stats expose per-cache counters.
func (h *Hierarchy) L1IStats(core int) Stats { return h.l1i[core].Stats }

// L1DStats returns the data-cache counters of one core.
func (h *Hierarchy) L1DStats(core int) Stats { return h.l1d[core].Stats }

// L2Stats returns the shared L2 counters.
func (h *Hierarchy) L2Stats() Stats { return h.l2.Stats }

// Fetch models an instruction fetch by core at addr, returning the latency
// in cycles.
func (h *Hierarchy) Fetch(core int, addr uint32) uint32 {
	if hit, _ := h.l1i[core].Access(addr, false); hit {
		return h.cfg.L1Lat
	}
	if hit, _ := h.l2.Access(addr, false); hit {
		return h.cfg.L1Lat + h.cfg.L2Lat
	}
	return h.cfg.L1Lat + h.cfg.L2Lat + h.cfg.MemLat
}

// Data models a data access by core at addr, returning latency in cycles.
// Stores invalidate the line in peer L1Ds (MESI-like write-invalidate).
func (h *Hierarchy) Data(core int, addr uint32, write bool) uint32 {
	lat := h.cfg.L1Lat
	hit, _ := h.l1d[core].Access(addr, write)
	if !hit {
		if h2, _ := h.l2.Access(addr, write); !h2 {
			lat += h.cfg.L2Lat + h.cfg.MemLat
		} else {
			lat += h.cfg.L2Lat
		}
	}
	idx := addr >> h.lineShift
	if int(idx) >= len(h.dir) {
		return lat // MMIO or out-of-RAM address: uncached timing only
	}
	mask := h.dir[idx]
	self := uint8(1) << uint(core)
	if write {
		if peers := mask &^ self; peers != 0 {
			for c := 0; peers != 0; c++ {
				if peers&1 != 0 {
					if p, dirty := h.l1d[c].Invalidate(addr); p {
						h.Invalidations++
						// A dirty line leaving a peer cache on
						// write-invalidate must be written back (its data
						// exists nowhere else in a real hierarchy); the
						// counter previously lost these coherence-induced
						// writebacks and undercounted bus traffic.
						if dirty {
							h.l1d[c].Stats.Writeback++
						}
					}
				}
				peers >>= 1
			}
			lat += h.cfg.CoherencePenalty
		}
		h.dir[idx] = self
	} else {
		h.dir[idx] = mask | self
	}
	return lat
}
