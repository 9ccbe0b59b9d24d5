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
	"fmt"
	"slices"
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
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg}
	c.lines = make([]line, cfg.Sets()*cfg.Ways)
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
	dir       []uint8 // line index -> bitmask of cores with the line in L1D
	lineShift uint32
	// Invalidations counts coherence invalidations of peer L1D lines.
	Invalidations uint64
}

// NewHierarchy builds caches for the given core count over ramSize bytes.
func NewHierarchy(cfg HierConfig, cores int, ramSize uint32) *Hierarchy {
	h := &Hierarchy{cfg: cfg, l2: New(cfg.L2)}
	shift := uint32(0)
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		shift++
	}
	h.lineShift = shift
	h.dir = make([]uint8, ramSize>>shift)
	for i := 0; i < cores; i++ {
		ci, cd := cfg.L1I, cfg.L1D
		ci.Name = fmt.Sprintf("l1i%d", i)
		cd.Name = fmt.Sprintf("l1d%d", i)
		h.l1i = append(h.l1i, New(ci))
		h.l1d = append(h.l1d, New(cd))
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierConfig { return h.cfg }

// cacheState is a copy of one cache's mutable state.
type cacheState struct {
	lines []line
	tick  uint64
	stats Stats
}

func (c *Cache) state() cacheState {
	return cacheState{lines: append([]line(nil), c.lines...), tick: c.tick, stats: c.Stats}
}

func (c *Cache) setState(s cacheState) {
	copy(c.lines, s.lines)
	c.tick = s.tick
	c.Stats = s.stats
}

// HierState is an opaque copy of a Hierarchy's mutable state (line tags, LRU
// clocks, statistics and the coherence directory). Cache state shapes timing,
// and timing shapes interrupt interleaving, so deterministic restore of a
// simulated machine must include it. A HierState is immutable once captured
// and safe to share across goroutines.
type HierState struct {
	l1i, l1d []cacheState
	l2       cacheState
	dir      []uint8
	inval    uint64
}

// State captures the hierarchy's current contents and counters.
func (h *Hierarchy) State() *HierState {
	s := &HierState{
		l2:    h.l2.state(),
		dir:   append([]uint8(nil), h.dir...),
		inval: h.Invalidations,
	}
	for _, c := range h.l1i {
		s.l1i = append(s.l1i, c.state())
	}
	for _, c := range h.l1d {
		s.l1d = append(s.l1d, c.state())
	}
	return s
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
	if len(s.l1i) != len(h.l1i) || len(s.l1d) != len(h.l1d) {
		return false
	}
	eq := func(c *Cache, st cacheState) bool {
		if c.tick != st.tick || c.Stats != st.stats || len(c.lines) != len(st.lines) {
			return false
		}
		for i, l := range c.lines {
			if o := st.lines[i]; l != o && (exact || l.valid || o.valid) {
				return false
			}
		}
		return true
	}
	for i := range h.l1i {
		if !eq(h.l1i[i], s.l1i[i]) || !eq(h.l1d[i], s.l1d[i]) {
			return false
		}
	}
	return eq(h.l2, s.l2) && h.Invalidations == s.inval && slices.Equal(h.dir, s.dir)
}

// SetState restores a previously captured state. The hierarchy must have the
// same geometry and core count as the one the state was captured from.
func (h *Hierarchy) SetState(s *HierState) {
	if len(s.l1i) != len(h.l1i) || len(s.l1d) != len(h.l1d) ||
		len(s.dir) != len(h.dir) || len(s.l2.lines) != len(h.l2.lines) {
		panic("cache: SetState geometry mismatch")
	}
	for i := range h.l1i {
		if len(s.l1i[i].lines) != len(h.l1i[i].lines) || len(s.l1d[i].lines) != len(h.l1d[i].lines) {
			panic("cache: SetState geometry mismatch")
		}
	}
	for i := range h.l1i {
		h.l1i[i].setState(s.l1i[i])
	}
	for i := range h.l1d {
		h.l1d[i].setState(s.l1d[i])
	}
	h.l2.setState(s.l2)
	copy(h.dir, s.dir)
	h.Invalidations = s.inval
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
	for _, c := range h.arrays() {
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
	for _, c := range h.arrays() {
		out = append(out, c.stamp...)
	}
	return out
}

// arrays lists every cache of the hierarchy in the fault domains' unit order.
func (h *Hierarchy) arrays() []*Cache {
	return append(append(append([]*Cache(nil), h.l1i...), h.l1d...), h.l2)
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
