// Package fault is the pluggable fault-space subsystem: it abstracts WHERE
// a transient fault can strike, while internal/fi keeps owning WHEN faults
// are injected and HOW outcomes are classified. A Domain enumerates one
// target space (the architectural register file, data words in guest RAM,
// instruction words, ...), draws uniform (time, location, bit) tuples from
// a seeded stream, and applies a flip to a machine paused at the fault's
// commit boundary.
//
// Seven models ship with the framework, behind four unexported domain types
// (register, burst, memory word, cache metadata); New is the only way in:
//
//   - Reg: the paper's single-bit-upset model over architectural registers
//     (bit-identical to the historical campaigns at the same seed);
//   - Mem: single-bit upsets in data words of guest RAM, restricted to the
//     mapped writable regions of the image (Cho et al.'s uncore/memory-path
//     faults);
//   - IMem: single-bit upsets in instruction words — both ISAs use fixed
//     32-bit encodings, so a corrupted word re-decodes into a different
//     (possibly invalid) instruction rather than desynchronizing fetch;
//   - Burst: 2-4 adjacent-bit multi-bit upsets in one register word,
//     modeling the MBU share of modern technology nodes;
//   - CacheTag / CacheDirty / CacheRepl: the uncore domains — single-bit
//     upsets in the cache hierarchy's tag arrays, status (dirty/valid) bits
//     and replacement (LRU) state, sampled over the live cache geometry
//     (per-core L1I/L1D plus the shared L2). These faults never touch RAM:
//     they manifest only through the timing/placement model — wrong-way
//     hits, spurious writebacks, silent evictions — the soft-error class
//     that architectural-state injectors cannot see at all.
//
// Sampling orders are frozen per domain (documented on each Sample) so that
// fault lists are reproducible across releases, and the Reg order is exactly
// the order the pre-domain injector used.
package fault

import (
	"fmt"
	"math/rand"

	"serfi/internal/cache"
	"serfi/internal/isa"
	"serfi/internal/mach"
	"serfi/internal/mem"
)

// Model identifies a fault domain. The zero value is Reg so that legacy
// fault records and fault literals (which predate the domain axis) keep
// meaning "register single-bit upset".
type Model int

// The shipped fault models.
const (
	Reg Model = iota
	Mem
	IMem
	Burst
	CacheTag
	CacheDirty
	CacheRepl
	NumModels
)

// String renders the CLI/database spelling ("reg", "mem", "imem", "burst",
// "cachetag", "cachedirty", "cacherepl").
func (m Model) String() string {
	switch m {
	case Reg:
		return "reg"
	case Mem:
		return "mem"
	case IMem:
		return "imem"
	case Burst:
		return "burst"
	case CacheTag:
		return "cachetag"
	case CacheDirty:
		return "cachedirty"
	case CacheRepl:
		return "cacherepl"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// ParseModel is the inverse of Model.String.
func ParseModel(s string) (Model, error) {
	for m := Model(0); m < NumModels; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown model %q (want reg|mem|imem|burst|cachetag|cachedirty|cacherepl)", s)
}

// Models returns every shipped model in display order.
func Models() []Model {
	return []Model{Reg, Mem, IMem, Burst, CacheTag, CacheDirty, CacheRepl}
}

// ParseModels expands a -faultmodel flag value: one model name, "uncore"
// for the three cache-hierarchy domains, or "all" for every shipped domain.
func ParseModels(s string) ([]Model, error) {
	switch s {
	case "all":
		return Models(), nil
	case "uncore":
		return []Model{CacheTag, CacheDirty, CacheRepl}, nil
	}
	m, err := ParseModel(s)
	if err != nil {
		return nil, err
	}
	return []Model{m}, nil
}

// Point is one sampled fault: a (time, location, bit) tuple plus the domain
// that drew it. Index counts committed instructions from the start of the
// application lifespan; the location is Core/Reg for register-file domains
// and Addr (a word-aligned physical address) for memory domains. Width is
// the number of adjacent bits flipped; 0 and 1 both mean a single-bit upset
// so that legacy Point literals behave unchanged.
//
// The cache domains reuse the fields as (Level, Core, Addr=set, Reg=way,
// Bit): Level is the cache.Level of the struck array, Core the owning core
// (ignored at L2), and the line coordinate is the (set, way) slot. Level is
// zero for every non-cache domain, so legacy Point literals and recorded
// fault tuples are unchanged.
type Point struct {
	Domain Model
	Index  uint64
	Core   int
	Reg    int
	Addr   uint32
	Bit    int
	Width  int
	Level  int
}

// Mask returns the flip mask implied by Bit and Width.
func (p Point) Mask() uint64 {
	w := p.Width
	if w < 1 {
		w = 1
	}
	return ((uint64(1) << uint(w)) - 1) << uint(p.Bit)
}

// String renders the tuple; the Reg form is the historical injector format.
// Format with a populated Env adds the scenario's naming on top.
func (p Point) String() string { return p.Format(Env{}) }

// Format renders the tuple domain-aware and human-readable, using whatever
// naming the environment carries: register-file points name the struck
// register (sp/lr/pc where the ISA features identify one, matching
// isa.Disasm), memory and instruction-memory points annotate the address
// with the containing mapped region and offset, and cache points name the
// struck array as (level, set, way) plus the metadata kind. A zero Env
// yields exactly the historical String output, so recorded logs and pinned
// test expectations are unchanged.
func (p Point) Format(env Env) string {
	switch p.Domain {
	case Mem:
		return fmt.Sprintf("i=%d mem[%#x%s] bit=%d", p.Index, p.Addr, regionSuffix(env.Regions, p.Addr), p.Bit)
	case IMem:
		return fmt.Sprintf("i=%d imem[%#x%s] bit=%d", p.Index, p.Addr, regionSuffix(env.Regions, p.Addr), p.Bit)
	case Burst:
		return fmt.Sprintf("i=%d core=%d %s bit=%d width=%d", p.Index, p.Core, RegisterName(env.Feat, p.Reg), p.Bit, p.Width)
	case CacheTag, CacheDirty, CacheRepl:
		array := cache.Level(p.Level).String()
		if cache.Level(p.Level) != cache.L2 {
			array = fmt.Sprintf("%s%d", array, p.Core)
		}
		kind := "tag"
		switch p.Domain {
		case CacheDirty:
			kind = "status"
		case CacheRepl:
			kind = "lru"
		}
		return fmt.Sprintf("i=%d %s[set=%d way=%d] %s bit=%d", p.Index, array, p.Addr, p.Reg, kind, p.Bit)
	}
	return fmt.Sprintf("i=%d core=%d %s bit=%d", p.Index, p.Core, RegisterName(env.Feat, p.Reg), p.Bit)
}

// RegisterName names a register index under the ISA's conventions — the same
// sp/lr/pc mapping isa.Disasm uses — falling back to the bare r%d form
// when the features carry no register file (the zero Env).
func RegisterName(f isa.Features, r int) string {
	switch {
	case f.NumGPR == 0:
		// No ISA attached: keep the historical spelling.
	case r == f.SPIndex:
		return "sp"
	case r == f.LRIndex:
		return "lr"
	case f.PCTarget && r == f.NumGPR-1:
		return "pc"
	}
	return fmt.Sprintf("r%d", r)
}

// regionSuffix annotates an address with its containing mapped region
// (" name+offset"), or nothing when the region table has no answer.
func regionSuffix(regions []mem.Region, addr uint32) string {
	for _, r := range regions {
		if r.Contains(addr) {
			return fmt.Sprintf(" %s+%#x", r.Name, addr-r.Start)
		}
	}
	return ""
}

// Env describes the scenario-derived target space a domain samples from:
// the ISA's register-file shape, the core count, the application lifespan
// length in committed instructions, and the image's mapped region table
// (memory domains restrict themselves to mapped regions through it).
type Env struct {
	Feat    isa.Features
	Cores   int
	Span    uint64
	Regions []mem.Region
	// Cache is the hierarchy geometry the uncore domains sample over
	// (per-core L1I/L1D plus the shared L2, sets x ways from each level's
	// Config). The zero value carries no geometry and rejects cache domains
	// at New; the four architectural domains ignore it entirely, so their
	// sampling streams are unchanged by its presence.
	Cache cache.HierConfig
}

// Domain is one pluggable fault space.
type Domain interface {
	// Model identifies the domain.
	Model() Model
	// Size returns the number of distinct (time, location, bit) tuples in
	// the target space; fault-list deduplication stops once a campaign has
	// exhausted it.
	Size() uint64
	// Sample draws one uniform point. The draw order per domain is frozen:
	// identical seeds yield identical fault lists across releases.
	Sample(r *rand.Rand) Point
	// Apply flips the point's bits on a machine paused while committing the
	// point's instruction. The injector is god-mode: it bypasses permission
	// checks exactly like a particle strike would.
	Apply(m *mach.Machine, p Point)
}

// New builds the domain for one model over one scenario's environment.
func New(model Model, env Env) (Domain, error) {
	if env.Span == 0 {
		return nil, fmt.Errorf("fault: %s: empty application lifespan", model)
	}
	switch model {
	case Reg, Burst:
		if env.Cores < 1 || env.Feat.FaultTargets < 1 {
			return nil, fmt.Errorf("fault: %s: no register targets (cores=%d targets=%d)",
				model, env.Cores, env.Feat.FaultTargets)
		}
		bits := env.Feat.WordBytes * 8
		if model == Burst {
			if bits < maxBurst {
				return nil, fmt.Errorf("fault: burst: %d-bit words too narrow", bits)
			}
			return &burstDomain{regSpace: regSpace{feat: env.Feat, cores: env.Cores, span: env.Span}}, nil
		}
		return &regDomain{regSpace: regSpace{feat: env.Feat, cores: env.Cores, span: env.Span}}, nil
	case Mem, IMem:
		perm, kind := mem.PermW, "writable"
		if model == IMem {
			perm, kind = mem.PermX, "executable"
		}
		words := wordRanges(env.Regions, perm)
		if len(words) == 0 {
			return nil, fmt.Errorf("fault: %s: no mapped %s regions", model, kind)
		}
		return &memDomain{model: model, span: env.Span, words: words}, nil
	case CacheTag, CacheDirty, CacheRepl:
		if env.Cores < 1 {
			return nil, fmt.Errorf("fault: %s: no cores", model)
		}
		for l := cache.Level(0); l < cache.NumLevels; l++ {
			if err := env.Cache.LevelConfig(l).Validate(); err != nil {
				return nil, fmt.Errorf("fault: %s: no cache geometry: %w", model, err)
			}
		}
		return &cacheDomain{model: model, span: env.Span, cores: env.Cores, cfg: env.Cache}, nil
	}
	return nil, fmt.Errorf("fault: unknown model %d", int(model))
}

// regSpace is the shared target space of the register-file domains.
type regSpace struct {
	feat  isa.Features
	cores int
	span  uint64
}

// flip xors mask into the point's register, honoring the v7 PC-as-r15
// special case and the ISA word width.
func (s *regSpace) flip(m *mach.Machine, p Point, mask uint64) {
	c := &m.Cores[p.Core]
	if s.feat.PCTarget && p.Reg == s.feat.NumGPR-1 {
		c.PC ^= mask
		if s.feat.WordBytes == 4 {
			c.PC &= 0xffffffff
		}
		return
	}
	c.Regs[p.Reg] ^= mask
	if s.feat.WordBytes == 4 {
		c.Regs[p.Reg] &= 0xffffffff
	}
}

// regDomain is the paper's register single-bit-upset model. Its sampling
// order (instruction index, core, register, bit) and flip semantics are
// bit-identical to the pre-domain injector.
type regDomain struct{ regSpace }

// Model identifies the domain.
func (d *regDomain) Model() Model { return Reg }

// Size counts span x cores x registers x word bits.
func (d *regDomain) Size() uint64 {
	return d.span * uint64(d.cores) * uint64(d.feat.FaultTargets) * uint64(d.feat.WordBytes*8)
}

// Sample draws index, core, register, bit — the frozen legacy order.
func (d *regDomain) Sample(r *rand.Rand) Point {
	return Point{
		Index: uint64(r.Int63n(int64(d.span))),
		Core:  r.Intn(d.cores),
		Reg:   r.Intn(d.feat.FaultTargets),
		Bit:   r.Intn(d.feat.WordBytes * 8),
	}
}

// Apply flips one register bit.
func (d *regDomain) Apply(m *mach.Machine, p Point) { d.flip(m, p, p.Mask()) }

// Burst widths: 2 to maxBurst adjacent bits.
const (
	minBurst = 2
	maxBurst = 4
)

// burstDomain flips 2-4 adjacent bits of one register word — the multi-bit
// upset mix of modern technology nodes, where a single strike upsets
// neighboring cells.
type burstDomain struct{ regSpace }

// Model identifies the domain.
func (d *burstDomain) Model() Model { return Burst }

// Size counts the distinct (index, core, register, start bit, width)
// tuples: a width-w burst can start at bits-w+1 positions.
func (d *burstDomain) Size() uint64 {
	bits := d.feat.WordBytes * 8
	starts := 0
	for w := minBurst; w <= maxBurst; w++ {
		starts += bits - w + 1
	}
	return d.span * uint64(d.cores) * uint64(d.feat.FaultTargets) * uint64(starts)
}

// Sample draws index, core, register, width, start bit (frozen order). The
// start bit is bounded so the whole burst stays inside the register word.
func (d *burstDomain) Sample(r *rand.Rand) Point {
	bits := d.feat.WordBytes * 8
	w := minBurst + r.Intn(maxBurst-minBurst+1)
	return Point{
		Domain: Burst,
		Index:  uint64(r.Int63n(int64(d.span))),
		Core:   r.Intn(d.cores),
		Reg:    r.Intn(d.feat.FaultTargets),
		Width:  w,
		Bit:    r.Intn(bits - w + 1),
	}
}

// Apply flips the burst's adjacent bits in one register.
func (d *burstDomain) Apply(m *mach.Machine, p Point) { d.flip(m, p, p.Mask()) }

// wordRange is one run of 32-bit words inside a mapped region.
type wordRange struct {
	start uint32 // word-aligned first byte
	words uint64
}

// wordRanges collects the word-aligned spans of every region carrying perm.
func wordRanges(regions []mem.Region, perm mem.Perm) []wordRange {
	var out []wordRange
	for _, r := range regions {
		if r.Perm&perm == 0 {
			continue
		}
		start := (r.Start + 3) &^ 3
		end := r.End &^ 3
		if end > start {
			out = append(out, wordRange{start: start, words: uint64(end-start) / 4})
		}
	}
	return out
}

// memDomain strikes one 32-bit word across the selected region spans.
// Memory is byte-addressed on both ISAs, so a fixed 32-bit word granularity
// keeps the space ISA-independent. The model picks the regions:
//
//   - Mem: data words in guest RAM, the mapped writable regions (kernel data,
//     user data, heap, stacks). The flip lands in physical RAM directly — the
//     cache hierarchy is a timing model, architectural data always flows
//     through RAM — so a corrupted word is visible to the next load exactly
//     like an uncore fault that escaped ECC.
//   - IMem: instruction words in the mapped executable regions (kernel and
//     user text). Both ISAs use fixed 32-bit encodings, so the corrupted word
//     simply re-decodes — into a neighboring opcode, a different operand, or
//     an invalid instruction that traps — without desynchronizing the fetch
//     stream. Text is read-only to the guest, so the flip persists for the
//     rest of the run: an IMem fault can change architectural state forever
//     even when it never alters the output.
type memDomain struct {
	model Model
	span  uint64
	words []wordRange
}

// totalWords sums the selected spans.
func (d *memDomain) totalWords() uint64 {
	var n uint64
	for _, wr := range d.words {
		n += wr.words
	}
	return n
}

// addrOf maps a uniform word ordinal onto its physical address.
func (d *memDomain) addrOf(ordinal uint64) uint32 {
	for _, wr := range d.words {
		if ordinal < wr.words {
			return wr.start + uint32(ordinal)*4
		}
		ordinal -= wr.words
	}
	// Unreachable for ordinals < totalWords.
	panic("fault: word ordinal outside target space")
}

// Model identifies the domain.
func (d *memDomain) Model() Model { return d.model }

// Size counts span x target words x 32 bits.
func (d *memDomain) Size() uint64 { return d.span * d.totalWords() * 32 }

// Sample draws index, word ordinal, bit (frozen order shared by Mem/IMem).
func (d *memDomain) Sample(r *rand.Rand) Point {
	return Point{
		Domain: d.model,
		Index:  uint64(r.Int63n(int64(d.span))),
		Addr:   d.addrOf(uint64(r.Int63n(int64(d.totalWords())))),
		Bit:    r.Intn(32),
	}
}

// Apply flips the addressed word and drops any cached decode covering it, so
// the next fetch re-decodes a corrupted instruction. Real images map text
// read-only so a data-word strike never lands there, but a region mapped both
// writable and executable (self-hosted test kernels do this) makes a data
// word an instruction word too.
func (d *memDomain) Apply(m *mach.Machine, p Point) {
	m.Mem.WriteU32(p.Addr, m.Mem.ReadU32(p.Addr)^uint32(p.Mask()))
	m.InvalidateText(p.Addr, 4)
}

// statusBits is the per-line status-bit count of the CacheDirty domain:
// bit 0 is the dirty flag, bit 1 the valid flag.
const statusBits = 2

// replBits is the sampled low-bit window of a line's 64-bit LRU clock.
// The clock is a monotonically increasing access tick; flips above the low
// 16 bits would push a line's apparent recency outside any realistic tick
// range and all behave identically ("never/always the victim"), so the
// sample space covers only the bits that produce distinct orderings at
// workload scale.
const replBits = 16

// cacheDomain strikes one metadata bit of a line slot: every line slot of
// the live hierarchy geometry, in the frozen unit order L1I core 0..C-1, L1D
// core 0..C-1, then the shared L2. The model picks the array and with it the
// bit width (tag bits, status bits or the LRU window):
//
//   - CacheTag: the tag arrays. A flipped tag silently evicts live data from
//     the timing model's view (the next lookup of the original address
//     misses) or aliases a wrong line address into a spurious hit; RAM is
//     never corrupted, so the fault is invisible to architectural comparison
//     and manifests only through timing and coherence.
//   - CacheDirty: the per-line status bits. A toggled dirty bit produces a
//     spurious writeback (or loses a real one), a toggled valid bit drops a
//     live line (or resurrects a stale slot).
//   - CacheRepl: one bit of a line's LRU clock. Victim selection reorders —
//     hot lines evict early, dead lines linger — shifting miss patterns and
//     therefore timing, without touching any stored data or tag.
type cacheDomain struct {
	model Model
	span  uint64
	cores int
	cfg   cache.HierConfig
}

// levelLines counts the line slots of one cache array at the given level.
func (d *cacheDomain) levelLines(l cache.Level) uint64 {
	c := d.cfg.LevelConfig(l)
	return uint64(c.Sets()) * uint64(c.Ways)
}

// totalLines counts line slots across every unit of the hierarchy.
func (d *cacheDomain) totalLines() uint64 {
	return (d.levelLines(cache.L1I)+d.levelLines(cache.L1D))*uint64(d.cores) +
		d.levelLines(cache.L2)
}

// bitsFor is the flippable-bit count per line for this domain at one level.
func (d *cacheDomain) bitsFor(l cache.Level) int {
	switch d.model {
	case CacheTag:
		return d.cfg.LevelConfig(l).TagBits()
	case CacheDirty:
		return statusBits
	default:
		return replBits
	}
}

// locate maps a uniform line ordinal onto its (level, core, set, way) slot
// by walking the frozen unit order, mirroring memDomain.addrOf.
func (d *cacheDomain) locate(ordinal uint64) (l cache.Level, core int, set, way uint32) {
	for _, lvl := range []cache.Level{cache.L1I, cache.L1D} {
		per := d.levelLines(lvl)
		for c := 0; c < d.cores; c++ {
			if ordinal < per {
				ways := uint64(d.cfg.LevelConfig(lvl).Ways)
				return lvl, c, uint32(ordinal / ways), uint32(ordinal % ways)
			}
			ordinal -= per
		}
	}
	if ordinal >= d.levelLines(cache.L2) {
		// Unreachable for ordinals < totalLines.
		panic("fault: cache line ordinal outside target space")
	}
	ways := uint64(d.cfg.L2.Ways)
	return cache.L2, 0, uint32(ordinal / ways), uint32(ordinal % ways)
}

// Model identifies the domain.
func (d *cacheDomain) Model() Model { return d.model }

// Size counts span x Σ(unit lines x unit bits).
func (d *cacheDomain) Size() uint64 {
	perCore := d.levelLines(cache.L1I)*uint64(d.bitsFor(cache.L1I)) +
		d.levelLines(cache.L1D)*uint64(d.bitsFor(cache.L1D))
	return d.span * (perCore*uint64(d.cores) + d.levelLines(cache.L2)*uint64(d.bitsFor(cache.L2)))
}

// Sample draws index, line ordinal, bit (frozen order shared by the three
// uncore models). The ordinal is uniform over line slots; the bit draw is
// bounded by the struck level's bit width, so tuples are uniform over the
// whole (line, bit) space when every level shares one line size (they do in
// every shipped configuration) and uniform per level otherwise.
func (d *cacheDomain) Sample(r *rand.Rand) Point {
	idx := uint64(r.Int63n(int64(d.span)))
	lvl, core, set, way := d.locate(uint64(r.Int63n(int64(d.totalLines()))))
	return Point{
		Domain: d.model,
		Index:  idx,
		Level:  int(lvl),
		Core:   core,
		Addr:   set,
		Reg:    int(way),
		Bit:    r.Intn(d.bitsFor(lvl)),
	}
}

// Apply flips the sampled bit of the struck line in the domain's array.
func (d *cacheDomain) Apply(m *mach.Machine, p Point) {
	l, set, way := cache.Level(p.Level), p.Addr, uint32(p.Reg)
	switch d.model {
	case CacheTag:
		m.Hier.FlipTag(l, p.Core, set, way, p.Bit)
	case CacheDirty:
		m.Hier.FlipDirty(l, p.Core, set, way, p.Bit)
	default:
		m.Hier.FlipRepl(l, p.Core, set, way, p.Bit)
	}
}
