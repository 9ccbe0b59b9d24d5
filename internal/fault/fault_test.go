package fault_test

import (
	"math/rand"
	"testing"

	"serfi/internal/cache"
	"serfi/internal/fault"
	"serfi/internal/isa"
	"serfi/internal/isa/armv8"
	"serfi/internal/mach"
	"serfi/internal/mem"
	"serfi/internal/npb"
)

func testEnv(t *testing.T) (fault.Env, *mach.Machine) {
	t.Helper()
	img, cfg, err := npb.BuildScenario(npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := mach.New(cfg)
	img.InstallTo(m)
	return fault.Env{
		Feat:    cfg.ISA.Feat(),
		Cores:   cfg.Cores,
		Span:    100_000,
		Regions: img.Regions,
		Cache:   cfg.Cache,
	}, m
}

func TestModelParseRoundTrip(t *testing.T) {
	for _, m := range fault.Models() {
		got, err := fault.ParseModel(m.String())
		if err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := fault.ParseModel("cosmic"); err == nil {
		t.Error("unknown model accepted")
	}
	if fault.Model(0) != fault.Reg {
		t.Error("zero model must be the legacy register domain")
	}
}

// TestRegSampleMatchesLegacyOrder freezes the Reg draw order to the exact
// sequence the pre-domain injector used: index, core, register, bit from
// one shared stream.
func TestRegSampleMatchesLegacyOrder(t *testing.T) {
	env, _ := testEnv(t)
	env.Cores = 4
	d, err := fault.New(fault.Reg, env)
	if err != nil {
		t.Fatal(err)
	}
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		got := d.Sample(a)
		want := fault.Point{
			Index: uint64(b.Int63n(int64(env.Span))),
			Core:  b.Intn(env.Cores),
			Reg:   b.Intn(env.Feat.FaultTargets),
			Bit:   b.Intn(env.Feat.WordBytes * 8),
		}
		if got != want {
			t.Fatalf("draw %d: %+v != legacy %+v", i, got, want)
		}
	}
}

func TestSampleRanges(t *testing.T) {
	env, m := testEnv(t)
	writable := func(addr uint32) bool {
		r := m.Mem.FindRegion(addr)
		return r != nil && r.Perm&mem.PermW != 0
	}
	executable := func(addr uint32) bool {
		r := m.Mem.FindRegion(addr)
		return r != nil && r.Perm&mem.PermX != 0
	}
	for _, model := range fault.Models() {
		d, err := fault.New(model, env)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if d.Model() != model {
			t.Fatalf("%s: Model() = %v", model, d.Model())
		}
		if d.Size() == 0 {
			t.Fatalf("%s: empty target space", model)
		}
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 2000; i++ {
			p := d.Sample(r)
			if p.Index >= env.Span {
				t.Fatalf("%s: index %d outside lifespan", model, p.Index)
			}
			switch model {
			case fault.Reg:
				if p.Reg >= env.Feat.FaultTargets || p.Bit >= env.Feat.WordBytes*8 {
					t.Fatalf("reg target out of range: %+v", p)
				}
			case fault.Burst:
				if p.Width < 2 || p.Width > 4 {
					t.Fatalf("burst width %d", p.Width)
				}
				if p.Bit+p.Width > env.Feat.WordBytes*8 {
					t.Fatalf("burst overflows the word: %+v", p)
				}
			case fault.Mem:
				if p.Addr%4 != 0 || !writable(p.Addr) || p.Bit >= 32 {
					t.Fatalf("mem target outside writable regions: %+v", p)
				}
			case fault.IMem:
				if p.Addr%4 != 0 || !executable(p.Addr) || p.Bit >= 32 {
					t.Fatalf("imem target outside executable regions: %+v", p)
				}
			case fault.CacheTag, fault.CacheDirty, fault.CacheRepl:
				lvl := cache.Level(p.Level)
				if lvl < 0 || lvl >= cache.NumLevels {
					t.Fatalf("%s: bad level: %+v", model, p)
				}
				geo := env.Cache.LevelConfig(lvl)
				if p.Addr >= geo.Sets() || p.Reg < 0 || uint32(p.Reg) >= geo.Ways {
					t.Fatalf("%s: line outside %dx%d geometry: %+v", model, geo.Sets(), geo.Ways, p)
				}
				if lvl == cache.L2 {
					if p.Core != 0 {
						t.Fatalf("%s: L2 point names core %d: %+v", model, p.Core, p)
					}
				} else if p.Core < 0 || p.Core >= env.Cores {
					t.Fatalf("%s: core out of range: %+v", model, p)
				}
				maxBit := geo.TagBits()
				switch model {
				case fault.CacheDirty:
					maxBit = 2
				case fault.CacheRepl:
					maxBit = 16
				}
				if p.Bit < 0 || p.Bit >= maxBit {
					t.Fatalf("%s: bit outside [0,%d): %+v", model, maxBit, p)
				}
			}
		}
	}
}

func TestApplyFlipsExactBits(t *testing.T) {
	env, m := testEnv(t)

	// Reg: one bit of r5.
	reg, _ := fault.New(fault.Reg, env)
	before := m.Cores[0].Regs[5]
	reg.Apply(m, fault.Point{Core: 0, Reg: 5, Bit: 17})
	if m.Cores[0].Regs[5] != before^(1<<17) {
		t.Error("reg apply did not flip bit 17")
	}

	// Burst: three adjacent bits.
	burst, _ := fault.New(fault.Burst, env)
	before = m.Cores[0].Regs[9]
	burst.Apply(m, fault.Point{Domain: fault.Burst, Core: 0, Reg: 9, Bit: 4, Width: 3})
	if m.Cores[0].Regs[9] != before^(0b111<<4) {
		t.Error("burst apply did not flip bits [4,7)")
	}

	// Mem: one bit of a heap word.
	memd, _ := fault.New(fault.Mem, env)
	var heap *mem.Region
	for i := range env.Regions {
		if env.Regions[i].Name == "heap" {
			heap = &env.Regions[i]
		}
	}
	if heap == nil {
		t.Fatal("image has no heap region")
	}
	addr := heap.Start
	beforeW := m.Mem.ReadU32(addr)
	memd.Apply(m, fault.Point{Domain: fault.Mem, Addr: addr, Bit: 9})
	if m.Mem.ReadU32(addr) != beforeW^(1<<9) {
		t.Error("mem apply did not flip heap word bit 9")
	}

	// IMem: flips the instruction word and the next decode sees it.
	imem, _ := fault.New(fault.IMem, env)
	var text *mem.Region
	for i := range env.Regions {
		if env.Regions[i].Name == "utext" {
			text = &env.Regions[i]
		}
	}
	if text == nil {
		t.Fatal("image has no utext region")
	}
	beforeW = m.Mem.ReadU32(text.Start)
	imem.Apply(m, fault.Point{Domain: fault.IMem, Addr: text.Start, Bit: 0})
	if m.Mem.ReadU32(text.Start) != beforeW^1 {
		t.Error("imem apply did not flip the instruction word")
	}
}

// TestApplyV7PCTarget covers the v7 special case: register 15 is the PC.
func TestApplyV7PCTarget(t *testing.T) {
	img, cfg, err := npb.BuildScenario(npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv7", Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := mach.New(cfg)
	img.InstallTo(m)
	env := fault.Env{Feat: cfg.ISA.Feat(), Cores: 1, Span: 1000, Regions: img.Regions}
	d, err := fault.New(fault.Reg, env)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Cores[0].PC
	d.Apply(m, fault.Point{Core: 0, Reg: 15, Bit: 8})
	if m.Cores[0].PC != (before^(1<<8))&0xffffffff {
		t.Errorf("v7 r15 flip did not hit the PC: %#x -> %#x", before, m.Cores[0].PC)
	}
}

func TestSizeCountsTargetSpace(t *testing.T) {
	env, _ := testEnv(t)
	env.Span = 10
	env.Cores = 2
	reg, _ := fault.New(fault.Reg, env)
	bits := uint64(env.Feat.WordBytes * 8)
	if want := 10 * 2 * uint64(env.Feat.FaultTargets) * bits; reg.Size() != want {
		t.Errorf("reg size = %d, want %d", reg.Size(), want)
	}
	burst, _ := fault.New(fault.Burst, env)
	starts := (bits - 1) + (bits - 2) + (bits - 3)
	if want := 10 * 2 * uint64(env.Feat.FaultTargets) * starts; burst.Size() != want {
		t.Errorf("burst size = %d, want %d", burst.Size(), want)
	}
	memd, _ := fault.New(fault.Mem, env)
	if memd.Size()%(10*32) != 0 {
		t.Errorf("mem size %d is not span x words x 32", memd.Size())
	}
}

func TestNewRejectsEmptySpaces(t *testing.T) {
	env, _ := testEnv(t)
	bad := env
	bad.Span = 0
	if _, err := fault.New(fault.Reg, bad); err == nil {
		t.Error("zero lifespan accepted")
	}
	bad = env
	bad.Regions = nil
	if _, err := fault.New(fault.Mem, bad); err == nil {
		t.Error("mem domain without regions accepted")
	}
	if _, err := fault.New(fault.IMem, bad); err == nil {
		t.Error("imem domain without regions accepted")
	}
	bad = env
	bad.Cache = cache.HierConfig{}
	if _, err := fault.New(fault.CacheTag, bad); err == nil {
		t.Error("cachetag domain without cache geometry accepted")
	}
}

// flipBit returns the single differing bit position of two encodings,
// failing the test if they differ in more than one bit.
func flipBit(t *testing.T, a, b uint32) int {
	t.Helper()
	x := a ^ b
	if x == 0 || x&(x-1) != 0 {
		t.Fatalf("encodings %#x and %#x do not differ in exactly one bit", a, b)
	}
	bit := 0
	for x>>1 != 0 {
		x >>= 1
		bit++
	}
	return bit
}

// TestIMemApplyFirstAndLastTextWord is the regression test for the
// unaligned/off-end edges of the imem domain's decode invalidation: a
// flip at the very first and at the very last cached text word — with a
// warm decode/block cache, and with text limits that exercise the
// limit/4+1 slot rounding — must re-decode on the next fetch (never
// dispatch the stale pre-flip instruction) and must not index out of
// range. Ground truth is a cold machine whose RAM carried the flipped
// words from the start.
func TestIMemApplyFirstAndLastTextWord(t *testing.T) {
	codec := armv8.New()
	al := func(ins isa.Instr) isa.Instr { ins.Cond = isa.CondAL; return ins }
	enc := func(ins isa.Instr) uint32 {
		w, err := codec.Encode(ins)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// 16-word program: 15 increments then a halt in the last text word.
	var words []uint32
	for i := 0; i < 15; i++ {
		words = append(words, enc(al(isa.Instr{Op: isa.OpADDI, Rd: 1, Rn: 1, Imm: 1})))
	}
	words = append(words, enc(al(isa.Instr{Op: isa.OpHALT})))
	progEnd := uint32(len(words) * 4)

	// The flip turns the first ADDI's immediate from 1 into 3: a stale
	// decode keeps adding 1, the re-decoded word adds 3.
	firstBit := flipBit(t, words[0], enc(al(isa.Instr{Op: isa.OpADDI, Rd: 1, Rn: 1, Imm: 3})))
	// The flip in the last word turns HALT into whatever the corrupted
	// encoding decodes to; both machines must agree on the outcome.
	lastBit := 3

	build := func(flipped bool, limit uint32) *mach.Machine {
		m := mach.New(mach.Config{ISA: codec, Cores: 1, RAMBytes: 1 << 20, Cache: cache.DefaultConfig()})
		m.Map(mem.Region{Name: "text", Start: 0, End: 0x1000, Perm: mem.PermR | mem.PermW | mem.PermX})
		m.Map(mem.Region{Name: "data", Start: 0x1000, End: 0x2000, Perm: mem.PermR | mem.PermW})
		for i, w := range words {
			m.Mem.WriteU32(uint32(i*4), w)
		}
		if flipped {
			m.Mem.WriteU32(0, words[0]^uint32(1)<<firstBit)
			m.Mem.WriteU32(progEnd-4, words[len(words)-1]^uint32(1)<<lastBit)
		}
		m.SetTextLimit(limit)
		m.SetEntry(0)
		return m
	}

	dom, err := fault.New(fault.IMem, fault.Env{
		Feat: codec.Feat(), Cores: 1, Span: 1,
		Regions: []mem.Region{{Name: "text", Start: 0, End: 0x1000, Perm: mem.PermR | mem.PermX}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Text limits: exactly the program, program+2 (odd tail slot), and the
	// whole region (flips land mid-cache).
	for _, limit := range []uint32{progEnd, progEnd + 2, 0x1000} {
		// Warm every decode and block run, then strike first + last words.
		warm := build(false, limit)
		if r := warm.Run(0); r != mach.StopHalted {
			t.Fatalf("limit %#x: warm run stop = %v", limit, r)
		}
		dom.Apply(warm, fault.Point{Domain: fault.IMem, Addr: 0, Bit: firstBit})
		dom.Apply(warm, fault.Point{Domain: fault.IMem, Addr: progEnd - 4, Bit: lastBit})
		// The very last cached slot (limit/4+1 rounding): applying at the
		// final word below the limit must stay in bounds even when that
		// word is past the program.
		dom.Apply(warm, fault.Point{Domain: fault.IMem, Addr: (limit - 1) &^ 3, Bit: 0})
		dom.Apply(warm, fault.Point{Domain: fault.IMem, Addr: (limit - 1) &^ 3, Bit: 0}) // flip back
		warm.Cores[0].Regs[1] = 0
		warm.SetEntry(0)
		warm.Halted = false
		wr := warm.Run(200_000)

		cold := build(true, limit)
		cr := cold.Run(200_000)
		if wr != cr {
			t.Fatalf("limit %#x: stop warm=%v cold=%v", limit, wr, cr)
		}
		if got, want := warm.Cores[0].Regs[1], cold.Cores[0].Regs[1]; got != want {
			t.Errorf("limit %#x: r1 warm=%d cold=%d (stale decode after imem flip)", limit, got, want)
		}
		if warm.Halted != cold.Halted || warm.Cores[0].PC != cold.Cores[0].PC {
			t.Errorf("limit %#x: end state diverged (halted %v/%v pc %#x/%#x)",
				limit, warm.Halted, cold.Halted, warm.Cores[0].PC, cold.Cores[0].PC)
		}
	}
}

// TestMemApplyInvalidatesWritableText pins the companion fix: a data-word
// strike (Mem domain) landing in a region mapped writable+executable must
// also drop the cached decode, exactly like a guest store there would.
func TestMemApplyInvalidatesWritableText(t *testing.T) {
	codec := armv8.New()
	al := func(ins isa.Instr) isa.Instr { ins.Cond = isa.CondAL; return ins }
	enc := func(ins isa.Instr) uint32 {
		w, err := codec.Encode(ins)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	words := []uint32{
		enc(al(isa.Instr{Op: isa.OpADDI, Rd: 1, Rn: 1, Imm: 1})),
		enc(al(isa.Instr{Op: isa.OpHALT})),
	}
	bit := flipBit(t, words[0], enc(al(isa.Instr{Op: isa.OpADDI, Rd: 1, Rn: 1, Imm: 3})))
	m := mach.New(mach.Config{ISA: codec, Cores: 1, RAMBytes: 1 << 20, Cache: cache.DefaultConfig()})
	m.Map(mem.Region{Name: "rwx", Start: 0, End: 0x1000, Perm: mem.PermR | mem.PermW | mem.PermX})
	for i, w := range words {
		m.Mem.WriteU32(uint32(i*4), w)
	}
	m.SetTextLimit(0x1000)
	m.SetEntry(0)
	if r := m.Run(0); r != mach.StopHalted {
		t.Fatalf("warm run stop = %v", r)
	}
	dom, err := fault.New(fault.Mem, fault.Env{
		Feat: codec.Feat(), Cores: 1, Span: 1,
		Regions: []mem.Region{{Name: "rwx", Start: 0, End: 0x1000, Perm: mem.PermR | mem.PermW | mem.PermX}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dom.Apply(m, fault.Point{Domain: fault.Mem, Addr: 0, Bit: bit})
	m.Cores[0].Regs[1] = 0
	m.SetEntry(0)
	m.Halted = false
	if r := m.Run(200_000); r != mach.StopHalted {
		t.Fatalf("post-flip run stop = %v", r)
	}
	if got := m.Cores[0].Regs[1]; got != 3 {
		t.Errorf("r1 = %d after mem-domain flip in rwx text, want 3 (stale decode)", got)
	}
}

// TestApplyMarksPagesDirty pins the tentpole requirement that fault-domain
// Apply participates in dirty-page tracking: because Apply mutates RAM only
// through the mem accessors, a delta snapshot taken right after an injection
// captures exactly the flipped page, and restoring the pre-fault snapshot
// reverts the flip. Without the dirty bit, a copy-on-write checkpoint taken
// downstream of an injection would silently drop the fault.
func TestApplyMarksPagesDirty(t *testing.T) {
	env, m := testEnv(t)
	var heap *mem.Region
	for i := range env.Regions {
		if env.Regions[i].Name == "heap" {
			heap = &env.Regions[i]
		}
	}
	if heap == nil {
		t.Fatal("image has no heap region")
	}
	pre := m.Snapshot() // re-anchors dirty tracking

	memd, _ := fault.New(fault.Mem, env)
	addr := heap.Start + 3*mem.PageBytes + 128
	want := m.Mem.ReadU32(addr) ^ (1 << 21)
	memd.Apply(m, fault.Point{Domain: fault.Mem, Addr: addr, Bit: 21})

	delta := m.DeltaSnapshot()
	if delta.Mem().Depth() == 0 {
		t.Fatal("delta did not chain to the pre-fault snapshot")
	}
	if delta.MemBytes() == 0 {
		t.Fatal("Apply left no dirty page for the delta to capture")
	}
	if delta.MemBytes() > 2*mem.PageBytes {
		t.Errorf("one injected word dirtied %d bytes of delta, want at most two pages", delta.MemBytes())
	}
	fresh := mach.New(testCfg(t))
	fresh.Restore(delta)
	if got := fresh.Mem.ReadU32(addr); got != want {
		t.Errorf("delta lost the injected flip: %#x, want %#x", got, want)
	}

	m.Restore(pre)
	if got := fresh.Mem.ReadU32(addr); got != want {
		t.Errorf("restore mutated the captured delta: %#x", got)
	}
	if got := m.Mem.ReadU32(addr); got != want^(1<<21) {
		t.Errorf("pre-fault restore did not revert the flip: %#x", got)
	}
}

// testCfg rebuilds the scenario config testEnv used (Apply tests need a
// second machine of the same shape).
func testCfg(t *testing.T) mach.Config {
	t.Helper()
	_, cfg, err := npb.BuildScenario(npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestArchDomainsIgnoreCacheGeometry pins that extending Env with cache
// geometry did not perturb the four pre-existing architectural domains: their
// frozen draw orders must be bit-identical whether or not Env.Cache is set.
// This is the compatibility contract that keeps every pinned campaign (PR 1/
// PR 2 seeds) byte-stable across the uncore-domain addition.
func TestArchDomainsIgnoreCacheGeometry(t *testing.T) {
	env, _ := testEnv(t)
	bare := env
	bare.Cache = cache.HierConfig{}
	for _, model := range []fault.Model{fault.Reg, fault.Mem, fault.IMem, fault.Burst} {
		d1, err := fault.New(model, env)
		if err != nil {
			t.Fatalf("%s with cache geometry: %v", model, err)
		}
		d2, err := fault.New(model, bare)
		if err != nil {
			t.Fatalf("%s without cache geometry: %v", model, err)
		}
		r1 := rand.New(rand.NewSource(2018))
		r2 := rand.New(rand.NewSource(2018))
		for i := 0; i < 500; i++ {
			p1, p2 := d1.Sample(r1), d2.Sample(r2)
			if p1 != p2 {
				t.Fatalf("%s: draw %d diverged with cache geometry present: %+v vs %+v", model, i, p1, p2)
			}
		}
	}
}

// TestDomainFirstDrawsPinned freezes the first draw of each pre-existing
// domain at a fixed seed (captured at the PR 1/PR 2 behaviour, before the
// uncore extension). Any change to sampling order breaks every recorded
// campaign database, so this must only ever fail on a deliberate,
// versioned fault-space change.
func TestDomainFirstDrawsPinned(t *testing.T) {
	env, _ := testEnv(t)
	want := map[fault.Model]string{
		fault.Reg:   "i=5640 core=0 r30 bit=50",
		fault.Mem:   "i=5640 mem[0x14b5464] bit=30",
		fault.IMem:  "i=5640 imem[0x364] bit=30",
		fault.Burst: "i=96329 core=0 r18 bit=0 width=3",
	}
	for model, w := range want {
		d, err := fault.New(model, env)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		p := d.Sample(rand.New(rand.NewSource(2018)))
		if got := p.String(); got != w {
			t.Errorf("%s first draw drifted: %q, want %q", model, got, w)
		}
	}
}

// TestPointFormatAllDomains pins the human-readable rendering of every
// fault domain, both the bare historical form (zero Env — what String
// emits and what recorded logs contain) and the domain-aware form under a
// populated environment: named registers, region-annotated addresses,
// cache (level, set, way) arrays.
func TestPointFormatAllDomains(t *testing.T) {
	feat := isa.Features{NumGPR: 16, SPIndex: 13, LRIndex: 14, PCTarget: true}
	env := fault.Env{
		Feat:    feat,
		Regions: []mem.Region{{Name: "text", Start: 0x1000, End: 0x2000}},
	}
	cases := []struct {
		name string
		p    fault.Point
		bare string // Format(Env{}) == String()
		rich string // Format(env)
	}{
		{
			name: "reg-plain",
			p:    fault.Point{Domain: fault.Reg, Index: 10, Core: 1, Reg: 3, Bit: 7},
			bare: "i=10 core=1 r3 bit=7",
			rich: "i=10 core=1 r3 bit=7",
		},
		{
			name: "reg-sp",
			p:    fault.Point{Domain: fault.Reg, Index: 10, Core: 1, Reg: 13, Bit: 3},
			bare: "i=10 core=1 r13 bit=3",
			rich: "i=10 core=1 sp bit=3",
		},
		{
			name: "reg-pc",
			p:    fault.Point{Domain: fault.Reg, Index: 2, Core: 0, Reg: 15, Bit: 31},
			bare: "i=2 core=0 r15 bit=31",
			rich: "i=2 core=0 pc bit=31",
		},
		{
			name: "mem",
			p:    fault.Point{Domain: fault.Mem, Index: 7, Addr: 0x1800, Bit: 5},
			bare: "i=7 mem[0x1800] bit=5",
			rich: "i=7 mem[0x1800 text+0x800] bit=5",
		},
		{
			name: "mem-unmapped",
			p:    fault.Point{Domain: fault.Mem, Index: 7, Addr: 0x9000, Bit: 5},
			bare: "i=7 mem[0x9000] bit=5",
			rich: "i=7 mem[0x9000] bit=5",
		},
		{
			name: "imem",
			p:    fault.Point{Domain: fault.IMem, Index: 9, Addr: 0x1004, Bit: 12},
			bare: "i=9 imem[0x1004] bit=12",
			rich: "i=9 imem[0x1004 text+0x4] bit=12",
		},
		{
			name: "burst-lr",
			p:    fault.Point{Domain: fault.Burst, Index: 11, Core: 2, Reg: 14, Bit: 4, Width: 3},
			bare: "i=11 core=2 r14 bit=4 width=3",
			rich: "i=11 core=2 lr bit=4 width=3",
		},
		{
			name: "cachetag-l1d",
			p:    fault.Point{Domain: fault.CacheTag, Index: 3, Core: 2, Level: int(cache.L1D), Addr: 5, Reg: 1},
			bare: "i=3 l1d2[set=5 way=1] tag bit=0",
			rich: "i=3 l1d2[set=5 way=1] tag bit=0",
		},
		{
			name: "cachedirty-l2",
			p:    fault.Point{Domain: fault.CacheDirty, Index: 4, Level: int(cache.L2), Addr: 9, Reg: 3, Bit: 0},
			bare: "i=4 l2[set=9 way=3] status bit=0",
			rich: "i=4 l2[set=9 way=3] status bit=0",
		},
		{
			name: "cacherepl-l1i",
			p:    fault.Point{Domain: fault.CacheRepl, Index: 6, Core: 0, Level: int(cache.L1I), Addr: 2, Reg: 0, Bit: 1},
			bare: "i=6 l1i0[set=2 way=0] lru bit=1",
			rich: "i=6 l1i0[set=2 way=0] lru bit=1",
		},
	}
	for _, tc := range cases {
		if got := tc.p.String(); got != tc.bare {
			t.Errorf("%s: String() = %q, want %q", tc.name, got, tc.bare)
		}
		if got := tc.p.Format(fault.Env{}); got != tc.bare {
			t.Errorf("%s: Format(zero) = %q, want %q", tc.name, got, tc.bare)
		}
		if got := tc.p.Format(env); got != tc.rich {
			t.Errorf("%s: Format(env) = %q, want %q", tc.name, got, tc.rich)
		}
	}
}

func TestRegisterName(t *testing.T) {
	feat := isa.Features{NumGPR: 16, SPIndex: 13, LRIndex: 14, PCTarget: true}
	for r, want := range map[int]string{0: "r0", 13: "sp", 14: "lr", 15: "pc", 12: "r12"} {
		if got := fault.RegisterName(feat, r); got != want {
			t.Errorf("RegisterName(%d) = %q, want %q", r, got, want)
		}
	}
	// No PC target (armv8 convention): the top register is a plain GPR.
	noPC := isa.Features{NumGPR: 32, SPIndex: 31, LRIndex: 30}
	if got := fault.RegisterName(noPC, 31); got != "sp" {
		t.Errorf("RegisterName(31) = %q, want sp", got)
	}
	// Zero features: the historical bare spelling, even for index 13.
	if got := fault.RegisterName(isa.Features{}, 13); got != "r13" {
		t.Errorf("RegisterName(zero,13) = %q, want r13", got)
	}
}
