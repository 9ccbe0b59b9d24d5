package cache

import (
	"math/rand"
	"testing"
)

func smallCfg() Config {
	return Config{Name: "t", SizeBytes: 1 << 10, LineBytes: 64, Ways: 2} // 8 sets
}

func TestValidate(t *testing.T) {
	if err := smallCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Config{Name: "b", SizeBytes: 1000, LineBytes: 48, Ways: 3}
	if bad.Validate() == nil {
		t.Error("non-power-of-two geometry must be rejected")
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := New(smallCfg())
	if hit, _ := c.Access(0x1000, false); hit {
		t.Error("cold access must miss")
	}
	if hit, _ := c.Access(0x1000, false); !hit {
		t.Error("second access must hit")
	}
	if hit, _ := c.Access(0x103f, false); !hit {
		t.Error("same-line access must hit")
	}
	if hit, _ := c.Access(0x1040, false); hit {
		t.Error("next-line access must miss")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(smallCfg()) // 2 ways, 8 sets, 64B lines: set stride = 512B
	a, b, d := uint32(0x0000), uint32(0x0200), uint32(0x0400)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a most recent
	c.Access(d, false) // evicts b (LRU)
	if !c.Contains(a) {
		t.Error("a should survive")
	}
	if c.Contains(b) {
		t.Error("b should be evicted")
	}
	if !c.Contains(d) {
		t.Error("d should be resident")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New(smallCfg())
	c.Access(0x0000, true) // dirty
	c.Access(0x0200, false)
	_, ev := c.Access(0x0400, false) // evicts dirty 0x0000
	if ev != 0 {
		t.Errorf("evicted line addr = %#x, want 0x0", ev)
	}
	if c.Stats.Writeback != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writeback)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(smallCfg())
	c.Access(0x1000, true)
	p, d := c.Invalidate(0x1000)
	if !p || !d {
		t.Errorf("invalidate = (%v,%v), want dirty hit", p, d)
	}
	if c.Contains(0x1000) {
		t.Error("line still resident after invalidate")
	}
}

// TestStatsInvariant: hits+misses equals accesses; eviction count never
// exceeds misses.
func TestStatsInvariant(t *testing.T) {
	c := New(smallCfg())
	r := rand.New(rand.NewSource(5))
	n := 10000
	for i := 0; i < n; i++ {
		c.Access(uint32(r.Intn(1<<14)), r.Intn(2) == 0)
	}
	if got := c.Stats.Accesses(); got != uint64(n) {
		t.Errorf("accesses = %d, want %d", got, n)
	}
	if c.Stats.Evictions > c.Stats.Misses {
		t.Error("evictions exceed misses")
	}
	if mr := c.Stats.MissRate(); mr <= 0 || mr >= 1 {
		t.Errorf("miss rate %v out of (0,1)", mr)
	}
}

func TestHierarchyCoherenceInvalidation(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg, 2, 1<<20)
	addr := uint32(0x4000)
	h.Data(0, addr, false) // core 0 caches the line
	h.Data(1, addr, false) // core 1 too
	lat := h.Data(1, addr, true)
	if h.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", h.Invalidations)
	}
	if lat < cfg.CoherencePenalty {
		t.Errorf("store latency %d missing coherence penalty", lat)
	}
	// Core 0 must now miss.
	lat0 := h.Data(0, addr, false)
	if lat0 <= cfg.L1Lat {
		t.Errorf("core 0 latency %d suggests a stale hit", lat0)
	}
}

func TestHierarchyFetchLatencies(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg, 1, 1<<20)
	cold := h.Fetch(0, 0x100)
	warm := h.Fetch(0, 0x100)
	if cold != cfg.L1Lat+cfg.L2Lat+cfg.MemLat {
		t.Errorf("cold fetch = %d", cold)
	}
	if warm != cfg.L1Lat {
		t.Errorf("warm fetch = %d", warm)
	}
}

func TestHierarchyMMIOAddressesSkipDirectory(t *testing.T) {
	h := NewHierarchy(DefaultConfig(), 1, 1<<20)
	// Address beyond RAM (device window) must not panic.
	_ = h.Data(0, 0xf0000000, true)
}

func TestPaperGeometry(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.L1I.SizeBytes != 32<<10 || cfg.L1I.Ways != 4 {
		t.Error("L1I must be 32kB 4-way (paper §3.1)")
	}
	if cfg.L1D.SizeBytes != 32<<10 || cfg.L1D.Ways != 4 {
		t.Error("L1D must be 32kB 4-way (paper §3.1)")
	}
	if cfg.L2.SizeBytes != 512<<10 || cfg.L2.Ways != 8 {
		t.Error("L2 must be 512kB 8-way (paper §3.1)")
	}
}

// TestFlipStateRoundTrip pins that fault flips land in the metadata HierState
// captures: flip, snapshot, flip again, restore — the restored hierarchy must
// equal the snapshot bit-for-bit, so checkpointed re-injection of uncore
// faults reproduces the exact same corrupted state.
func TestFlipStateRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg, 2, 1<<20)
	// Populate some lines so flips hit live metadata too.
	for a := uint32(0); a < 1<<16; a += cfg.L1D.LineBytes {
		h.Data(int(a>>12)&1, a, a%3 == 0)
		h.Fetch(0, a)
	}
	h.FlipTag(L1D, 1, 3, 1, 7)
	h.FlipDirty(L2, 0, 9, 2, 0)
	h.FlipRepl(L1I, 0, 2, 0, 4)

	snap := h.State()
	if !snap.Equals(h) {
		t.Fatal("fresh snapshot does not compare equal to its source")
	}
	tag, valid, dirty, lru := h.LineState(L1D, 1, 3, 1)

	// Perturb everything the snapshot must undo.
	h.FlipTag(L1D, 1, 3, 1, 12)
	h.FlipDirty(L2, 0, 9, 2, 0)
	h.FlipRepl(L1I, 0, 2, 0, 9)
	h.Data(1, 0x8000, true)
	if snap.Equals(h) {
		t.Fatal("snapshot still equal after further flips — flips invisible to HierState")
	}

	h.SetState(snap)
	if !snap.Equals(h) {
		t.Fatal("SetState did not restore the flipped hierarchy exactly")
	}
	tag2, valid2, dirty2, lru2 := h.LineState(L1D, 1, 3, 1)
	if tag2 != tag || valid2 != valid || dirty2 != dirty || lru2 != lru {
		t.Fatalf("restored line metadata (%#x %v %v %d) != snapshotted (%#x %v %v %d)",
			tag2, valid2, dirty2, lru2, tag, valid, dirty, lru)
	}
}

// deadLineHiers returns two small hierarchies warmed by the same access
// stream, the second with the tag, dirty bit and LRU clock of every invalid
// line scribbled over: the state a tag/status/lru strike on an invalid line
// leaves next to its golden twin.
func deadLineHiers(t *testing.T, r *rand.Rand) (a, b *Hierarchy, cfg HierConfig) {
	cfg = DefaultConfig()
	cfg.L1I = Config{Name: "l1i", SizeBytes: 1 << 10, LineBytes: 64, Ways: 2}
	cfg.L1D = Config{Name: "l1d", SizeBytes: 1 << 10, LineBytes: 64, Ways: 2}
	cfg.L2 = Config{Name: "l2", SizeBytes: 4 << 10, LineBytes: 64, Ways: 4}
	const cores, ram = 2, 1 << 16
	a, b = NewHierarchy(cfg, cores, ram), NewHierarchy(cfg, cores, ram)
	for i := 0; i < 40; i++ {
		core, addr, write := r.Intn(cores), uint32(r.Intn(ram)), r.Intn(3) == 0
		a.Data(core, addr, write)
		b.Data(core, addr, write)
		a.Fetch(core, addr)
		b.Fetch(core, addr)
	}
	scribbled := 0
	for l := Level(0); l < NumLevels; l++ {
		lc := cfg.LevelConfig(l)
		for core := 0; core < cores; core++ {
			for set := uint32(0); set < lc.Sets(); set++ {
				for way := uint32(0); way < lc.Ways; way++ {
					if _, valid, _, _ := b.LineState(l, core, set, way); valid || (l == L2 && core > 0) {
						continue
					}
					b.FlipTag(l, core, set, way, r.Intn(lc.TagBits()))
					b.FlipRepl(l, core, set, way, r.Intn(64))
					if r.Intn(2) == 0 {
						b.FlipDirty(l, core, set, way, 0)
					}
					scribbled++
				}
			}
		}
	}
	if scribbled == 0 {
		t.Fatal("warm-up left no invalid line to scribble on")
	}
	return a, b, cfg
}

// TestDeadLineFieldsAreUnobservable is the proof obligation of
// HierState.Equals' dead-line rule, as a property: two hierarchies that
// differ only in the tag, dirty bit and LRU clock of lines invalid on both
// sides are driven through the same random Data/Fetch/FlipDirty stream and
// must return identical latencies, keep identical statistics and stay Equal
// at every step. The stream never flips an invalid line valid: resurrecting a
// line is the one operation that reads dead fields, and in an injection run
// it can only be the fault itself, applied before any compare.
func TestDeadLineFieldsAreUnobservable(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	a, b, cfg := deadLineHiers(t, r)
	if a.State().EqualsExact(b) {
		t.Fatal("scribbling changed no stored bit")
	}
	if !a.State().Equals(b) || !b.State().Equals(a) {
		t.Fatal("hierarchies differing only in dead fields must be Equal")
	}
	for i := 0; i < 20000; i++ {
		core, addr := r.Intn(a.Cores()), uint32(r.Intn(1<<16))
		switch op := r.Intn(10); {
		case op < 5:
			write := r.Intn(3) == 0
			if la, lb := a.Data(core, addr, write), b.Data(core, addr, write); la != lb {
				t.Fatalf("step %d: Data(%d, %#x, %v) latency %d != %d", i, core, addr, write, la, lb)
			}
		case op < 9:
			if la, lb := a.Fetch(core, addr), b.Fetch(core, addr); la != lb {
				t.Fatalf("step %d: Fetch(%d, %#x) latency %d != %d", i, core, addr, la, lb)
			}
		default:
			// Drop a valid line (its fields die on both sides alike) or
			// toggle the dirty bit of any line, dead or live.
			l := Level(r.Intn(int(NumLevels)))
			lc := cfg.LevelConfig(l)
			set, way, bit := uint32(r.Intn(int(lc.Sets()))), uint32(r.Intn(int(lc.Ways))), 0
			if _, valid, _, _ := a.LineState(l, core, set, way); valid {
				bit = r.Intn(2)
			}
			a.FlipDirty(l, core, set, way, bit)
			b.FlipDirty(l, core, set, way, bit)
		}
		for l := Level(0); l < NumLevels; l++ {
			if sa, sb := a.LevelStats(l), b.LevelStats(l); sa != sb {
				t.Fatalf("step %d: %v stats %+v != %+v", i, l, sa, sb)
			}
		}
		if a.Invalidations != b.Invalidations || !a.State().Equals(b) {
			t.Fatalf("step %d: hierarchies no longer Equal", i)
		}
	}
}

// TestEqualsSeesLiveState pins the other side of the rule: a differing valid
// line (tag, dirty bit or LRU clock), a differing valid bit in either
// direction and a differing directory byte are all unequal.
func TestEqualsSeesLiveState(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	a, b, cfg := deadLineHiers(t, r)
	golden, scribbled := a.State(), b.State()
	find := func(wantValid bool) (l Level, set, way uint32) {
		for l = 0; l < NumLevels; l++ {
			lc := cfg.LevelConfig(l)
			for set = 0; set < lc.Sets(); set++ {
				for way = 0; way < lc.Ways; way++ {
					if _, valid, _, _ := b.LineState(l, 0, set, way); valid == wantValid {
						return l, set, way
					}
				}
			}
		}
		t.Fatalf("no line with valid=%v", wantValid)
		return
	}
	ll, ls, lw := find(true)
	dl, ds, dw := find(false)
	for name, perturb := range map[string]func(){
		"live tag":      func() { b.FlipTag(ll, 0, ls, lw, 3) },
		"live dirty":    func() { b.FlipDirty(ll, 0, ls, lw, 0) },
		"live lru":      func() { b.FlipRepl(ll, 0, ls, lw, 5) },
		"line dropped":  func() { b.FlipDirty(ll, 0, ls, lw, 1) },
		"line revived":  func() { b.FlipDirty(dl, 0, ds, dw, 1) },
		"directory bit": func() { b.dir[len(b.dir)/2] ^= 2 },
	} {
		b.SetState(scribbled)
		if !golden.Equals(b) {
			t.Fatalf("%s: not Equal before the perturbation", name)
		}
		perturb()
		if golden.Equals(b) || b.State().Equals(a) {
			t.Errorf("%s: still Equal", name)
		}
	}
}

// TestDeadSetFieldsAreUnobservable pins the set-stamp rule: once the last
// access a golden run stamps into a set is behind, every metadata bit of the
// set — tag, valid, dirty, LRU clock of every way — may differ and nothing
// observes it. A stamping hierarchy records a two-phase trace (in the second
// only core 0 runs, over a quarter of the sets, so core 1's L1D sets there
// are read by coherence probes alone); two twins replay it, one of them
// scribbled over every set dead at the cut, and they give equal latencies,
// statistics and coherence counts at every later step.
func TestDeadSetFieldsAreUnobservable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1I = Config{Name: "l1i", SizeBytes: 1 << 10, LineBytes: 64, Ways: 2}
	cfg.L1D = Config{Name: "l1d", SizeBytes: 1 << 10, LineBytes: 64, Ways: 2}
	cfg.L2 = Config{Name: "l2", SizeBytes: 4 << 10, LineBytes: 64, Ways: 4}
	const cores, ram, steps, cut = 2, 1 << 16, 6000, 3000
	type step struct {
		core  int
		addr  uint32
		fetch bool
		write bool
	}
	r := rand.New(rand.NewSource(38))
	trace := make([]step, steps)
	for i := range trace {
		s := step{core: r.Intn(cores), addr: uint32(r.Intn(ram)), fetch: r.Intn(3) == 0, write: r.Intn(3) == 0}
		if i >= cut {
			s.core = 0
			s.addr &^= 0xc << 6 // line index mod 16 below 4: sets 0..3 only
		}
		trace[i] = s
	}
	do := func(h *Hierarchy, s step) uint32 {
		if s.fetch {
			return h.Fetch(s.core, s.addr)
		}
		return h.Data(s.core, s.addr, s.write)
	}

	// The golden record: step i runs while i-1 instructions have retired.
	var clock uint64
	g := NewHierarchy(cfg, cores, ram)
	g.StampSets(&clock)
	for i, s := range trace {
		clock = uint64(i)
		do(g, s)
	}
	if NewHierarchy(cfg, cores, ram).SetStamps() != nil {
		t.Fatal("a hierarchy keeps stamps it was never asked for")
	}

	a, b := NewHierarchy(cfg, cores, ram), NewHierarchy(cfg, cores, ram)
	for _, s := range trace[:cut] {
		do(a, s)
		do(b, s)
	}
	dead, live := 0, 0
	for l := Level(0); l < NumLevels; l++ {
		lc := cfg.LevelConfig(l)
		for core := 0; core < cores; core++ {
			for set := uint32(0); set < lc.Sets(); set++ {
				if g.SetStamp(l, core, set) > cut {
					live++
					continue
				}
				dead++
				for way := uint32(0); way < lc.Ways; way++ {
					b.FlipTag(l, core, set, way, r.Intn(lc.TagBits()))
					b.FlipDirty(l, core, set, way, r.Intn(2))
					b.FlipRepl(l, core, set, way, r.Intn(64))
				}
			}
		}
	}
	if dead == 0 || live == 0 {
		t.Fatalf("%d dead and %d live sets: the trace must leave both", dead, live)
	}
	if a.State().Equals(b) {
		t.Fatal("scribbling the dead sets changed no live field")
	}
	for i, s := range trace[cut:] {
		if la, lb := do(a, s), do(b, s); la != lb {
			t.Fatalf("step %d: %+v latency %d != %d", cut+i, s, la, lb)
		}
		for l := Level(0); l < NumLevels; l++ {
			if sa, sb := a.LevelStats(l), b.LevelStats(l); sa != sb {
				t.Fatalf("step %d: %v stats %+v != %+v", cut+i, l, sa, sb)
			}
		}
		if a.Invalidations != b.Invalidations {
			t.Fatalf("step %d: invalidations %d != %d", cut+i, a.Invalidations, b.Invalidations)
		}
	}
}
