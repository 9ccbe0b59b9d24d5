package cache

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// The fuzz harness drives a 2-core hierarchy through random accesses,
// invalidations, metadata flips, captures and restores, and holds every
// shared-chunk HierState to an oracle: a flat deep copy of the hierarchy
// taken at the same instant. Any divergence is a bug in the chunk sharing.

// flat is the oracle: every field a HierState captures, copied whole.
type flat struct {
	lines []line
	dir   []uint8
	ticks []uint64
	stats []Stats
	inval uint64
}

func flatOf(h *Hierarchy) flat {
	f := flat{lines: slices.Clone(h.lines), dir: slices.Clone(h.dir), inval: h.Invalidations}
	for _, c := range h.all {
		f.ticks = append(f.ticks, c.tick)
		f.stats = append(f.stats, c.Stats)
	}
	return f
}

// equals is HierState.equals restated over the flat copy, line by line.
func (f flat) equals(h *Hierarchy, exact bool) bool {
	g := flatOf(h)
	if !slices.Equal(f.ticks, g.ticks) || !slices.Equal(f.stats, g.stats) || f.inval != g.inval ||
		!bytes.Equal(f.dir, g.dir) || len(f.lines) != len(g.lines) {
		return false
	}
	for i, l := range f.lines {
		if o := g.lines[i]; l != o && (exact || l.valid || o.valid) {
			return false
		}
	}
	return true
}

// chunksHold reports whether the state's chunks concatenate to the oracle.
func chunksHold(s *HierState, f flat) bool {
	return slices.Equal(slices.Concat(s.lines...), f.lines) && bytes.Equal(slices.Concat(s.dir...), f.dir) &&
		slices.Equal(s.ticks, f.ticks) && slices.Equal(s.stats, f.stats) && s.inval == f.inval
}

// shareCfg has arrays of 16, 64 and 128 lines (288 in all: four chunks and
// a short fifth) over a RAM whose directory is two 4 KiB chunks and a short
// third.
func shareCfg() (HierConfig, uint32) {
	cfg := DefaultConfig()
	cfg.L1I = Config{Name: "l1i", SizeBytes: 1 << 10, LineBytes: 64, Ways: 1}
	cfg.L1D = Config{Name: "l1d", SizeBytes: 4 << 10, LineBytes: 64, Ways: 4}
	cfg.L2 = Config{Name: "l2", SizeBytes: 8 << 10, LineBytes: 64, Ways: 2}
	return cfg, 600 << 10
}

type oracleState struct {
	s *HierState
	f flat
}

const (
	maxShareOps    = 512
	maxShareStates = 16
)

// runShareScript interprets a byte-coded op script against a hierarchy and
// checks each capture, restore and compare against the oracle.
func runShareScript(t *testing.T, script []byte) {
	t.Helper()
	cfg, ram := shareCfg()
	h := NewHierarchy(cfg, 2, ram)
	var states []oracleState

	rd := bytes.NewReader(script)
	u8 := func() uint8 { b, _ := rd.ReadByte(); return b }
	u32 := func() uint32 {
		var raw [4]byte
		rd.Read(raw[:])
		return binary.LittleEndian.Uint32(raw[:])
	}
	// addr mostly stays in a 16 KiB window so captures share chunks; one in
	// eight lands anywhere, past RAM's end included (the no-directory path).
	addr := func() uint32 {
		if a := u32(); a&7 != 0 {
			return a % (16 << 10)
		} else {
			return a % (ram + 4<<10)
		}
	}
	// line picks one line of one array by the fault domains' coordinates.
	line := func() (Level, int, uint32, uint32) {
		l, core := Level(u8()%uint8(NumLevels)), int(u8()%2)
		c := cfg.LevelConfig(l)
		return l, core, u32() % c.Sets(), u32() % c.Ways
	}
	pick := func() oracleState { return states[u32()%uint32(len(states))] }

	for op := 0; rd.Len() > 0 && op < maxShareOps; op++ {
		switch u8() % 10 {
		case 0:
			h.Data(int(u8()%2), addr(), u8()%3 == 0)
		case 1:
			h.Fetch(int(u8()%2), addr())
		case 2:
			h.all[u8()%uint8(len(h.all))].Invalidate(addr())
		case 3:
			l, core, set, way := line()
			h.FlipTag(l, core, set, way, int(u8())%cfg.LevelConfig(l).TagBits())
		case 4:
			l, core, set, way := line()
			h.FlipDirty(l, core, set, way, int(u8()%2))
		case 5:
			l, core, set, way := line()
			h.FlipRepl(l, core, set, way, int(u8()%64))
		case 6: // capture
			if len(states) >= maxShareStates {
				continue
			}
			base, baseFlat := h.base, flat{}
			for _, p := range states {
				if p.s == base {
					baseFlat = p.f
				}
			}
			s, f := h.State(), flatOf(h)
			if !chunksHold(s, f) || !s.EqualsExact(h) || !s.Equals(h) {
				t.Fatalf("op %d: capture does not hold its source", op)
			}
			if h.base != s {
				t.Fatalf("op %d: capture did not become the base", op)
			}
			if base != nil {
				checkSharing(t, op, s, base, f, baseFlat)
			}
			states = append(states, oracleState{s, f})
		case 7: // restore an earlier capture
			if len(states) == 0 {
				continue
			}
			p := pick()
			h.SetState(p.s)
			if !p.f.equals(h, true) || h.base != p.s {
				t.Fatalf("op %d: restore diverged from the oracle", op)
			}
		case 8, 9: // compare a capture with the live hierarchy
			if len(states) == 0 {
				continue
			}
			p := pick()
			if got, want := p.s.Equals(h), p.f.equals(h, false); got != want {
				t.Fatalf("op %d: Equals = %v, oracle says %v", op, got, want)
			}
			if got, want := p.s.EqualsExact(h), p.f.equals(h, true); got != want {
				t.Fatalf("op %d: EqualsExact = %v, oracle says %v", op, got, want)
			}
		}
	}
	// No captured chunk changed afterwards, and a restore from the shared
	// state and one from the oracle leave identical hierarchies.
	for i, p := range states {
		if !chunksHold(p.s, p.f) {
			t.Fatalf("state %d: a chunk changed after capture", i)
		}
		shared, oracle := NewHierarchy(cfg, 2, ram), NewHierarchy(cfg, 2, ram)
		shared.SetState(p.s)
		copy(oracle.lines, p.f.lines)
		copy(oracle.dir, p.f.dir)
		for j, c := range oracle.all {
			c.tick, c.Stats = p.f.ticks[j], p.f.stats[j]
		}
		oracle.Invalidations = p.f.inval
		if !p.s.EqualsExact(shared) || !p.s.EqualsExact(oracle) || !flatOf(oracle).equals(shared, true) {
			t.Fatalf("state %d: restores from the shared state and from the oracle differ", i)
		}
	}
}

// checkSharing holds one capture's chunks to its base's: a chunk is reused
// exactly when it equals the base's chunk at capture time.
func checkSharing(t *testing.T, op int, s, base *HierState, f, baseFlat flat) {
	t.Helper()
	for i, c := range s.lines {
		lo := i * lineChunk
		equal := slices.Equal(f.lines[lo:lo+len(c)], baseFlat.lines[lo:lo+len(c)])
		if shared := &c[0] == &base.lines[i][0]; shared != equal {
			t.Fatalf("op %d: line chunk %d shared=%v but equal to the base's=%v", op, i, shared, equal)
		}
	}
	for i, c := range s.dir {
		lo := i * dirChunk
		equal := bytes.Equal(f.dir[lo:lo+len(c)], baseFlat.dir[lo:lo+len(c)])
		if shared := &c[0] == &base.dir[i][0]; shared != equal {
			t.Fatalf("op %d: directory chunk %d shared=%v but equal to the base's=%v", op, i, shared, equal)
		}
	}
}

// restoreCaptureSeed warms the hierarchy, captures twice around a store,
// restores the first capture, touches one line and captures again: the
// third capture's base is the restored first one, not its predecessor.
func restoreCaptureSeed() []byte {
	le := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	var b []byte
	for a := uint32(0); a < 64; a++ {
		b = append(append(b, 0, byte(a%2)), le(a*8*64+8)...)
		b = append(b, 0)
		b = append(append(b, 1, byte(a%2)), le(a*64+8)...)
	}
	b = append(b, 6)
	b = append(append(b, 0, 1), le(8*512+8)...)
	b = append(b, 0, 6)
	b = append(append(b, 8), le(0)...)
	b = append(append(b, 7), le(0)...)
	b = append(append(b, 3, 2, 0), le(5)...)
	b = append(append(b, le(1)...), 3)
	b = append(b, 6)
	b = append(append(b, 8), le(1)...)
	return b
}

func FuzzHierStateShareOracle(f *testing.F) {
	f.Add(restoreCaptureSeed())
	for i := 0; i < 4; i++ {
		seed := make([]byte, 1024)
		rand.New(rand.NewSource(int64(i) + 11)).Read(seed)
		f.Add(seed)
	}
	f.Fuzz(runShareScript)
}

// TestHierStateShareScripts replays deterministic pseudo-random scripts
// under plain `go test`, so the oracle suite runs where the fuzz engine
// does not.
func TestHierStateShareScripts(t *testing.T) {
	runShareScript(t, restoreCaptureSeed())
	for round := 0; round < 16; round++ {
		script := make([]byte, 4096)
		rand.New(rand.NewSource(int64(round))).Read(script)
		runShareScript(t, script)
	}
}

// TestStateBytesCountsDistinctChunks: the first capture of a hierarchy
// holds all of it, a capture with no access since adds nothing, and a chain
// of captures costs its distinct chunks, each once.
func TestStateBytesCountsDistinctChunks(t *testing.T) {
	cfg, ram := shareCfg()
	h := NewHierarchy(cfg, 2, ram)
	full := len(h.lines)*int(unsafe.Sizeof(line{})) + len(h.dir)
	a := h.State()
	if got := StateBytes(a); got != full {
		t.Fatalf("first capture holds %d bytes, want the whole hierarchy's %d", got, full)
	}
	b := h.State()
	if got := StateBytes(a, b); got != full {
		t.Errorf("a capture with no access between adds %d bytes", got-full)
	}
	states := []*HierState{a, b}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		for j := 0; j < 20; j++ {
			h.Data(r.Intn(2), uint32(r.Intn(16<<10)), r.Intn(3) == 0)
		}
		states = append(states, h.State())
	}
	seen := make(map[uintptr]int)
	for _, s := range states {
		for _, c := range s.lines {
			seen[uintptr(unsafe.Pointer(&c[0]))] = len(c) * int(unsafe.Sizeof(line{}))
		}
		for _, c := range s.dir {
			seen[uintptr(unsafe.Pointer(&c[0]))] = len(c)
		}
	}
	want := 0
	for _, n := range seen {
		want += n
	}
	if got := StateBytes(states...); got != want || want >= len(states)*full {
		t.Errorf("StateBytes = %d, distinct chunks hold %d of %d captured", got, want, len(states)*full)
	}
}
