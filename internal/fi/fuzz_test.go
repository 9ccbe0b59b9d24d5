package fi_test

import (
	"context"
	"sync"
	"testing"

	"serfi/internal/cache"
	"serfi/internal/cc"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/mach"
	"serfi/internal/mem"
	"serfi/internal/npb"
)

// fuzzScenario is the one scenario FuzzInjectMatchesReset injects into,
// built once per process: the cheapest pinned guest.
var fuzzScenario = sync.OnceValues(func() (*fuzzFixture, error) {
	img, cfg, err := npb.BuildScenario(npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1})
	if err != nil {
		return nil, err
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		return nil, err
	}
	cs, err := fi.BuildCheckpointsOpt(context.Background(), img, cfg, g, fi.CheckpointOptions{N: fi.DefaultCheckpoints})
	if err != nil {
		return nil, err
	}
	empty, err := fi.BuildCheckpointsOpt(context.Background(), img, cfg, g, fi.CheckpointOptions{})
	if err != nil {
		return nil, err
	}
	fx := &fuzzFixture{img: img, cfg: cfg, g: g, cs: cs, empty: empty}
	for _, model := range fault.Models() {
		d, err := fi.NewDomain(model, img, cfg, g)
		if err != nil {
			return nil, err
		}
		fx.domains = append(fx.domains, d)
	}
	return fx, nil
})

type fuzzFixture struct {
	img     *cc.Image
	cfg     mach.Config
	g       *fi.Golden
	cs      *fi.CheckpointSet
	empty   *fi.CheckpointSet // no checkpoints: every fault from reset, no rule
	domains []fault.Domain
}

// point folds arbitrary fuzz values into a fault point the domain could
// have drawn: every coordinate reduced into the domain's target space.
func (fx *fuzzFixture) point(model uint8, index uint64, core, reg uint8, addr uint32, bit, width, level uint8) (fault.Domain, fi.Fault) {
	d := fx.domains[int(model)%len(fx.domains)]
	f := fx.cfg.ISA.Feat()
	p := fi.Fault{Domain: d.Model(), Index: index % (fx.g.AppEnd - fx.g.AppStart), Core: int(core) % fx.cfg.Cores}
	switch d.Model() {
	case fault.Reg, fault.Burst:
		p.Reg = int(reg) % f.FaultTargets
		bits := f.WordBytes * 8
		if d.Model() == fault.Burst {
			p.Width = 2 + int(width)%3
		}
		p.Bit = int(bit) % (bits - max(p.Width, 1) + 1)
	case fault.Mem, fault.IMem:
		perm := mem.PermW
		if d.Model() == fault.IMem {
			perm = mem.PermX
		}
		p.Addr, p.Bit = targetWord(fx.img.Regions, perm, addr), int(bit)%32
	default:
		l := cache.Level(int(level) % int(cache.NumLevels))
		lc := fx.cfg.Cache.LevelConfig(l)
		bits := 16 // the LRU window the cacherepl domain samples
		switch d.Model() {
		case fault.CacheTag:
			bits = lc.TagBits()
		case fault.CacheDirty:
			bits = 2
		}
		p.Level, p.Addr, p.Reg, p.Bit = int(l), addr%lc.Sets(), int(reg)%int(lc.Ways), int(bit)%bits
	}
	return d, p
}

// targetWord returns addr when it is a whole aligned word of a region with
// perm, and otherwise the word at ordinal addr (modulo their count) across
// those regions.
func targetWord(regions []mem.Region, perm mem.Perm, addr uint32) uint32 {
	var words uint64
	for _, r := range regions {
		if r.Perm&perm != 0 {
			if addr%4 == 0 && r.Start <= addr && addr <= r.End-4 {
				return addr
			}
			words += uint64(r.End-r.Start) / 4
		}
	}
	n := uint64(addr) % words
	for _, r := range regions {
		if r.Perm&perm != 0 {
			if w := uint64(r.End-r.Start) / 4; n >= w {
				n -= w
			} else {
				return (r.Start+3)&^3 + uint32(n)*4
			}
		}
	}
	panic("unreachable")
}

// FuzzInjectMatchesReset is the admission gate of every rule the product
// path takes: a fault point of any domain, run through a delta-chain
// CheckpointSet with every rule on (dead words, dead sets, convergence on
// dead cache-line state and modulo dead registers and context slots), scores
// field for field what a set without checkpoints scores from reset, which
// restores nothing and consults no record. The seeds are tuples of
// TestDeadFaultsMatchSimulation's lists on this scenario that reach each way
// to score a run.
func FuzzInjectMatchesReset(f *testing.F) {
	for _, p := range []fi.Fault{
		{Domain: fault.Mem, Index: 0x1b273f, Addr: 0x16f7580, Bit: 22},                               // page-touch: decided, no machine
		{Domain: fault.CacheTag, Index: 0x1b273f, Level: int(cache.L1I), Addr: 0x4c, Bit: 12},        // set-stamp: decided, no machine
		{Domain: fault.Reg, Index: 0x1b273f, Reg: 22, Bit: 15},                                       // converged modulo dead state
		{Domain: fault.CacheTag, Index: 0x10df24, Level: int(cache.L2), Addr: 0x101, Reg: 4, Bit: 8}, // converged on dead line state
		{Domain: fault.Reg, Index: 0xef05a, Reg: 19, Bit: 31},                                        // converged exactly
		{Domain: fault.Reg, Index: 0x13ae73, Reg: 21, Bit: 9},                                        // simulated to the end
		{Domain: fault.IMem, Index: 0x1b273f, Addr: 0x26c0, Bit: 22},                                 // simulated to the end
	} {
		f.Add(uint8(p.Domain), p.Index, uint8(p.Core), uint8(p.Reg), p.Addr, uint8(p.Bit), uint8(p.Width), uint8(p.Level))
	}
	f.Fuzz(func(t *testing.T, model uint8, index uint64, core, reg uint8, addr uint32, bit, width, level uint8) {
		fx, err := fuzzScenario()
		if err != nil {
			t.Fatal(err)
		}
		d, p := fx.point(model, index, core, reg, addr, bit, width, level)
		want := fx.empty.InjectPoint(d, fx.g, p)
		if got := fx.cs.InjectPoint(d, fx.g, p); got != want {
			t.Errorf("%s: product path %+v != from reset %+v", p, got, want)
		}
	})
}
