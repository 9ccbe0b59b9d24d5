package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"serfi/internal/cache"
	"serfi/internal/cc"
	"serfi/internal/isa"
	"serfi/internal/mach"
	"serfi/internal/mem"
	"serfi/internal/npb"
)

// pinnedScenarios is the pinned matrix: {IS, MG} x {armv7, armv8} x
// {SER-1, OMP-2, MPI-2}. A smoke run keeps its first two scenarios (one per
// tenant of inject_queue).
func pinnedScenarios(quick bool) []npb.Scenario {
	var out []npb.Scenario
	for _, isaName := range []string{"armv7", "armv8"} {
		for _, app := range []string{"IS", "MG"} {
			out = append(out,
				npb.Scenario{App: app, Mode: npb.Serial, ISA: isaName, Cores: 1},
				npb.Scenario{App: app, Mode: npb.OMP, ISA: isaName, Cores: 2},
				npb.Scenario{App: app, Mode: npb.MPI, ISA: isaName, Cores: 2})
		}
	}
	if quick {
		return out[:2]
	}
	return out
}

// guest is one built scenario with a machine ready to run.
type guest struct {
	sc  npb.Scenario
	img *cc.Image
	cfg mach.Config
	m   *mach.Machine
}

// runBudget is the per-core cycle budget of a fault-free run (the golden
// run's own default).
const runBudget = 30_000_000_000

func buildGuests(p *pass, scs []npb.Scenario) ([]*guest, error) {
	gs := make([]*guest, len(scs))
	for i, sc := range scs {
		var img *cc.Image
		var cfg mach.Config
		var err error
		d := p.rec.time("build", "npb.BuildScenario", sc.ID(), -1, func() { img, cfg, err = npb.BuildScenario(sc) })
		if err != nil {
			return nil, err
		}
		p.sample("build", d)
		gs[i] = &guest{sc: sc, img: img, cfg: cfg}
		gs[i].construct(p)
	}
	return gs, nil
}

// construct gives the guest a fresh machine at reset.
func (g *guest) construct(p *pass) {
	d := p.rec.time("mach", "mach.New+InstallTo", g.sc.ID(), -1, func() {
		g.m = mach.New(g.cfg)
		g.img.InstallTo(g.m)
	})
	p.sample("mach.construct", d)
}

// runSimGolden runs the pinned guests fault-free on the fast path, one
// goroutine, repeated; guest builds and the first machines are set-up, the
// machines of later repeats are built between timed runs.
func runSimGolden(p *pass) error {
	scs := pinnedScenarios(p.o.quick)
	reps := p.scaled(10, 1)
	if p.o.quick {
		scs, reps = scs[:1], 2
	}
	gs, err := setUp(p, func() ([]*guest, error) { return buildGuests(p, scs) }, func([]*guest) {})
	if err != nil {
		return err
	}
	runtime.GC()

	var prof bytes.Buffer
	if p.o.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	obs0 := snapshotObs()
	type tally struct{ retired, cycles uint64 }
	first := make([]tally, len(gs))
	perGuestNS := map[string]float64{}
	perGuestInstr := map[string]float64{}
	var retired, cycles uint64
	var runS float64
	// Per repeat: guest-MIPS and CPU ms per million instructions, wall and CPU
	// taken inside Machine.Run only (machines built between runs count in
	// neither). The pass reports their medians: the first repeat of a fresh
	// process pays the page faults of twelve machines' RAM, and a neighbour's
	// burst on the host hits single repeats (26–51 MIPS within one pass seen).
	var repMIPS, repCPUms []float64
	var levels [cache.NumLevels]cache.Stats
	identical, halted := true, true
	for rep := 0; rep < reps; rep++ {
		var wall, cpu, minstr float64
		for i, g := range gs {
			id := p.rec.begin("mach", "Machine.Run", g.sc.ID(), -1, 0)
			cpu0, rt0 := cpuSeconds(), time.Now()
			stop := g.m.Run(runBudget)
			d := time.Since(rt0)
			cpu += cpuSeconds() - cpu0
			p.rec.end(id)
			wall += d.Seconds()
			minstr += float64(g.m.TotalRetired) / 1e6
			got := tally{g.m.TotalRetired, g.m.MaxCycles()}
			if stop != mach.StopHalted {
				halted = false
			}
			if rep == 0 {
				first[i] = got
			} else if got != first[i] {
				identical = false
			}
			retired += got.retired
			cycles += got.cycles
			key := g.sc.ISA + "_" + g.sc.App
			perGuestNS[key] += float64(d.Nanoseconds())
			perGuestInstr[key] += float64(got.retired)
			for l := cache.Level(0); l < cache.NumLevels; l++ {
				s := g.m.Hier.LevelStats(l)
				levels[l].Hits += s.Hits
				levels[l].Misses += s.Misses
				levels[l].Evictions += s.Evictions
				levels[l].Writeback += s.Writeback
			}
			if rep+1 < reps {
				g.construct(p)
			}
		}
		runS += wall
		repMIPS = append(repMIPS, minstr/wall)
		repCPUms = append(repCPUms, cpu*1e3/minstr)
	}
	moved := snapshotObs().since(obs0)
	if p.o.trace {
		pprof.StopCPUProfile()
	}

	runs := reps * len(gs)
	p.ops(runs, 0)
	p.check("all_runs_halt", halted, "a fault-free guest did not halt")
	p.check("repeats_identical", identical, "retired/cycle counts differ between repeats of one guest")
	p.slowPathCheck(gs)

	p.metric("guest_mips", median(repMIPS))
	p.metric("guest_ipc", float64(retired)/float64(cycles))
	p.exact["guest_ipc"] = float64(retired) / float64(cycles)
	p.exact["mach.retired_instr"] = float64(retired)
	p.exact["mach.sim_cycles"] = float64(cycles)
	p.metric("work_per_s", median(repMIPS))
	p.metric("cpu_ms_per_work", median(repCPUms))

	if !p.o.trace {
		return nil
	}
	p.layer("build.s", sum(p.samples["build"]))
	p.layer("build.calls", float64(len(p.samples["build"])))
	imageBytes := 0.0
	for _, g := range gs {
		imageBytes += float64(g.img.HeapBase)
	}
	p.layer("build.image_bytes", imageBytes)
	p.layer("mach.retired_instr", float64(retired))
	p.layer("mach.sim_cycles", float64(cycles))
	p.layer("mach.run_s", runS)
	for key, ns := range perGuestNS {
		p.layer("mach.ns_per_instr."+key, ns/perGuestInstr[key])
	}
	p.layer("mach.fallback_step_share", moved["serfi_mach_fastpath_fallback_steps_total"]/float64(retired))
	p.layerMedian("mach.construct_us", "mach.construct", 1e6)
	p.layer("cache.l1i_accesses", float64(levels[cache.L1I].Accesses()))
	p.layer("cache.l1d_accesses", float64(levels[cache.L1D].Accesses()))
	p.layer("cache.l2_accesses", float64(levels[cache.L2].Accesses()))
	p.layer("cache.l1d_miss_rate", levels[cache.L1D].MissRate())
	p.layer("cache.l2_miss_rate", levels[cache.L2].MissRate())
	p.layer("cache.evictions", moved.sum("serfi_cache_evictions_total"))
	p.layer("cache.writebacks", moved.sum("serfi_cache_writebacks_total"))
	p.check("cache_obs_matches_stats",
		moved.sum("serfi_cache_evictions_total") == float64(levels[cache.L1I].Evictions+levels[cache.L1D].Evictions+levels[cache.L2].Evictions),
		"obs eviction counters disagree with Hierarchy.LevelStats")

	shares, err := pcShares(prof.Bytes())
	p.check("cpu_profile_decoded", err == nil, fmt.Sprint(err))
	for bucket, share := range shares {
		p.layer("pc."+bucket+"_share", share)
	}

	// The isolated pieces, on the serial guests (one core, so the committing
	// core and its next access are known from outside).
	for i, g := range gs {
		if g.sc.Mode != npb.Serial {
			continue
		}
		p.replayPieces(g)
		p.machinePieces(g.img, g.cfg, first[i].retired/2, -1)
	}
	p.publishPieces()
	return nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// slowPathCheck runs the shortest guest of each ISA once on the reference
// interpreter and once on the fast path and compares retired instructions,
// cycles, register-file hash and memory hash.
func (p *pass) slowPathCheck(gs []*guest) {
	shortest := map[string]*guest{}
	for _, g := range gs {
		if cur := shortest[g.sc.ISA]; cur == nil || g.m.TotalRetired < cur.m.TotalRetired {
			shortest[g.sc.ISA] = g
		}
	}
	for isaName, g := range shortest {
		type state struct {
			retired, cycles, regs, mem uint64
		}
		run := func(slow bool) state {
			cfg := g.cfg
			cfg.SlowPath = slow
			m := mach.New(cfg)
			g.img.InstallTo(m)
			m.Run(runBudget)
			return state{m.TotalRetired, m.MaxCycles(), m.RegFileHash(), m.Mem.Hash()}
		}
		fast, slow := run(false), run(true)
		p.check("slow_path_matches_"+isaName, fast == slow,
			fmt.Sprintf("%s: fast %+v slow %+v", g.sc.ID(), fast, slow))
	}
}

// access is one recorded data access of a guest.
type access struct {
	addr  uint32
	size  uint32
	write bool
}

var pieceSink uint64

// replayPieces records the instruction and data address stream of a serial
// guest by single-stepping it from outside, then replays the stream through
// the layers the execute loop calls per access: Hierarchy.Fetch and Data,
// Memory.Check and the ISA decoder.
func (p *pass) replayPieces(g *guest) {
	steps, rounds := 60000, 40
	if p.o.quick {
		steps, rounds = 4000, 2
	}
	m := mach.New(g.cfg)
	g.img.InstallTo(m)
	// Start a third into the run, past boot and inside the application.
	m.SetInstrBudget(g.m.TotalRetired / 3)
	m.Run(runBudget)
	wordBytes := uint32(g.cfg.ISA.Feat().WordBytes)
	var pcs, words []uint32
	var data []access
	for i := 0; i < steps && !m.Halted; i++ {
		c := &m.Cores[0]
		pc := uint32(c.PC)
		if pc+4 > m.Mem.Size() {
			break
		}
		w := m.Mem.ReadU32(pc)
		ins := g.cfg.ISA.Decode(w)
		pcs, words = append(pcs, pc), append(words, w)
		if size, write, ok := memOp(ins.Op, wordBytes); ok {
			data = append(data, access{addr: uint32(c.Regs[ins.Rn] + uint64(ins.Imm)), size: size, write: write})
		}
		m.SetInstrBudget(m.TotalRetired + 1)
		m.Run(runBudget)
	}
	if len(pcs) == 0 || len(data) == 0 {
		return
	}
	h := cache.NewHierarchy(g.cfg.Cache, 1, g.cfg.RAMBytes)
	var acc uint64
	d := p.rec.time("cache", "Hierarchy.Fetch replay", g.sc.ID(), -1, func() {
		for r := 0; r < rounds; r++ {
			for _, pc := range pcs {
				acc += uint64(h.Fetch(0, pc))
			}
		}
	})
	p.samples["cache.fetch"] = append(p.samples["cache.fetch"], d.Seconds()/float64(rounds*len(pcs)))
	d = p.rec.time("cache", "Hierarchy.Data replay", g.sc.ID(), -1, func() {
		for r := 0; r < rounds; r++ {
			for _, a := range data {
				acc += uint64(h.Data(0, a.addr, a.write))
			}
		}
	})
	p.samples["cache.data"] = append(p.samples["cache.data"], d.Seconds()/float64(rounds*len(data)))
	d = p.rec.time("mem", "Memory.Check replay", g.sc.ID(), -1, func() {
		for r := 0; r < rounds; r++ {
			for _, a := range data {
				want := mem.PermR
				if a.write {
					want = mem.PermW
				}
				if m.Mem.Check(a.addr, a.size, want, false) != nil {
					acc++
				}
			}
		}
	})
	p.samples["mem.check"] = append(p.samples["mem.check"], d.Seconds()/float64(rounds*len(data)))
	d = p.rec.time("isa", "ISA.Decode", g.sc.ID(), -1, func() {
		for r := 0; r < rounds; r++ {
			for _, w := range words {
				acc += uint64(g.cfg.ISA.Decode(w).Op)
			}
		}
	})
	p.samples["isa.decode."+g.sc.ISA] = append(p.samples["isa.decode."+g.sc.ISA], d.Seconds()/float64(rounds*len(words)))
	pieceSink += acc
}

// memOp classifies the loads and stores whose address is Rn+Imm.
func memOp(op isa.Op, wordBytes uint32) (size uint32, write, ok bool) {
	switch op {
	case isa.OpLDR:
		return wordBytes, false, true
	case isa.OpSTR:
		return wordBytes, true, true
	case isa.OpLDRW:
		return 4, false, true
	case isa.OpSTRW:
		return 4, true, true
	case isa.OpLDRB:
		return 1, false, true
	case isa.OpSTRB:
		return 1, true, true
	case isa.OpFLDR:
		return 8, false, true
	case isa.OpFSTR:
		return 8, true, true
	}
	return 0, false, false
}
