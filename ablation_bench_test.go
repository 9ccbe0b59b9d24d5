package serfi

// Ablation benchmarks for the simulator design choices called out in
// DESIGN.md: the scheduler tick quantum (drives preemption frequency and
// therefore kernel exposure), the coherence-invalidation penalty (drives
// multicore store cost) and the branch-mispredict penalty. Each reports
// the affected architectural metric so the effect of the knob is visible
// in the benchmark output.

import (
	"testing"

	"serfi/internal/fi"
	"serfi/internal/mach"
	"serfi/internal/npb"
)

// goldenWith runs EP/OMP-2 with a tweaked machine configuration.
func goldenWith(b *testing.B, tweak func(*mach.Config)) *fi.Golden {
	b.Helper()
	sc := npb.Scenario{App: "EP", Mode: npb.OMP, ISA: "armv8", Cores: 2}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		b.Fatal(err)
	}
	tweak(&cfg)
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkAblationTickQuantum contrasts scheduler quanta: a shorter tick
// preempts more, raising context switches and kernel share.
func BenchmarkAblationTickQuantum(b *testing.B) {
	for _, tick := range []uint64{5000, 20000, 80000} {
		b.Run(map[uint64]string{5000: "tick5k", 20000: "tick20k", 80000: "tick80k"}[tick], func(b *testing.B) {
			var ctx, kern uint64
			for i := 0; i < b.N; i++ {
				g := goldenWith(b, func(cfg *mach.Config) { cfg.Timing.TickCycles = tick })
				st := g.Machine.TotalStats()
				ctx, kern = st.CtxRestores, st.KernelRetired
			}
			b.ReportMetric(float64(ctx), "ctx-switches")
			b.ReportMetric(float64(kern), "kernel-instrs")
		})
	}
}

// BenchmarkAblationCoherencePenalty contrasts the write-invalidate penalty.
func BenchmarkAblationCoherencePenalty(b *testing.B) {
	for _, pen := range []uint32{0, 20, 80} {
		b.Run(map[uint32]string{0: "pen0", 20: "pen20", 80: "pen80"}[pen], func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				g := goldenWith(b, func(cfg *mach.Config) { cfg.Cache.CoherencePenalty = pen })
				cycles = g.Cycles
			}
			b.ReportMetric(float64(cycles), "machine-cycles")
		})
	}
}

// BenchmarkAblationMispredict contrasts branch-mispredict penalties.
func BenchmarkAblationMispredict(b *testing.B) {
	for _, pen := range []uint32{0, 14, 40} {
		b.Run(map[uint32]string{0: "mp0", 14: "mp14", 40: "mp40"}[pen], func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				g := goldenWith(b, func(cfg *mach.Config) { cfg.Timing.Mispredict = pen })
				cycles = g.Cycles
			}
			b.ReportMetric(float64(cycles), "machine-cycles")
		})
	}
}
