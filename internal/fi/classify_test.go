package fi_test

import (
	"context"
	"sync"
	"testing"

	"serfi/internal/cc"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/mach"
	"serfi/internal/npb"
	"serfi/internal/prop"
)

// refOutcome is the scoring rule the terminal-image compare replaced, kept
// as an independent oracle: boot from reset, arm the fault, run to the hang
// budget, and separate Vanished from ONA by the 64-bit FNV digest of all of
// RAM (mem.Memory.Hash) plus the register-file digest, both taken from the
// golden machine. memDecided reports a masked run whose registers match the
// golden run's, i.e. one whose class the RAM comparison alone decided.
func refOutcome(img *cc.Image, cfg mach.Config, g *fi.Golden, goldenMemHash uint64, d fault.Domain, p fi.Fault) (o fi.Outcome, memDecided bool) {
	m := mach.New(cfg)
	img.InstallTo(m)
	m.InjectAt = g.AppStart + p.Index
	m.Inject = func(mm *mach.Machine) { d.Apply(mm, p) }
	stop := m.Run(fi.HangBudget(g.Cycles))
	switch {
	case stop != mach.StopHalted:
		return fi.Hang, false
	case !m.AppExited || m.AppSignal != 0 || m.AppExitCode != g.ExitCode:
		return fi.UT, false
	case m.ConsoleString() != g.Console:
		return fi.OMM, false
	}
	regs := m.RegFileHash() == g.Machine.RegFileHash()
	if regs && m.Mem.Hash() == goldenMemHash {
		return fi.Vanished, true
	}
	return fi.ONA, regs
}

// TestClassificationMatchesHashOracle is the differential pin of the
// terminal-image classifier: over a seeded fault list per domain and
// scenario, every injection path — pooled machines restored from a
// checkpoint (which share most pages with Golden.Final), an empty set (from
// reset), and the propagation tracer's faulty twin — must score each fault
// exactly as the full-RAM-digest rule does.
func TestClassificationMatchesHashOracle(t *testing.T) {
	const perDomain = 2
	var (
		mu         sync.Mutex
		seen       fi.Counts
		memDecided int
	)
	t.Run("matrix", func(t *testing.T) {
		for _, sc := range []npb.Scenario{
			{App: "IS", Mode: npb.Serial, ISA: "armv7", Cores: 1},
			{App: "IS", Mode: npb.OMP, ISA: "armv7", Cores: 2},
			{App: "EP", Mode: npb.Serial, ISA: "armv8", Cores: 1},
			{App: "EP", Mode: npb.OMP, ISA: "armv8", Cores: 2},
		} {
			t.Run(sc.ID(), func(t *testing.T) {
				t.Parallel()
				img, cfg, err := npb.BuildScenario(sc)
				if err != nil {
					t.Fatal(err)
				}
				g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				goldenMemHash := g.Machine.Mem.Hash()
				sets := map[string]*fi.CheckpointSet{}
				for name, opt := range map[string]fi.CheckpointOptions{
					"pooled": {N: 6},
					"empty":  {N: 0},
				} {
					cs, err := fi.BuildCheckpointsOpt(context.Background(), img, cfg, g, opt)
					if err != nil {
						t.Fatal(err)
					}
					sets[name] = cs
				}
				tracer := prop.NewTracer(img, cfg, g, sets["pooled"])
				for _, model := range []fault.Model{fault.Reg, fault.Mem, fault.IMem, fault.CacheTag} {
					d, err := fi.NewDomain(model, img, cfg, g)
					if err != nil {
						t.Fatalf("%s: %v", model, err)
					}
					for _, p := range fi.List(99, perDomain, d) {
						want, decided := refOutcome(img, cfg, g, goldenMemHash, d, p)
						mu.Lock()
						seen.Add(want)
						if decided {
							memDecided++
						}
						mu.Unlock()
						// Pooled runs reuse the machine the previous fault left dirty.
						for name, cs := range sets {
							if got, _ := cs.InjectPointContext(context.Background(), d, g, p); got.Outcome != want {
								t.Errorf("%s %s via %s: %v, hash oracle says %v", model, p, name, got.Outcome, want)
							}
						}
						if _, got, err := tracer.Trace(d, p); err != nil || got != want {
							t.Errorf("%s %s via prop.Tracer: %v (err %v), hash oracle says %v", model, p, got, err, want)
						}
					}
				}
			})
		}
	})
	// The matrix must exercise the comparison it pins.
	if seen[fi.Vanished] == 0 || seen[fi.ONA] == 0 || memDecided == 0 {
		t.Fatalf("fault lists too tame: outcomes %v, %d decided by the RAM compare alone", seen, memDecided)
	}
	t.Logf("oracle outcomes %v, %d decided by the RAM compare alone", seen, memDecided)
}
