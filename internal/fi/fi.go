// Package fi implements the paper's fault-injection methodology (§3.2):
// the four-phase workflow (golden execution, fault-list generation,
// injection runs, report assembly) and the Cho et al. outcome
// classification (Vanished / ONA / OMM / UT / Hang), whose final-state half
// is exact: a run's RAM is compared byte for byte with the golden run's
// terminal image (Golden.Final; see classify), never with a digest. The
// fault model itself is pluggable: every phase is generic over a
// fault.Domain — the register single-bit-upset space of the paper, data
// words in guest RAM, instruction words, or register bit bursts
// (internal/fault). CheckpointSet.InjectPointContext is the one injection
// path: a set with checkpoints is the product path with every dead-fault and
// convergence rule, a set with none runs every fault from reset with none,
// and the two score every fault identically. The fault.Reg domain is
// bit-identical to the pre-domain injector at the same seed.
package fi

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"serfi/internal/cc"
	"serfi/internal/fault"
	"serfi/internal/mach"
	"serfi/internal/mem"
)

// hangFactor multiplies the golden cycle count to obtain the fault-run
// budget; a run still alive past it is classified Hang.
const hangFactor = 3

// hangSlack is added on top for very short workloads.
const hangSlack = 500_000

// HangBudget is the absolute cycle budget of one fault run of a workload
// whose golden run took cycles: the one rule every injection, trace and
// residency walk runs under.
func HangBudget(cycles uint64) uint64 { return cycles*hangFactor + hangSlack }

// Golden is the phase-1 reference record.
type Golden struct {
	AppStart uint64 // retired-instruction index at the app-start beacon
	AppEnd   uint64 // retired-instruction index at app exit
	Retired  uint64 // total retired instructions at halt
	Cycles   uint64 // machine time (max per-core cycles)
	Console  string
	ExitCode int
	Signal   int

	// Machine is the halted golden machine, retained for profiling
	// inspection and as the reference of the terminal image and register
	// file; never run again. Its memory tracks Final, not the checkpoint
	// candidates it captured on the way. It keeps the two records only a
	// golden machine has besides PageTouch: the liveness record
	// (mach.Liveness), whose marks ride on the candidates and decide which
	// registers and context slots are dead at a checkpoint, and the cache-set
	// stamps (cache.Hierarchy.SetStamp).
	Machine *mach.Machine
	// Final is the terminal RAM image, captured from Machine.Mem at halt. It
	// shares, by slice, every page the golden run did not write after the
	// candidate that last captured it. Runs that end with the golden console
	// are scored Vanished or ONA by exact byte equality against it, never by
	// a digest.
	Final *mem.Snapshot
	// PageTouch is the golden machine's page-touch record (mach.Machine.
	// PageTouch): per mem.PageBytes page, the number of the last instruction
	// that loaded or stored in it, 0 for never. InjectPointContext decides
	// mem strikes on pages with no later access from it.
	PageTouch []uint64

	// candidates are the fault-free machine states the run captured on its
	// way (see candidateCap), ascending by Retired() from instruction 0,
	// each carrying its liveness mark, from which BuildCheckpointsOpt
	// selects a set's checkpoints. Nil after ReleaseCandidates.
	candidates []*mach.Snapshot
}

// Checkpoint candidates. The golden run cannot know where a set's
// checkpoints belong until it has reported AppEnd, so it captures candidates
// on a period grid as it goes — instruction 0 included, so that every fault
// index has a candidate strictly below it — and whenever more than
// candidateCap are held it drops every other one and doubles the period.
// Captures are O(cap · log span) and at most candidateCap+1 are alive at
// once, whatever the run's length; the grid a run ends with has between
// cap/2 and cap points over all it retired.
//
// Each capture shares with its predecessor every RAM page and cache-state
// chunk that did not change (mach.Machine.Snapshot), which is what made
// dense grids affordable: the two values trade the captures, and the
// candidates alive in every golden run under way, against how far below its
// target a checkpoint snaps. Simulated instructions per injection at seed
// 2018:
//
//	DefaultCheckpoints / cap   inject_deep   matrix_wide
//	16 / 32                    326,185       420,296
//	32 / 64                    269,847
//	64 / 64                    255,909
//	64 / 128                   240,720       222,662
//	64 / 128, period 2^13      238,264
//	64 / 256                   239,070
//	96 / 192                   231,106       198,390
//	128 / 256                  228,603       190,804
//
// With sharing, a golden run over matrix_wide's 54 scenarios costs 1.15×
// a plain fast-path run at cap 32, 1.18× at 64, 1.20× at 128 and 1.22× at
// 256 (one process, per-scenario minima of three rounds); inject_deep's
// work_per_s did not tell 64/128, 96/192, 128/256 and 64/256 apart. The
// sweep is in CHANGES.md.
const (
	candidateCap         = 128
	candidateFirstPeriod = 1 << 15
)

// ReleaseCandidates drops the checkpoint candidates, which hold RAM pages and
// cache-state chunks no set may need: a holder that has built the sets it wants
// calls it so that only the selected checkpoints stay resident.
// BuildCheckpointsOpt fails on a released Golden.
func (g *Golden) ReleaseCandidates() { g.candidates = nil }

// place selects the checkpoints of an n-point set: for each target of the
// even rule AppStart−1 + span·k/n the latest candidate at or below it,
// ascending and without repeats (a lifespan of fewer grid periods than n
// yields fewer than n). The first target sits one instruction before the
// lifespan opens, so every fault index has a checkpoint strictly below it.
func (g *Golden) place(n int) []*mach.Snapshot {
	span := g.AppEnd - g.AppStart
	var picks []*mach.Snapshot
	for k := 0; k < n; k++ {
		target := g.AppStart - 1 + span*uint64(k)/uint64(n)
		i := sort.Search(len(g.candidates), func(i int) bool { return g.candidates[i].Retired() > target })
		// i >= 1: the first candidate sits at instruction 0.
		if c := g.candidates[i-1]; len(picks) == 0 || picks[len(picks)-1] != c {
			picks = append(picks, c)
		}
	}
	return picks
}

// ctxCheckInterval is how many committed instructions a context-aware run
// executes between cancellation polls. Pausing at a retired-instruction
// boundary and resuming is state-preserving (the checkpoint stage loop
// depends on the same property), so the interval only trades cancellation
// latency against polling overhead.
const ctxCheckInterval = 8 << 20

// runCtx drives m.Run in committed-instruction slices, polling ctx between
// slices. target, when non-zero, is an absolute retired-instruction bound
// (the machine stops with StopInstrBudget on reaching it, exactly like
// SetInstrBudget(target) + Run); zero means run until a non-budget stop.
// The returned error is ctx.Err() and the StopReason is meaningless then.
func runCtx(ctx context.Context, m *mach.Machine, target, budget uint64) (mach.StopReason, error) {
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		next := m.TotalRetired + ctxCheckInterval
		if target != 0 && next > target {
			next = target
		}
		m.SetInstrBudget(next)
		stop := m.Run(budget)
		if stop != mach.StopInstrBudget {
			return stop, nil
		}
		if target != 0 && m.TotalRetired >= target {
			return stop, nil
		}
	}
}

// RunGoldenContext executes the faultless reference for an image/config
// pair on a golden machine (cfg with Profile set; cfg.SamplePeriod is the
// caller's). The run polls ctx at every candidate grid point (and every few
// million committed instructions between them) and returns ctx.Err() when
// cancelled; pausing does not change the machine's evolution.
//
// This is the only fault-free pass of a scenario: the run pauses on the
// candidate grid (pausing at a retirement boundary is state-preserving) and
// captures the states BuildCheckpointsOpt later selects from.
func RunGoldenContext(ctx context.Context, img *cc.Image, cfg mach.Config, budget uint64) (*Golden, error) {
	cfg.Profile = true
	m := mach.New(cfg)
	img.InstallTo(m)
	if budget == 0 {
		budget = 30_000_000_000
	}
	cands := []*mach.Snapshot{m.CheckpointSnapshot()}
	var stop mach.StopReason
	for period := uint64(candidateFirstPeriod); ; {
		var err error
		if stop, err = runCtx(ctx, m, m.TotalRetired+period, budget); err != nil {
			return nil, err
		}
		if stop != mach.StopInstrBudget {
			break
		}
		cands = append(cands, m.CheckpointSnapshot())
		if len(cands) > candidateCap {
			// Keep the grid points of the doubled period.
			n := 0
			for i := 0; i < len(cands); i += 2 {
				cands[n] = cands[i]
				n++
			}
			clear(cands[n:])
			cands = cands[:n]
			period *= 2
		}
	}
	m.SetInstrBudget(0) // clear the polling slice bound on the retained machine
	if stop != mach.StopHalted {
		return nil, fmt.Errorf("fi: golden run did not halt: %v (retired %d)", stop, m.TotalRetired)
	}
	if !m.AppExited || m.AppSignal != 0 || m.AppExitCode != 0 {
		return nil, fmt.Errorf("fi: golden run failed in-guest: exit=%d sig=%d", m.AppExitCode, m.AppSignal)
	}
	if m.AppStartRetired == 0 || m.AppEndRetired <= m.AppStartRetired {
		return nil, fmt.Errorf("fi: app lifespan beacons missing")
	}
	m.Liveness().Finish()
	g := &Golden{
		AppStart:   m.AppStartRetired,
		AppEnd:     m.AppEndRetired,
		Retired:    m.TotalRetired,
		Cycles:     m.MaxCycles(),
		Console:    m.ConsoleString(),
		ExitCode:   m.AppExitCode,
		Signal:     m.AppSignal,
		Machine:    m,
		Final:      m.Mem.Snapshot(),
		PageTouch:  m.PageTouch,
		candidates: cands,
	}
	return g, nil
}

// Fault is one sampled fault point. The zero Domain is the register
// single-bit-upset model, so legacy literals (Index/Core/Reg/Bit) keep
// their historical meaning.
type Fault = fault.Point

// NewDomain builds the fault domain of one model over one scenario: the
// register-file shape and core count come from the machine configuration,
// the injectable time window from the golden run, and the memory target
// space from the image's mapped region table.
func NewDomain(model fault.Model, img *cc.Image, cfg mach.Config, g *Golden) (fault.Domain, error) {
	return fault.New(model, fault.Env{
		Feat:    cfg.ISA.Feat(),
		Cores:   cfg.Cores,
		Span:    g.AppEnd - g.AppStart,
		Regions: img.Regions,
		Cache:   cfg.Cache,
	})
}

// List is phase 2, domain-generic: n seeded faults drawn from the domain's
// stream. Duplicate (time, location, bit) tuples are deduplicated by
// deterministic resampling — a colliding draw is discarded and the next
// tuple comes from the same stream, so the non-colliding prefix of a list
// is unchanged by the dedup and identical seeds still yield identical
// lists. Once a list has exhausted the domain's whole target space,
// further draws may repeat (a campaign larger than its fault space).
func List(seed int64, n int, d fault.Domain) []Fault {
	r := rand.New(rand.NewSource(seed))
	out := make([]Fault, 0, n)
	seen := make(map[Fault]struct{}, n)
	space := d.Size()
	for len(out) < n {
		p := d.Sample(r)
		if _, dup := seen[p]; dup && uint64(len(seen)) < space {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	return out
}

// Outcome is the Cho et al. classification (§3.2.2).
type Outcome int

// Outcomes.
const (
	Vanished Outcome = iota // no fault traces are left
	ONA                     // output not affected, architectural state differs
	OMM                     // output mismatch, normal termination
	UT                      // unexpected termination (signal / bad exit / kernel panic)
	Hang                    // did not finish within the cycle budget
	NumOutcomes
)

func (o Outcome) String() string {
	switch o {
	case Vanished:
		return "Vanished"
	case ONA:
		return "ONA"
	case OMM:
		return "OMM"
	case UT:
		return "UT"
	case Hang:
		return "Hang"
	}
	return "?"
}

// Result is one injection-run record.
type Result struct {
	Fault    Fault
	Outcome  Outcome
	Retired  uint64
	Cycles   uint64
	ExitCode int
	Signal   int
}

// armFault installs the injection hook for one fault point: when the
// machine commits instruction AppStart+Index, the domain applies the flip.
func armFault(m *mach.Machine, d fault.Domain, g *Golden, p Fault) {
	m.InjectAt = g.AppStart + p.Index
	m.Inject = func(mm *mach.Machine) { d.Apply(mm, p) }
}

// finishFault classifies a completed injection run.
func finishFault(m *mach.Machine, g *Golden, f Fault, stop mach.StopReason) Result {
	t0 := time.Now()
	res := Result{
		Fault:    f,
		Outcome:  Classify(m, g, stop),
		Retired:  m.TotalRetired,
		Cycles:   m.MaxCycles(),
		ExitCode: m.AppExitCode,
		Signal:   m.AppSignal,
	}
	obsClassifySeconds.Observe(time.Since(t0).Seconds())
	return res
}

// Classify maps a finished run against the golden reference using the
// paper's observables only (termination state, console output, final memory
// and register file). It is the one scoring rule every injection path ends
// in, exported for the propagation tracer, which re-runs an injection outside
// the campaign loop and must reach the identical verdict. Vanished versus ONA
// is exact equality with the golden terminal state, never a digest: the
// register file field by field against the golden machine's, and RAM byte for
// byte against g.Final over the pages the two do not share (a machine
// restored from a checkpoint shares every page neither it nor the golden run
// wrote since).
func Classify(m *mach.Machine, g *Golden, stop mach.StopReason) Outcome {
	if stop != mach.StopHalted {
		return Hang // cycle budget exhausted or full-machine deadlock
	}
	if !m.AppExited || m.AppSignal != 0 || m.AppExitCode != g.ExitCode {
		return UT
	}
	if m.ConsoleString() != g.Console {
		return OMM
	}
	if m.RegFileEquals(g.Machine) && g.Final.EqualsMemory(m.Mem) {
		return Vanished
	}
	return ONA
}

// Counts aggregates outcomes.
type Counts [NumOutcomes]int

// Add accumulates one outcome.
func (c *Counts) Add(o Outcome) { c[o]++ }

// Total returns the number of classified runs.
func (c Counts) Total() int {
	t := 0
	for _, v := range c {
		t += v
	}
	return t
}

// Rate returns the share of outcome o in [0, 1].
func (c Counts) Rate(o Outcome) float64 {
	if t := c.Total(); t > 0 {
		return float64(c[o]) / float64(t)
	}
	return 0
}

// Masking is the fraction of executions without any error (Vanished+ONA),
// the paper's §4.2.2 masking-rate definition.
func (c Counts) Masking() float64 { return c.Rate(Vanished) + c.Rate(ONA) }

// Unmasked counts the runs whose fault escaped masking (OMM + UT + Hang) —
// the numerator of every vulnerability rate the sensitivity layer reports.
func (c Counts) Unmasked() int { return c[OMM] + c[UT] + c[Hang] }

// IsUnmasked reports whether an outcome escaped masking — the Cho et al.
// partition the propagation tracer and the sensitivity layer share.
func IsUnmasked(o Outcome) bool { return o != Vanished && o != ONA }

// String renders like "V=62.0% ONA=10.0% OMM=5.0% UT=20.0% H=3.0%".
func (c Counts) String() string {
	return fmt.Sprintf("V=%.1f%% ONA=%.1f%% OMM=%.1f%% UT=%.1f%% H=%.1f%%",
		100*c.Rate(Vanished), 100*c.Rate(ONA), 100*c.Rate(OMM),
		100*c.Rate(UT), 100*c.Rate(Hang))
}

// Mismatch is the paper's Figures 2c/3c metric: the sum of absolute
// per-class rate differences between two campaigns, in percent.
func Mismatch(a, b Counts) float64 {
	s := 0.0
	for o := Outcome(0); o < NumOutcomes; o++ {
		d := a.Rate(o) - b.Rate(o)
		if d < 0 {
			d = -d
		}
		s += d
	}
	return 100 * s
}
