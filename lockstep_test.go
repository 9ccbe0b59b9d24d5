package serfi

// The lockstep differential test of the simulation-kernel fast path: the
// block-cached dispatch engine and the retained `-slowpath` reference
// interpreter run the same scenario side by side, pausing every
// lockstepStride retired instructions to compare complete machine state
// (registers, RAM, cache hierarchy, timers, console, beacons and every
// cycle/stat counter) and the page-touch table both machines keep, as the
// golden run of a campaign does. This pins the fast path's contract — bit-identical
// architectural state and identical counters at retirement boundaries —
// over real NPB workloads rather than microprograms (those live in
// internal/mach/lockstep_test.go).
//
// By default the matrix covers the benchmark apps (IS, MG) across every
// programming model and both ISAs. Set SERFI_LOCKSTEP=full to sweep every
// NPB app x mode x ISA (the CI lockstep job does); the full sweep takes a
// few minutes.

import (
	"os"
	"slices"
	"testing"

	"serfi/internal/mach"
	"serfi/internal/mem"
	"serfi/internal/npb"
)

const lockstepStride = 250_000

func lockstepScenarios(t *testing.T) []npb.Scenario {
	if os.Getenv("SERFI_LOCKSTEP") == "full" {
		var out []npb.Scenario
		for _, isaName := range []string{"armv7", "armv8"} {
			for _, app := range npb.Apps() {
				if app.HasSerial {
					out = append(out, npb.Scenario{App: app.Name, Mode: npb.Serial, ISA: isaName, Cores: 1})
				}
				if app.HasOMP {
					out = append(out, npb.Scenario{App: app.Name, Mode: npb.OMP, ISA: isaName, Cores: 2})
				}
				if app.HasMPI {
					cores := 2
					if app.MPISquare {
						cores = 4
					}
					out = append(out, npb.Scenario{App: app.Name, Mode: npb.MPI, ISA: isaName, Cores: cores})
				}
			}
		}
		return out
	}
	var out []npb.Scenario
	for _, isaName := range []string{"armv7", "armv8"} {
		for _, app := range []string{"IS", "MG"} {
			out = append(out,
				npb.Scenario{App: app, Mode: npb.Serial, ISA: isaName, Cores: 1},
				npb.Scenario{App: app, Mode: npb.OMP, ISA: isaName, Cores: 2},
				npb.Scenario{App: app, Mode: npb.MPI, ISA: isaName, Cores: 2},
			)
		}
	}
	return out
}

func TestLockstepFastVsSlowPath(t *testing.T) {
	if testing.Short() {
		t.Skip("lockstep differential sweep skipped in -short mode")
	}
	for _, sc := range lockstepScenarios(t) {
		sc := sc
		t.Run(sc.ID(), func(t *testing.T) {
			t.Parallel()
			img, cfg, err := npb.BuildScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			mk := func(slow bool) *mach.Machine {
				c := cfg
				c.SlowPath = slow
				m := mach.New(c)
				img.InstallTo(m)
				m.PageTouch = make([]uint64, m.Mem.Size()/mem.PageBytes)
				return m
			}
			fast, slow := mk(false), mk(true)
			for boundary := 0; ; boundary++ {
				target := fast.TotalRetired + lockstepStride
				fast.SetInstrBudget(target)
				slow.SetInstrBudget(target)
				rf := fast.Run(20_000_000_000)
				rs := slow.Run(20_000_000_000)
				if rf != rs {
					t.Fatalf("boundary %d (retired %d): stop fast=%v slow=%v", boundary, fast.TotalRetired, rf, rs)
				}
				if fast.TotalRetired != slow.TotalRetired {
					t.Fatalf("boundary %d: retired fast=%d slow=%d", boundary, fast.TotalRetired, slow.TotalRetired)
				}
				if !fast.Snapshot().StateEquals(slow) {
					ff, sf := fast.TotalStats(), slow.TotalStats()
					t.Fatalf("boundary %d (retired %d): state diverged\nfast stats: %+v\nslow stats: %+v",
						boundary, fast.TotalRetired, ff, sf)
				}
				if !slices.Equal(fast.PageTouch, slow.PageTouch) {
					t.Fatalf("boundary %d (retired %d): page-touch tables diverged", boundary, fast.TotalRetired)
				}
				if rf != mach.StopInstrBudget {
					if rf != mach.StopHalted {
						t.Fatalf("scenario did not halt: %v", rf)
					}
					if fast.ConsoleString() != slow.ConsoleString() {
						t.Fatalf("console diverged")
					}
					return
				}
			}
		})
	}
}
