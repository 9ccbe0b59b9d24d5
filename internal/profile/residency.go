// ACE-like residency sampling: a deterministic re-walk of the golden run
// that records, at fixed retired-instruction windows across the
// application lifespan, which PC each core was executing. The sensitivity
// attribution layer (internal/sens) joins an injection's (time, core)
// coordinate against these windows to name the function that was live when
// the fault struck — the program-structure axis of the paper's §3.4
// cross-layer mining. The walk is pure observation over the deterministic
// simulator; campaign.Group.Residency runs it over the group's own golden
// lifespan, so a group rebuilt from a database row's scenario ID and seed
// reproduces it long after the campaign ran.
package profile

import (
	"fmt"

	"serfi/internal/cc"
	"serfi/internal/mach"
)

// residencyWindows is the window count SampleResidency samples: fine enough
// to resolve phase changes in the NPB kernels, coarse enough that the whole
// table stays a few KB.
const residencyWindows = 256

// Residency holds per-core PC samples over the application lifespan
// [Start, End) in retired instructions, one row per Stride-sized window.
// PCs[w][c] is core c's program counter at the boundary that opens window
// w, i.e. at retirement Start + w*Stride.
type Residency struct {
	Start  uint64
	End    uint64
	Stride uint64
	PCs    [][]uint32
}

// SampleResidency re-runs a scenario's golden execution and samples every
// core's PC at window boundaries across [start, end) retired instructions
// (the application lifespan of the golden summary), residencyWindows times.
// budget is the cycle budget of one full run (the golden cycle count with
// hang slack).
func SampleResidency(img *cc.Image, cfg mach.Config, start, end, budget uint64) (*Residency, error) {
	if end <= start {
		return nil, fmt.Errorf("profile: empty application lifespan [%d,%d)", start, end)
	}
	stride := (end - start + residencyWindows - 1) / residencyWindows
	m := mach.New(cfg)
	img.InstallTo(m)
	r := &Residency{Start: start, End: end, Stride: stride}
	for at := start; at < end; at += stride {
		m.SetInstrBudget(at)
		if stop := m.Run(budget); stop != mach.StopInstrBudget {
			return nil, fmt.Errorf("profile: residency walk stopped early: %v at %d (want %d)",
				stop, m.TotalRetired, at)
		}
		pcs := make([]uint32, len(m.Cores))
		for i := range m.Cores {
			pcs[i] = uint32(m.Cores[i].PC)
		}
		r.PCs = append(r.PCs, pcs)
	}
	return r, nil
}

// PC returns the sampled program counter of core at a fault index
// (committed instructions past Start — the fault.Point.Index convention).
// ok is false when the index or core falls outside the sampled table.
func (r *Residency) PC(index uint64, core int) (uint32, bool) {
	if r == nil || r.Stride == 0 || len(r.PCs) == 0 {
		return 0, false
	}
	w := int(index / r.Stride)
	if w >= len(r.PCs) {
		w = len(r.PCs) - 1
	}
	if core < 0 || core >= len(r.PCs[w]) {
		return 0, false
	}
	return r.PCs[w][core], true
}

// Func names the function live on core at the given fault index, through
// the image's symbol table; "" when the index is outside the table or the
// PC resolves to no symbol.
func (r *Residency) Func(img *cc.Image, index uint64, core int) string {
	pc, ok := r.PC(index, core)
	if !ok {
		return ""
	}
	return img.FuncAt(pc)
}
