package fi

import (
	"context"

	"serfi/internal/fault"
	"serfi/internal/mach"
)

// PrunedExactly replays p the way InjectPoint runs it on this set — a fresh
// machine restored from the nearest checkpoint below the fault, paused at
// each later boundary — and, at the first boundary where the product path's
// rule (DeadDiff) stops the run, reports whether the state there also equals
// the checkpoint bit for bit, cache fields no lookup reads included
// (StateEqualsExact). pruned is false when no boundary stops the run.
func (cs *CheckpointSet) PrunedExactly(d fault.Domain, g *Golden, p Fault) (exact, pruned bool) {
	injectAt := g.AppStart + p.Index
	s := cs.nearest(injectAt)
	if s == nil {
		return false, false
	}
	m := mach.New(cs.cfg)
	m.Restore(s)
	armFault(m, d, g, p)
	for _, b := range cs.snaps {
		if b.Retired() <= injectAt {
			continue
		}
		if stop, _ := runCtx(context.Background(), m, b.Retired(), HangBudget(g.Cycles)); stop != mach.StopInstrBudget {
			return false, false
		}
		if converged, _, _ := b.DeadDiff(m); converged {
			return b.StateEqualsExact(m), true
		}
	}
	return false, false
}
