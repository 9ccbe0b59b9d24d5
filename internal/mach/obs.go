// Telemetry instruments for the simulation kernel, registered on the
// process-wide obs.Default registry. All updates are batched at the Run
// boundary: one set of atomic adds per run slice, accumulated locally
// inside the loops — never per retired instruction, per the obs package's
// off-hot-path rule (the lockstep suites pin the determinism contract,
// guest_mips on the sim_golden benchmark workload the overhead budget).
package mach

import (
	"serfi/internal/cache"
	"serfi/internal/obs"
)

var (
	obsRetired = obs.Default.CounterVec("serfi_mach_retired_instructions_total", "Instructions retired across all machines, by execution engine.", "engine")
	obsRuns    = obs.Default.CounterVec("serfi_mach_runs_total", "Machine Run invocations (one per run slice), by execution engine.", "engine")

	obsRetiredFast = obsRetired.With("fast")
	obsRetiredSlow = obsRetired.With("slow")
	obsRunsFast    = obsRuns.With("fast")
	obsRunsSlow    = obsRuns.With("slow")

	obsFallbackSteps = obs.Default.Counter("serfi_mach_fastpath_fallback_steps_total", "Reference-interpreter single steps taken by the fast path between cursor-group runs.")

	// Cache-hierarchy counters, labeled by level (l1i/l1d/l2). Like the
	// retirement counters above, they are batched per Run slice: the
	// hierarchy's own Stats accumulate inside the access paths and the delta
	// over the slice is added here, so tag-flip-induced spurious writebacks
	// and silent evictions are observable without touching the hot path.
	obsCacheEvictions  = obs.Default.CounterVec("serfi_cache_evictions_total", "Cache lines evicted on allocation, by hierarchy level.", "level")
	obsCacheWritebacks = obs.Default.CounterVec("serfi_cache_writebacks_total", "Dirty lines written back (capacity evictions and coherence invalidations), by hierarchy level.", "level")

	obsCacheEvict = [cache.NumLevels]obs.Counter{
		obsCacheEvictions.With(cache.L1I.String()),
		obsCacheEvictions.With(cache.L1D.String()),
		obsCacheEvictions.With(cache.L2.String()),
	}
	obsCacheWB = [cache.NumLevels]obs.Counter{
		obsCacheWritebacks.With(cache.L1I.String()),
		obsCacheWritebacks.With(cache.L1D.String()),
		obsCacheWritebacks.With(cache.L2.String()),
	}
)

// cacheTotals is the eviction/writeback census of a machine's hierarchy at
// one instant, used to compute per-Run-slice deltas.
type cacheTotals [cache.NumLevels]cache.Stats

func (m *Machine) cacheCensus() cacheTotals {
	var t cacheTotals
	for l := cache.Level(0); l < cache.NumLevels; l++ {
		t[l] = m.Hier.LevelStats(l)
	}
	return t
}

// observeCacheDelta batches the slice's cache activity into the registry.
// Restores never happen inside a Run slice, so the counters only grow
// between the two censuses and the delta is non-negative.
func observeCacheDelta(before, after cacheTotals) {
	for l := cache.Level(0); l < cache.NumLevels; l++ {
		if d := after[l].Evictions - before[l].Evictions; d > 0 {
			obsCacheEvict[l].Add(float64(d))
		}
		if d := after[l].Writeback - before[l].Writeback; d > 0 {
			obsCacheWB[l].Add(float64(d))
		}
	}
}
