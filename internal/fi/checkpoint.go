// Checkpoint-accelerated injection: instead of re-executing every faulty
// machine from reset, a CheckpointSet holds snapshots of the fault-free
// machine spread over the application lifespan — states the golden run
// captured as it passed them, so a scenario is simulated fault-free once.
// Each injection run then restores the nearest snapshot strictly below its
// fault index and simulates only the remaining suffix. Because a snapshot
// restores the complete machine state (registers, RAM, caches, console,
// counters), the suffix interleaves and classifies bit-for-bit like a
// from-reset run: campaigns with checkpoints on and off produce identical
// Counts.
package fi

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"serfi/internal/cache"
	"serfi/internal/cc"
	"serfi/internal/fault"
	"serfi/internal/mach"
	"serfi/internal/mem"
)

// DefaultCheckpoints is the per-scenario snapshot count campaigns use when
// the caller does not choose one. More checkpoints shorten the average
// restored suffix and the interval a pruned run simulates before it is seen
// to have converged; since each checkpoint is a delta holding only the RAM
// pages dirtied and the cache-state chunks changed since its predecessor,
// the memory cost grows with what the guest wrote, not with images retained.
// 64 is measured, not guessed: the sweep over this count and candidateCap is
// in the CHANGES.md entry that raised it from 16.
const DefaultCheckpoints = 64

// CheckpointSet holds the pre-fault snapshots of one scenario, plus the
// image and configuration needed to stamp out machines. It is safe for
// concurrent use by any number of injection workers.
type CheckpointSet struct {
	img   *cc.Image
	cfg   mach.Config
	snaps []*mach.Snapshot // ascending by Retired(); one delta chain

	// final is the golden terminal RAM image chained after the last
	// checkpoint (nil on an empty set: runs classify against g.Final with a
	// full compare). Sharing the chain is what lets classify compare a
	// pooled machine over its dirty pages plus chain paths only.
	final *mem.Snapshot

	// pool recycles injection machines across InjectPoint calls (nil on an
	// empty set, which builds a fresh machine per run). A pooled machine's
	// memory keeps its tracking base, so restoring the next fault's
	// checkpoint rewrites just the pages that differ along the chain instead
	// of the whole RAM image — the restore-cost win this engine exists for.
	// Shared by Clone so all domains of a scenario reuse the same warm
	// machines.
	pool *sync.Pool

	// simulated accumulates retired instructions executed by Inject calls;
	// fromReset accumulates what those runs would have retired from reset.
	// The ratio is the engine's amortization win (reported by benchmarks).
	simulated atomic.Uint64
	fromReset atomic.Uint64
	// pruned/total count convergence-pruned and dead-fault runs versus all
	// injection runs (the per-scenario prune rate of campaign summaries).
	pruned atomic.Uint64
	total  atomic.Uint64
	// deadSets and deadState count the runs the set-stamp and the
	// dead-state rules decided, per set like pruned (they are among it).
	deadSets  atomic.Uint64
	deadState atomic.Uint64
}

// CheckpointOptions configures BuildCheckpointsOpt.
type CheckpointOptions struct {
	// N is the most checkpoints the set may hold (positions snap to the
	// golden run's candidate grid, and two targets can share one); n <= 0
	// yields an empty set: every injection runs from reset, with no
	// dead-fault rule and no convergence compare (the rule-free reference).
	N int
}

// BuildCheckpointsOpt builds a set of at most opt.N checkpoints spread over
// the application lifespan recorded in g, and simulates nothing to do it: the
// golden run already walked through every state a checkpoint could hold and
// kept candidates on a doubling grid (candidateCap). Golden.place picks the
// latest candidate at or below each target of the even rule; the RAM deltas
// of the candidates between two picks are squashed forward so the set is one
// short delta chain (the first checkpoint a full image, each later one the
// pages that differ from its predecessor), and the golden terminal image is
// chained on last. g is only read: the call can be repeated, with any N. It
// returns ctx.Err() on a cancelled context and an error once g's candidates
// have been released.
func BuildCheckpointsOpt(ctx context.Context, img *cc.Image, cfg mach.Config, g *Golden, opt CheckpointOptions) (*CheckpointSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cs := &CheckpointSet{img: img, cfg: cfg}
	if opt.N <= 0 {
		return cs, nil
	}
	if len(g.candidates) == 0 {
		return nil, fmt.Errorf("fi: golden run holds no checkpoint candidates (released)")
	}
	cs.snaps = mach.Squash(g.place(opt.N))
	// The terminal image joins the chain by page compare against the retained
	// golden machine's RAM.
	cs.final = cs.snaps[len(cs.snaps)-1].Mem().DeltaOf(g.Machine.Mem)
	cs.pool = &sync.Pool{New: func() any { return mach.New(cfg) }}
	return cs, nil
}

// Clone returns a set sharing this set's snapshots — immutable and safe to
// share — but with fresh savings/prune counters, so concurrent campaigns
// over the same scenario (one per fault domain) share one resident chain yet
// attribute their telemetry separately. The machine pool is shared too (all
// clones restore from the same chain).
func (cs *CheckpointSet) Clone() *CheckpointSet {
	return &CheckpointSet{img: cs.img, cfg: cs.cfg, snaps: cs.snaps, final: cs.final, pool: cs.pool}
}

// Close is a no-op kept for bench/'s calls (sets could once spill to disk): a set is plain memory.
func (cs *CheckpointSet) Close() error { return nil }

// Len returns the number of captured snapshots.
func (cs *CheckpointSet) Len() int { return len(cs.snaps) }

// MemBytes returns the set's resident payload (telemetry): every retained
// RAM page — each checkpoint's own pages plus, on a delta chain, the terminal
// image's, equal to the terminal image's ChainBytes for a linear chain — and
// every distinct cache-state chunk the checkpoints hold (mach.CacheBytes).
func (cs *CheckpointSet) MemBytes() int {
	n := mach.CacheBytes(cs.snaps)
	for _, s := range cs.snaps {
		n += s.MemBytes()
	}
	if cs.final != nil {
		n += cs.final.Bytes()
	}
	return n
}

// nearest returns the latest snapshot strictly before the absolute retired-
// instruction index at which a fault fires, or nil if none qualifies. The
// bound is strict because the injection hook triggers while committing
// instruction injectAt: a snapshot taken at that exact boundary has already
// retired it, and the fault would never fire.
func (cs *CheckpointSet) nearest(injectAt uint64) *mach.Snapshot {
	i := sort.Search(len(cs.snaps), func(i int) bool {
		return cs.snaps[i].Retired() >= injectAt
	})
	if i == 0 {
		return nil
	}
	return cs.snaps[i-1]
}

// RestoreNearest positions m at the latest checkpoint strictly before
// injectAt and reports whether one was found; when none qualifies (or the
// set is empty) the machine is left untouched and the caller should install
// the image from reset. Exported for the propagation tracer, whose twin
// machines must reach the injection boundary by exactly the restore path a
// campaign run took — restore telemetry is deliberately not recorded, so
// tracing does not skew the injection engine's own metrics.
func (cs *CheckpointSet) RestoreNearest(m *mach.Machine, injectAt uint64) bool {
	s := cs.nearest(injectAt)
	if s == nil {
		return false
	}
	m.Restore(s)
	return true
}

// InjectPoint runs one fault of any domain, restoring the nearest pre-fault
// snapshot instead of booting from reset when one is available. The Result
// is bit-identical to the same fault injected through an empty set, which
// runs every fault from reset.
//
// On top of snapshot restarts, InjectPoint prunes converged runs: execution
// pauses at each later checkpoint boundary, and if the faulty machine's
// complete state is bit-identical to the fault-free snapshot there, its
// continuation is provably the golden continuation — the run is scored
// Vanished with the golden run's terminal numbers without simulating the
// remaining suffix. Most masked register faults (a flipped bit that is
// overwritten before being read) converge at the first boundary after
// injection, and so does a cache strike on an invalid line, whose fields no
// lookup reads (cache.HierState.Equals). A flip that persists in RAM can
// never converge: an instruction word runs to completion, and so does a data
// word the guest still accesses; a data word on a page the golden run never
// touches again is not simulated at all (deadWord). An empty set takes no
// shortcut: it consults no record, reaches no boundary and simulates every
// fault from reset, as the reference the product path is tested against.
func (cs *CheckpointSet) InjectPoint(d fault.Domain, g *Golden, p Fault) Result {
	res, _ := cs.InjectPointContext(context.Background(), d, g, p)
	return res
}

// InjectPointContext is InjectPoint with cancellation: the run polls ctx
// between checkpoint-boundary stages and between suffix run slices. A
// cancelled run returns ctx.Err() with a zero Result and leaves the set's
// telemetry counters untouched (an aborted run never counts); a completed
// run is bit-identical to InjectPoint.
func (cs *CheckpointSet) InjectPointContext(ctx context.Context, d fault.Domain, g *Golden, p Fault) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	var m *mach.Machine
	injectAt := g.AppStart + p.Index
	// The dead-fault rules apply only on a set that holds checkpoints
	// (cs.pool != nil): an empty set is the rule-free reference.
	if cs.pool != nil && d.Model() == fault.Mem && cs.deadWord(g, injectAt, p) {
		// Until its first access the faulty run is the golden run, and the
		// golden run has none: it ends as the golden run did, with the
		// flipped word still in RAM. No machine is built.
		res := goldenResult(g, p, ONA)
		cs.count(res, 0, true)
		obsDeadFaultRuns.Inc()
		return res, nil
	}
	if cs.pool != nil && deadSet(d.Model(), g, injectAt, p) {
		// No later access reads the struck set's metadata, and classify
		// reads no cache state: the run is the golden run.
		res := goldenResult(g, p, Vanished)
		cs.count(res, 0, true)
		cs.deadSets.Add(1)
		obsDeadSetRuns.Inc()
		return res, nil
	}
	if s := cs.nearest(injectAt); s != nil {
		// A recycled machine still carries its last restore as the memory's
		// tracking base, so this Restore rewrites only the pages that differ
		// along the chain between the two checkpoints. Restore overwrites all
		// execution state and armFault/runCtx re-arm the injection hook and
		// instruction budget, so no other cleaning is needed.
		m = cs.pool.Get().(*mach.Machine)
		defer cs.pool.Put(m)
		t0 := time.Now()
		m.Restore(s)
		obsRestoreSeconds.Observe(time.Since(t0).Seconds())
	} else {
		m = mach.New(cs.cfg)
		cs.img.InstallTo(m)
		obsFromResetRuns.Inc()
	}
	start := m.TotalRetired
	armFault(m, d, g, p)
	budget := HangBudget(g.Cycles)

	res, pruned, dead := Result{}, false, false
	stop := mach.StopInstrBudget
	var compare time.Duration // convergence compares of this run, summed
	// Run in stages, pausing at each checkpoint boundary past the fault.
	next := sort.Search(len(cs.snaps), func(i int) bool {
		return cs.snaps[i].Retired() > injectAt
	})
	for ; next < len(cs.snaps); next++ {
		var err error
		if stop, err = runCtx(ctx, m, cs.snaps[next].Retired(), budget); err != nil {
			return Result{}, err
		}
		if stop != mach.StopInstrBudget {
			break // halted, hung or deadlocked before the boundary
		}
		t0 := time.Now()
		// Converged, or converged modulo dead state: what differs is only
		// ever moved from here on, never read.
		var converged, kept bool
		converged, dead, kept = cs.snaps[next].DeadDiff(m)
		compare += time.Since(t0)
		if converged {
			// The rest of the run is the golden run, carrying any kept copy
			// of a dead value to its end.
			o := Vanished
			if kept {
				o = ONA
			}
			res, pruned = goldenResult(g, p, o), true
			break
		}
	}
	if !pruned {
		if stop == mach.StopInstrBudget {
			var err error
			if stop, err = runCtx(ctx, m, 0, budget); err != nil {
				return Result{}, err
			}
		}
		final := cs.final
		if final == nil {
			final = g.Final // an empty set has no chain: every page is compared
		}
		res = finishFault(m, g, final, p, stop)
	}
	cs.count(res, m.TotalRetired-start, pruned)
	if pruned {
		obsPruned.Inc()
	}
	if dead {
		cs.deadState.Add(1)
		obsDeadStateRuns.Inc()
	}
	if compare > 0 {
		obsConvergeSeconds.Observe(compare.Seconds())
	}
	return res, nil
}

// goldenResult is the record of a run proven to end as the golden run did.
func goldenResult(g *Golden, p Fault, o Outcome) Result {
	return Result{Fault: p, Outcome: o, Retired: g.Retired, Cycles: g.Cycles, ExitCode: g.ExitCode, Signal: g.Signal}
}

// count books one completed run that simulated n instructions; pruned runs
// are those scored without reaching the end (converged, or a dead fault).
func (cs *CheckpointSet) count(res Result, n uint64, pruned bool) {
	cs.simulated.Add(n)
	cs.fromReset.Add(res.Retired)
	cs.total.Add(1)
	if pruned {
		cs.pruned.Add(1)
	}
	obsInstrsPerInject.Observe(float64(n))
	obsInjections.Inc()
}

// deadWord reports whether a mem strike that fires after instruction
// injectAt can never be consumed: the flip fires and changes the word, the
// word lies outside every executable region (fetches are not recorded, so
// such pages are never dead), and the golden run's last load or store in its
// page(s) retired no later than injectAt. A mem flip writes RAM only,
// never the cache model, so nothing else can observe the flip.
func (cs *CheckpointSet) deadWord(g *Golden, injectAt uint64, p Fault) bool {
	first, last := uint64(p.Addr)/mem.PageBytes, (uint64(p.Addr)+3)/mem.PageBytes
	if injectAt > g.Retired || uint32(p.Mask()) == 0 || last >= uint64(len(g.PageTouch)) ||
		g.PageTouch[first] > injectAt || g.PageTouch[last] > injectAt {
		return false
	}
	for _, r := range cs.img.Regions {
		if r.Perm&mem.PermX != 0 && p.Addr < r.End && r.Start <= p.Addr+3 { // Addr+3 is in RAM: no wrap
			return false
		}
	}
	return true
}

// deadSet reports whether a cache metadata strike that fires after
// instruction injectAt lands on a set no later access reads: the golden
// run's last access to the set (cache.Hierarchy.SetStamp) came before the
// hook of injectAt. Tag, status and LRU bits of such a set steer nothing.
func deadSet(model fault.Model, g *Golden, injectAt uint64, p Fault) bool {
	switch model {
	case fault.CacheTag, fault.CacheDirty, fault.CacheRepl:
		return injectAt <= g.Retired && g.Machine.Hier.SetStamp(cache.Level(p.Level), p.Core, p.Addr) <= injectAt
	}
	return false
}

// InjectRangeContext runs the contiguous fault sublist faults[lo:hi]
// through the set in index order and returns one Result per fault. This is
// the shard execution primitive of the distributed fabric (internal/dist):
// a worker that holds a lease on the index range [lo, hi) of a campaign's
// fault list replays exactly that slice over its local CheckpointSet, and
// because every run is independent and bit-identical to InjectPoint, the
// concatenation of shard results equals a single-process campaign over the
// whole list. A cancelled range returns ctx.Err() with a nil slice; the
// set's telemetry counters record only the completed runs.
func (cs *CheckpointSet) InjectRangeContext(ctx context.Context, d fault.Domain, g *Golden, faults []Fault, lo, hi int) ([]Result, error) {
	if lo < 0 || hi > len(faults) || lo > hi {
		return nil, fmt.Errorf("fi: fault range [%d, %d) outside list of %d", lo, hi, len(faults))
	}
	out := make([]Result, 0, hi-lo)
	for i := lo; i < hi; i++ {
		r, err := cs.InjectPointContext(ctx, d, g, faults[i])
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// SimulatedInstructions returns (executed, fromReset): retired instructions
// actually simulated by this set's Inject calls versus what the same runs
// would have cost from reset.
func (cs *CheckpointSet) SimulatedInstructions() (executed, fromReset uint64) {
	return cs.simulated.Load(), cs.fromReset.Load()
}

// DeadRuns returns the runs of this set decided by the set-stamp rule
// (cache strikes, no machine) and by the dead-state rule (stopped at a
// checkpoint): two parts of the pruned count of PruneStats.
func (cs *CheckpointSet) DeadRuns() (sets, state uint64) {
	return cs.deadSets.Load(), cs.deadState.Load()
}

// PruneStats returns (pruned, total): injection runs scored by convergence
// pruning or decided as dead faults versus all runs injected through this set.
func (cs *CheckpointSet) PruneStats() (pruned, total uint64) {
	return cs.pruned.Load(), cs.total.Load()
}
