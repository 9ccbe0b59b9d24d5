// Group · shard · fold: what every execution path of a campaign does,
// written once. A Group is the fault-free half of one (scenario, seed)
// pair; Group.Inject, the shard executor, runs one fault-index range of one
// domain through it; a Fold turns a campaign's Shards into its Result. The
// local Engine and the distributed fabric (internal/dist) consume exactly
// these and differ only in who schedules the shards and how a Shard
// travels to its Fold.
package campaign

import (
	"context"
	"fmt"
	"sync"
	"time"

	"serfi/internal/cc"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/mach"
	"serfi/internal/npb"
	"serfi/internal/obs"
	"serfi/internal/profile"
	"serfi/internal/prop"
)

// DefaultSamplePeriod is the golden profiling sample period of every
// Group. Not a knob: Features land in the database, so a worker profiling
// at another period would break the byte-identity of distributed rows.
const DefaultSamplePeriod = 97

// GroupKey names the Group that campaigns of one (scenario ID, seed) share.
func GroupKey(scenarioID string, seed int64) string {
	return fmt.Sprintf("%s/%d", scenarioID, seed)
}

// Group holds the fault-free phases of one (scenario, seed) pair — image,
// profiled golden run, flat profile, features, checkpoint set, propagation
// tracer and each domain's frozen fault list — run once by BuildGroup and
// shared by every domain campaign and every shard. It is the only code that
// runs a scenario's golden execution: `serfi golden` prints one and the
// sensitivity join (internal/sens) reads one. It is safe for concurrent use.
type Group struct {
	Features      profile.Features
	APICalls      uint64  // calls into the parallelization runtime
	GoldenWallSec float64 // host wall clock of image build + profiled golden run

	sc        npb.Scenario
	seed      int64 // fault-list seed every domain of the group draws from
	img       *cc.Image
	cfg       mach.Config
	g         *fi.Golden
	prof      *profile.Profile
	cs        *fi.CheckpointSet // base set; every Inject runs through a clone
	tracer    *prop.Tracer
	residency func() (*profile.Residency, error)

	mu    sync.Mutex
	lists map[listKey]faultList
}

// listKey identifies one cached fault list (campaigns of different sizes
// over one group draw different lists).
type listKey struct {
	model fault.Model
	n     int
}

type faultList struct {
	dom    fault.Domain
	faults []fi.Fault
}

// newDomain builds a group's fault domains. A variable so that tests can
// plant a domain that misbehaves; nothing else assigns it.
var newDomain = fi.NewDomain

// BuildGroup runs the fault-free phases: image build, profiled golden run
// (the scenario's only fault-free simulation; it captures the checkpoint
// candidates), feature and API-call extraction, and checkpoint selection for
// machines of the unprofiled configuration; the candidates not selected are
// dropped before it returns. snapshots is the checkpoint count, as in
// fi.CheckpointOptions (<= 0: none, every fault runs from reset). A
// non-nil tracer receives one span per phase (build, golden, profile,
// checkpoint) on the group's track. A group is plain memory: drop the
// reference when its last shard has run.
func BuildGroup(ctx context.Context, sc npb.Scenario, seed int64, snapshots int, tracer *obs.Tracer) (*Group, error) {
	t0 := time.Now()
	tid := tracer.TID(GroupKey(sc.ID(), seed))
	endSpan := tracer.Start("build", "build", tid, nil)
	img, cfg, err := npb.BuildScenario(sc)
	endSpan()
	if err != nil {
		return nil, err
	}
	gcfg := cfg
	gcfg.SamplePeriod = DefaultSamplePeriod
	endSpan = tracer.Start("golden", "golden", tid, nil)
	g, err := fi.RunGoldenContext(ctx, img, gcfg, 0)
	endSpan()
	if err != nil {
		return nil, err
	}
	grp := &Group{
		sc:            sc,
		seed:          seed,
		GoldenWallSec: time.Since(t0).Seconds(),
		img:           img,
		cfg:           cfg,
		g:             g,
		lists:         make(map[listKey]faultList),
	}
	endSpan = tracer.Start("profile", "profile", tid, nil)
	grp.Features = profile.Extract(img, g.Machine)
	grp.prof = profile.Build(img, g.Machine)
	grp.APICalls = grp.prof.CallsTo(profile.RuntimePrefixes...)
	endSpan()
	grp.residency = sync.OnceValues(func() (*profile.Residency, error) {
		return profile.SampleResidency(img, cfg, g.AppStart, g.AppEnd, fi.HangBudget(g.Cycles))
	})

	endSpan = tracer.Start("checkpoint", "checkpoint", tid, nil)
	grp.cs, err = fi.BuildCheckpointsOpt(ctx, img, cfg, g, fi.CheckpointOptions{N: snapshots})
	endSpan()
	g.ReleaseCandidates()
	if err != nil {
		return nil, err
	}
	grp.tracer = prop.NewTracer(img, cfg, g, grp.cs)
	return grp, nil
}

// Summary returns the golden run's headline numbers.
func (g *Group) Summary() GoldenSummary {
	return GoldenSummary{
		AppStart: g.g.AppStart,
		AppEnd:   g.g.AppEnd,
		Retired:  g.g.Retired,
		Cycles:   g.g.Cycles,
	}
}

// Scenario returns the scenario the group was built from.
func (g *Group) Scenario() npb.Scenario { return g.sc }

// Image returns the scenario's linked image: symbols and mapped regions.
func (g *Group) Image() *cc.Image { return g.img }

// Golden returns the profiled golden run: console, lifespan and the halted
// machine. Callers read it; they must not run or mutate the machine.
func (g *Group) Golden() *fi.Golden { return g.g }

// Profile returns the golden run's flat profile.
func (g *Group) Profile() *profile.Profile { return g.prof }

// Residency returns the per-core PC samples over the golden lifespan
// (profile.SampleResidency), walked on the first call and shared after it.
// No injection path calls it: only the sensitivity join pays for the walk.
func (g *Group) Residency() (*profile.Residency, error) { return g.residency() }

// Checkpoints returns the snapshot count and the set's resident payload,
// distinct RAM pages and cache-state chunks (fi.CheckpointSet.MemBytes).
func (g *Group) Checkpoints() (n, residentBytes int) {
	return g.cs.Len(), g.cs.MemBytes()
}

// list returns model's domain and the campaign's complete n-fault list,
// drawn from the group seed on first use (concurrent needers wait).
func (g *Group) list(model fault.Model, n int) (fault.Domain, []fi.Fault, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	key := listKey{model, n}
	if l, ok := g.lists[key]; ok {
		return l.dom, l.faults, nil
	}
	dom, err := newDomain(model, g.img, g.cfg, g.g)
	if err != nil {
		return nil, nil, err
	}
	l := faultList{dom: dom, faults: fi.List(g.seed, n, dom)}
	g.lists[key] = l
	return l.dom, l.faults, nil
}

// Shard is one executed fault-index range: per-fault results in index
// order, their propagation traces when asked for (parallel to Runs, nil
// for masked runs), and the snapshot engine's counters for these runs.
type Shard struct {
	Runs   []fi.Result
	Traces []*prop.Trace
	// Instructions simulated versus their from-reset cost, and runs scored
	// by convergence pruning. All zero when the group has no checkpoints:
	// Result.SnapshotSavings reads the zeros as "not accelerated".
	SimulatedInstr uint64
	FromResetInstr uint64
	PrunedRuns     int
}

// ShardRanges partitions an n-fault campaign into [lo, hi) ranges of at most
// size (> 0) faults, in index order — the one partition rule behind engine
// jobs and coordinator leases. A zero-fault
// campaign is one empty range: some executor must still visit it, so that
// a domain the scenario cannot host fails the campaign and, on a cluster,
// the group metadata reaches the fold.
func ShardRanges(n, size int) [][2]int {
	var out [][2]int
	for lo := 0; lo < n || lo == 0; lo += size {
		out = append(out, [2]int{lo, min(lo+size, n)})
	}
	return out
}

// Inject executes faults [lo, hi) of model's n-fault list: an engine
// injection job or a leased shard. Runs are independent, so shards over
// any partition of [0, n) concatenate to one shard over the whole range.
// With traceProp every unmasked run is re-run against a golden twin, whose
// outcome must be the run's. Only cancellation returns ctx's error; any
// other error (a domain the scenario cannot host, a tracer failure, a twin
// that disagrees, a host panic) is fatal for the campaign.
//
// The simulator is meant to be total — whatever a fault does to the guest is
// a classified outcome — so a host panic during a run is a bug. Inject is the
// one place every run passes through, and its last-resort guard turns such a
// panic into an error naming the fault that was in flight: the engine fails
// that campaign and a worker that shard, the process and its other campaigns
// carry on, and the tuple in the message replays the crash.
func (g *Group) Inject(ctx context.Context, model fault.Model, n, lo, hi int, traceProp bool) (sh Shard, err error) {
	dom, faults, err := g.list(model, n)
	if err != nil {
		return Shard{}, err
	}
	if lo < 0 || hi > len(faults) || lo > hi {
		return Shard{}, fmt.Errorf("fault range [%d, %d) outside list of %d", lo, hi, len(faults))
	}
	at := lo // the fault in flight
	// name renders the fault in flight for an error report; its tuple
	// replays the run.
	name := func() string {
		env := fault.Env{Feat: g.cfg.ISA.Feat(), Regions: g.img.Regions}
		return fmt.Sprintf("%s domain %s at fault %d (%s)", g.sc.ID(), model, at, faults[at].Format(env))
	}
	defer func() {
		if r := recover(); r != nil {
			obsHostPanics.Inc()
			sh, err = Shard{}, fmt.Errorf("host panic in %s: %v", name(), r)
		}
	}()
	// A clone shares the immutable snapshots but counts only this shard.
	cs := g.cs.Clone()
	sh.Runs = make([]fi.Result, 0, hi-lo)
	if traceProp {
		sh.Traces = make([]*prop.Trace, hi-lo)
	}
	for ; at < hi; at++ {
		r, err := cs.InjectPointContext(ctx, dom, g.g, faults[at])
		if err != nil {
			return Shard{}, err
		}
		sh.Runs = append(sh.Runs, r)
		if traceProp && fi.IsUnmasked(r.Outcome) {
			tr, twin, err := g.tracer.Trace(dom, faults[at])
			if err != nil {
				return Shard{}, fmt.Errorf("propagation trace %v: %w", faults[at], err)
			}
			if twin != r.Outcome {
				return Shard{}, fmt.Errorf("propagation twin disagrees in %s: injected run %v, twin %v", name(), r.Outcome, twin)
			}
			sh.Traces[at-lo] = &tr
		}
	}
	if cs.Len() > 0 {
		sh.SimulatedInstr, sh.FromResetInstr = cs.SimulatedInstructions()
		pruned, _ := cs.PruneStats()
		sh.PrunedRuns = int(pruned)
	}
	return sh, nil
}

// Fold accumulates the shards of one (scenario, domain) campaign by
// fault-index range and yields its Result. Not self-locking: the engine
// guards it with the campaign's mutex, the coordinator with its own.
type Fold struct {
	Job       ScenarioJob
	Faults    int
	TraceProp bool
	// Live progress for status surfaces: runs folded so far, and those
	// among them with an unmasked outcome (unfolded run slots are zero
	// values that would pass for Vanished — never count those).
	Folded   int
	Unmasked int

	runs      []fi.Result
	traces    []*prop.Trace
	jobWall   float64
	simulated uint64
	fromReset uint64
	pruned    int
}

// NewFold returns the empty fold of one campaign.
func NewFold(job ScenarioJob, faults int, traceProp bool) Fold {
	f := Fold{Job: job, Faults: faults, TraceProp: traceProp, runs: make([]fi.Result, faults)}
	if traceProp {
		f.traces = make([]*prop.Trace, faults)
	}
	return f
}

// Add folds the shard executed over [lo, hi) in wallSec host seconds; one
// whose shape does not match its range, that holds an outcome code outside
// the taxonomy (a shard off the wire is outside input: Result would index
// fi.Counts with it), or whose traces are not exactly those of its unmasked
// runs (what Inject produces), is rejected untouched. Each range is added
// once (the engine's job list and the lease table guarantee it).
func (f *Fold) Add(lo, hi int, sh Shard, wallSec float64) error {
	if len(sh.Runs) != hi-lo {
		return fmt.Errorf("shard [%d,%d) returned %d runs", lo, hi, len(sh.Runs))
	}
	if f.TraceProp && len(sh.Traces) != len(sh.Runs) {
		return fmt.Errorf("shard [%d,%d) returned %d traces for %d runs (tracing requested)",
			lo, hi, len(sh.Traces), len(sh.Runs))
	}
	for i, r := range sh.Runs {
		if r.Outcome < 0 || r.Outcome >= fi.NumOutcomes {
			return fmt.Errorf("shard [%d,%d) run %d has outcome code %d outside [0,%d)", lo, hi, lo+i, int(r.Outcome), int(fi.NumOutcomes))
		}
		if f.TraceProp && (sh.Traces[i] != nil) != fi.IsUnmasked(r.Outcome) {
			return fmt.Errorf("shard [%d,%d) run %d: %v run with trace %v, want a trace exactly on unmasked runs",
				lo, hi, lo+i, r.Outcome, sh.Traces[i] != nil)
		}
	}
	if f.TraceProp {
		copy(f.traces[lo:hi], sh.Traces)
	}
	copy(f.runs[lo:hi], sh.Runs)
	f.Folded += len(sh.Runs)
	for _, r := range sh.Runs {
		if fi.IsUnmasked(r.Outcome) {
			f.Unmasked++
		}
	}
	f.simulated += sh.SimulatedInstr
	f.fromReset += sh.FromResetInstr
	f.pruned += sh.PrunedRuns
	f.jobWall += wallSec
	return nil
}

// Result assembles the campaign's record from the folded shards plus the
// group metadata all of them share. The caller stamps what only it knows:
// GoldenWallSec and CampaignWallSec.
func (f *Fold) Result(golden GoldenSummary, features profile.Features, apiCalls uint64) *Result {
	res := &Result{
		Scenario:       f.Job.Scenario,
		Domain:         f.Job.Domain,
		Faults:         f.Faults,
		Seed:           f.Job.Seed,
		Golden:         golden,
		Features:       features,
		APICalls:       apiCalls,
		Runs:           f.runs,
		Traces:         f.traces,
		Prop:           prop.Summarize(f.traces),
		JobWallSec:     f.jobWall,
		SimulatedInstr: f.simulated,
		FromResetInstr: f.fromReset,
		PrunedRuns:     f.pruned,
	}
	for _, r := range f.runs {
		res.Counts.Add(r.Outcome)
	}
	return res
}
