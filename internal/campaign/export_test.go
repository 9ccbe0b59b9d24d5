package campaign

import (
	"context"
	"time"

	"serfi/internal/cc"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/jsonl"
	"serfi/internal/mach"
)

// FullCopySnapshots selects the pre-delta checkpoint engine — every
// checkpoint a complete sparse RAM copy, every injection on a fresh
// machine (fi.CheckpointOptions.FullCopy). It exists only for tests: the
// differential reference TestCOWCheckpointsGoldenCompat holds the
// copy-on-write engine against.
func FullCopySnapshots() Option { return func(e *Engine) { e.fullCopy = true } }

// JobSize groups faults into injection jobs of n (the product always uses
// DefaultJobSize): the partition-invariance tests vary it, since outcomes
// must not depend on how a campaign is cut into jobs.
func JobSize(n int) Option { return func(e *Engine) { e.jobSize = n } }

// SetNewDomain swaps the constructor of every group's fault domains and
// returns the call that puts the real one back.
func SetNewDomain(f func(fault.Model, *cc.Image, mach.Config, *fi.Golden) (fault.Domain, error)) (restore func()) {
	old := newDomain
	newDomain = f
	return func() { newDomain = old }
}

// SetOpenLog swaps how every durable file of the package (the FileStore's
// database, a partition's active segment) is opened for appending, and
// returns the call that puts jsonl.Open back.
func SetOpenLog(f func(path string, n int64, sync bool) (*jsonl.Log, error)) (restore func()) {
	old := openLog
	openLog = f
	return func() { openLog = old }
}

// SetMergeOps swaps how a merge unlinks its sources and renames its result
// into place, and returns the call that puts os.Remove and os.Rename back.
func SetMergeOps(remove func(string) error, rename func(string, string) error) (restore func()) {
	oldRemove, oldRename := removeFile, renameFile
	removeFile, renameFile = remove, rename
	return func() { removeFile, renameFile = oldRemove, oldRename }
}

// SetCollectorClock replaces the wall clock c reads for its rate epoch and
// progress-line rate column.
func SetCollectorClock(c *Collector, now func() time.Time) { c.now = now }

// DeadStateRuns runs model's n-fault list through a fresh clone of the
// group's checkpoint set and returns how many runs the dead-state rule
// stopped (fi.CheckpointSet.DeadRuns): the runs on which a campaign's
// prune and simulation telemetry may differ from the FullCopy reference's.
func (g *Group) DeadStateRuns(ctx context.Context, model fault.Model, n int) (uint64, error) {
	dom, faults, err := g.list(model, n)
	if err != nil {
		return 0, err
	}
	cs := g.cs.Clone()
	for _, f := range faults {
		if _, err := cs.InjectPointContext(ctx, dom, g.g, f); err != nil {
			return 0, err
		}
	}
	_, state := cs.DeadRuns()
	return state, nil
}
