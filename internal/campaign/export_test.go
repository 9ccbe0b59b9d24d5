package campaign

import (
	"time"

	"serfi/internal/cc"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/jsonl"
	"serfi/internal/mach"
)

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
func SetOpenLog(f func(path string, n int64) (*jsonl.Log, error)) (restore func()) {
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
