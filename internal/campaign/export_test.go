package campaign

import (
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
