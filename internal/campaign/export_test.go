package campaign

// FullCopySnapshots selects the pre-delta checkpoint engine — every
// checkpoint a complete sparse RAM copy, every injection on a fresh
// machine (fi.CheckpointOptions.FullCopy). It exists only for tests: the
// differential reference TestCOWCheckpointsGoldenCompat holds the
// copy-on-write engine against.
func FullCopySnapshots() Option { return func(e *Engine) { e.fullCopy = true } }
