// Telemetry instruments for the memory layer, registered on the process-
// wide obs.Default registry. Updates happen only at snapshot and restore
// operation boundaries — markPage and the load/store paths are never
// instrumented, per the obs package's off-hot-path rule.
package mem

import "serfi/internal/obs"

var (
	obsSnapshots     = obs.Default.CounterVec("serfi_mem_snapshots_total", "RAM snapshots captured, by capture kind.", "kind")
	obsSnapshotPages = obs.Default.CounterVec("serfi_mem_snapshot_pages_total", "Pages captured into snapshots, by capture kind.", "kind")
	obsRestores      = obs.Default.CounterVec("serfi_mem_restores_total", "Snapshot restores, selective (chain-walk page rewrite) vs full image rebuild.", "mode")

	obsSnapshotFull       = obsSnapshots.With("full")
	obsSnapshotDelta      = obsSnapshots.With("delta")
	obsSnapshotPagesFull  = obsSnapshotPages.With("full")
	obsSnapshotPagesDelta = obsSnapshotPages.With("delta")
	obsRestoreSelective   = obsRestores.With("selective")
	obsRestoreFull        = obsRestores.With("full")

	obsRestorePages = obs.Default.Counter("serfi_mem_restore_pages_total", "Pages rewritten by selective restores.")
)
