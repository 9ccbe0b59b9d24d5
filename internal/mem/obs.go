// Telemetry instruments for the memory layer, registered on the process-
// wide obs.Default registry. Updates happen only at snapshot and restore
// operation boundaries — the load/store paths are never instrumented, per
// the obs package's off-hot-path rule.
package mem

import "serfi/internal/obs"

// Every capture shares its pages with the memory and every restore repoints
// only the pages that differ, so each family carries one label value, kept
// for the readers of the exposition.
var (
	obsSnapshots     = obs.Default.CounterVec("serfi_mem_snapshots_total", "RAM snapshots captured; every capture shares its pages (kind is always delta).", "kind").With("delta")
	obsSnapshotPages = obs.Default.CounterVec("serfi_mem_snapshot_pages_total", "Private pages snapshots took over from their memory, each copied on a first write since the previous capture or restore (kind is always delta).", "kind").With("delta")
	obsRestores      = obs.Default.CounterVec("serfi_mem_restores_total", "Snapshot restores; every restore repoints only the pages that differ (mode is always selective).", "mode").With("selective")
	obsRestorePages  = obs.Default.Counter("serfi_mem_restore_pages_total", "Pages repointed by restores.")
)
