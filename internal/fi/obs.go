// Telemetry instruments for the injection engine, registered on the
// process-wide obs.Default registry. Observations happen once per injection
// run (restore, convergence-compare and classify latency, simulated-suffix
// length, outcome of the prune check) — millisecond-scale units of work, far
// off the retirement hot path.
package fi

import "serfi/internal/obs"

var (
	// 10µs .. 10s exponential buckets: a selective delta restore of a warm
	// pooled machine lands in the tens of microseconds, a cold full rebuild
	// of a large image in the milliseconds.
	obsRestoreSeconds = obs.Default.Histogram("serfi_fi_restore_seconds", "Wall time of one pre-fault checkpoint restore.", obs.ExpBuckets(1e-5, 10, 7))
	// 1µs .. 1s: a compare touches tens of pages on a pooled machine (only
	// pooled machines reach a checkpoint boundary).
	obsConvergeSeconds = obs.Default.Histogram("serfi_fi_converge_compare_seconds", "Wall time one injection run spent in convergence compares at checkpoint boundaries (runs that reached none are not observed).", obs.ExpBuckets(1e-6, 10, 7))
	obsClassifySeconds = obs.Default.Histogram("serfi_fi_classify_seconds", "Wall time of classifying one completed injection run against the golden reference.", obs.ExpBuckets(1e-6, 10, 7))
	// 1e3 .. 1e9 instructions: a run pruned at the first boundary simulates
	// roughly one inter-checkpoint gap; an unpruned fault runs the whole
	// remaining lifespan.
	obsInstrsPerInject = obs.Default.Histogram("serfi_fi_instructions_per_injection", "Instructions actually simulated per injection run (restored suffix, or the whole run from reset).", obs.ExpBuckets(1e3, 10, 7))

	obsInjections    = obs.Default.Counter("serfi_fi_injections_total", "Completed injection runs.")
	obsPruned        = obs.Default.Counter("serfi_fi_pruned_total", "Injection runs scored by convergence pruning at a checkpoint boundary.")
	obsDeadFaultRuns = obs.Default.Counter("serfi_fi_dead_fault_runs_total", "Injection runs decided without a machine by the page-touch rule: mem strikes on a page the golden run never accesses again (cache strikes count in serfi_fi_dead_set_runs_total, dead register state in serfi_fi_dead_state_runs_total).")
	obsDeadSetRuns   = obs.Default.Counter("serfi_fi_dead_set_runs_total", "Injection runs decided without a machine by the set-stamp rule: cache metadata strikes on a set the golden run never accesses again.")
	obsDeadStateRuns = obs.Default.Counter("serfi_fi_dead_state_runs_total", "Injection runs stopped at a checkpoint whose state differs from golden only in registers and context slots the golden run never reads again.")
	obsFromResetRuns = obs.Default.Counter("serfi_fi_from_reset_runs_total", "Injection runs with no usable pre-fault checkpoint (booted from reset).")
)
