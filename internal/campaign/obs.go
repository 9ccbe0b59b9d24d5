// Engine observability: the WithMetrics / WithTracer options, the
// metric-instrument bundle RunMatrix updates at phase and job boundaries,
// and the host-panic counter of Group.Inject's guard.
// Updates are batched per event — one set of atomic adds per scenario
// phase, per injection job, per campaign — never per injection run or per
// retired instruction, and they observe host progress only, so campaigns
// stay byte-identical with telemetry attached.
package campaign

import "serfi/internal/obs"

// obsHostPanics is on the process registry, not the engine's: Group.Inject
// serves the engine and dist workers alike, and a worker pushes obs.Default
// to its coordinator with every completion.
var obsHostPanics = obs.Default.Counter("serfi_campaign_host_panics_total", "Host panics caught by Group.Inject's guard, each failing the campaign or shard it hit.")

// WithMetrics attaches a metrics registry: RunMatrix registers the engine's
// metric families there and updates them as phases, jobs and campaigns
// retire. nil (the default) records into a private inert registry, so
// instrumented paths need no enabled-checks. Pass obs.Default to share one
// exposition with the simulator-layer instruments (fi, mach, mem).
func WithMetrics(r *obs.Registry) Option { return func(e *Engine) { e.metrics = r } }

// WithTracer attaches a span trace journal: RunMatrix records one span per
// fault-free phase (image build, golden run, profiling, checkpoint
// selection) and one per injection job, on one track per scenario group
// so a group's phases and jobs line up in the Chrome trace export. nil (the
// default) records nothing.
func WithTracer(t *obs.Tracer) Option { return func(e *Engine) { e.tracer = t } }

// engineMetrics holds the engine's instruments, resolved against the run's
// registry once per RunMatrix call. Registration is idempotent, so
// sequential or concurrent runs over one registry share families.
type engineMetrics struct {
	scenariosStarted obs.Counter
	goldensDone      obs.Counter
	jobsQueued       obs.Counter
	jobsRunning      obs.Gauge
	jobsDone         obs.Counter
	injections       obs.CounterVec // by outcome
	prunedRuns       obs.Counter
	ckptResident     obs.Gauge
	campaigns        obs.CounterVec // by status
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	if r == nil {
		// Inert sink: a private registry nothing ever exposes.
		r = obs.NewRegistry()
	}
	return &engineMetrics{
		scenariosStarted: r.Counter("serfi_campaign_scenarios_started_total", "Scenario groups whose fault-free phases have started."),
		goldensDone:      r.Counter("serfi_campaign_goldens_total", "Completed fault-free phases (golden run, profiling, checkpoint capture)."),
		jobsQueued:       r.Counter("serfi_campaign_jobs_queued_total", "Injection jobs enqueued on the worker pool."),
		jobsRunning:      r.Gauge("serfi_campaign_jobs_running", "Injection jobs currently executing."),
		jobsDone:         r.Counter("serfi_campaign_jobs_done_total", "Injection jobs completed (jobs abandoned by cancellation excluded)."),
		injections:       r.CounterVec("serfi_campaign_injections_total", "Classified injection runs, by outcome.", "outcome"),
		prunedRuns:       r.Counter("serfi_campaign_pruned_runs_total", "Injection runs scored by convergence pruning."),
		ckptResident:     r.Gauge("serfi_campaign_checkpoint_resident_bytes", "Checkpoint RAM payload resident across open scenario groups."),
		campaigns:        r.CounterVec("serfi_campaign_campaigns_total", "Retired (scenario, domain) campaigns, by status.", "status"),
	}
}
