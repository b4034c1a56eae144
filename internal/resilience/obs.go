package resilience

// Runner instrumentation. When Config.Metrics is set, NewRunner
// registers one set of per-stage counters and latency histograms plus
// per-status item counters, resolving every handle up front so the
// per-stage hot path pays only atomic increments and two clock reads —
// never a registry lookup or an allocation.
//
// Counter semantics (the reconciliation identities the tests assert):
//
//	pipeline_stage_attempts_total  stage runs: one per item entering the stage
//	pipeline_stage_errors_total    failed runs (cancelled ones included)
//	pipeline_stage_panics_total    failed runs that were recovered panics
//	pipeline_stage_failures_total  failures that quarantined or degraded the
//	                               item; cancellation excluded
//	pipeline_items_total{status}   completed items by final status
//
// so attempts == items that entered the stage == the latency histogram's
// count, and sum over status of items_total == Summary.Processed.

import "harassrepro/internal/obs"

// runnerMetrics holds the pre-resolved instrument handles for one
// Runner.
type runnerMetrics struct {
	items  [3]*obs.Counter // indexed by Status
	docsPS *obs.Gauge
	runSec *obs.Gauge
	stages []stageMetrics // aligned with Runner.stages
}

type stageMetrics struct {
	attempts *obs.Counter
	errors   *obs.Counter
	panics   *obs.Counter
	failures *obs.Counter
	latency  *obs.Histogram
}

// newRunnerMetrics registers (or re-resolves) the runner's instruments
// on reg. Registration is idempotent in obs, so several runners over
// the same stage names share series.
func newRunnerMetrics(reg *obs.Registry, stages []string) *runnerMetrics {
	rm := &runnerMetrics{
		docsPS: reg.NewGauge("pipeline_last_run_docs_per_sec",
			"items per second over the last completed Process run"),
		runSec: reg.NewGauge("pipeline_last_run_seconds",
			"wall-clock duration of the last completed Process run"),
	}
	for st := StatusOK; st <= StatusQuarantined; st++ {
		rm.items[st] = reg.NewCounter("pipeline_items_total",
			"items completed, by final status", obs.L("status", st.String()))
	}
	for _, name := range stages {
		l := obs.L("stage", name)
		rm.stages = append(rm.stages, stageMetrics{
			attempts: reg.NewCounter("pipeline_stage_attempts_total",
				"stage runs, one per item entering the stage", l),
			errors: reg.NewCounter("pipeline_stage_errors_total",
				"failed stage runs", l),
			panics: reg.NewCounter("pipeline_stage_panics_total",
				"failed stage runs that were recovered panics", l),
			failures: reg.NewCounter("pipeline_stage_failures_total",
				"stage failures (quarantine or degradation)", l),
			latency: reg.NewHistogram("pipeline_stage_latency_ns",
				"per-item stage latency", obs.DurationBuckets(), l),
		})
	}
	return rm
}
