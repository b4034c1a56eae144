package resilience

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"harassrepro/internal/obs"
)

// TestRunnerMetricsReconcile exercises every counter the runner emits
// against a pipeline with a known fault plan, then checks the
// reconciliation identities documented in obs.go exactly.
func TestRunnerMetricsReconcile(t *testing.T) {
	const n = 40
	flakes := func(i int) bool { return i%4 == 0 }    // 10 docs: fail 1st attempt
	panics := func(i int) bool { return i%10 == 7 }   // 4 docs: degrade via panic
	poisoned := func(i int) bool { return i%20 == 5 } // 2 docs: quarantine
	count := func(p func(int) bool) (c int) {         // plan cardinalities
		for i := 0; i < n; i++ {
			if p(i) {
				c++
			}
		}
		return c
	}
	nFlaky, nPanic, nPoison := count(flakes), count(panics), count(poisoned)

	var firstTry [n]atomic.Bool
	reg := obs.NewRegistry()
	r := NewRunner(Config[doc]{Workers: 4, MaxAttempts: 3, Metrics: reg},
		Stage[doc]{Name: "flaky", Transient: true, Fn: func(_ context.Context, index int, d *doc) error {
			if flakes(index) && !firstTry[index].Swap(true) {
				return fmt.Errorf("transient glitch on %d", index)
			}
			return nil
		}},
		Stage[doc]{Name: "panicky", Degradable: true, Fn: func(_ context.Context, index int, d *doc) error {
			if panics(index) {
				panic("enrichment backend down")
			}
			return nil
		}},
		Stage[doc]{Name: "quarantine", Transient: true, Fn: func(_ context.Context, index int, d *doc) error {
			if poisoned(index) {
				return fmt.Errorf("poison document %d", index)
			}
			return nil
		}},
	)
	_, sum, err := r.RunSlice(context.Background(), makeDocs(n))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Processed != n || sum.Degraded != nPanic || sum.Quarantined != nPoison {
		t.Fatalf("summary = %v", sum)
	}

	s := reg.Snapshot()
	cv := func(name, stage string) uint64 {
		return uint64(counterValue(s, name, obs.L("stage", stage)))
	}
	// Expected per-stage totals from the fault plan. Panicky docs are
	// degraded, not quarantined, so every doc reaches every stage except
	// the nPoison quarantined ones, which die in the last stage anyway.
	type want struct{ attempts, retries, errors, panics, failures uint64 }
	wants := map[string]want{
		"flaky":      {attempts: n + uint64(nFlaky), retries: uint64(nFlaky), errors: uint64(nFlaky)},
		"panicky":    {attempts: n, errors: uint64(nPanic), panics: uint64(nPanic), failures: uint64(nPanic)},
		"quarantine": {attempts: n + 2*uint64(nPoison), retries: 2 * uint64(nPoison), errors: 3 * uint64(nPoison), failures: uint64(nPoison)},
	}
	for stage, w := range wants {
		got := want{
			attempts: cv("pipeline_stage_attempts_total", stage),
			retries:  cv("pipeline_stage_retries_total", stage),
			errors:   cv("pipeline_stage_errors_total", stage),
			panics:   cv("pipeline_stage_panics_total", stage),
			failures: cv("pipeline_stage_failures_total", stage),
		}
		if got != w {
			t.Errorf("stage %q counters = %+v, want %+v", stage, got, w)
		}
		// attempts - retries == items that entered the stage.
		if entered := got.attempts - got.retries; entered != n {
			t.Errorf("stage %q: attempts-retries = %d, want %d", stage, entered, n)
		}
		// The latency histogram sees exactly one observation per attempt.
		m, ok := findMetric(s, "pipeline_stage_latency_ns", obs.L("stage", stage))
		if !ok {
			t.Fatalf("stage %q latency histogram missing", stage)
		}
		if m.Count != got.attempts {
			t.Errorf("stage %q latency count = %d, want %d attempts", stage, m.Count, got.attempts)
		}
	}

	// Items by final status reconcile with the run summary.
	items := func(status string) int {
		return int(counterValue(s, "pipeline_items_total", obs.L("status", status)))
	}
	if items("ok") != n-nPanic-nPoison || items("degraded") != nPanic || items("quarantined") != nPoison {
		t.Errorf("items_total = ok:%d degraded:%d quarantined:%d, want %d/%d/%d",
			items("ok"), items("degraded"), items("quarantined"), n-nPanic-nPoison, nPanic, nPoison)
	}
	if total := items("ok") + items("degraded") + items("quarantined"); total != sum.Processed {
		t.Errorf("sum of items_total = %d, want Processed = %d", total, sum.Processed)
	}

	// Throughput gauges were set by the completed run.
	if v := counterValue(s, "pipeline_last_run_docs_per_sec"); v <= 0 {
		t.Errorf("docs_per_sec gauge = %v, want > 0", v)
	}
}

// TestRunnerWithoutMetricsUnchanged pins the zero-config path: a runner
// with no registry behaves exactly as before.
func TestRunnerWithoutMetricsUnchanged(t *testing.T) {
	r := NewRunner(Config[doc]{Workers: 2, MaxAttempts: 4},
		Stage[doc]{Name: "score", Fn: func(_ context.Context, index int, d *doc) error {
			d.Score = float64(index)
			return nil
		}},
	)
	if r.metrics != nil {
		t.Fatal("metrics built without a registry")
	}
	_, sum, err := r.RunSlice(context.Background(), makeDocs(10))
	if err != nil || sum.Succeeded != 10 {
		t.Fatalf("sum = %v, err = %v", sum, err)
	}
}

// findMetric returns the snapshot entry for (name, labels), if present.
func findMetric(s obs.Snapshot, name string, labels ...obs.Label) (obs.Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name && slices.Equal(m.Labels, labels) {
			return m, true
		}
	}
	return obs.Metric{}, false
}

// counterValue returns a counter's (or gauge's) value in s, or 0 when
// it is absent.
func counterValue(s obs.Snapshot, name string, labels ...obs.Label) float64 {
	if m, ok := findMetric(s, name, labels...); ok && m.Value != nil {
		return float64(*m.Value)
	}
	return 0
}
