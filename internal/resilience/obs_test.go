package resilience

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"harassrepro/internal/obs"
)

// TestRunnerMetricsReconcile exercises every counter the runner emits
// against a pipeline with a known fault plan, then checks the
// reconciliation identities documented in obs.go exactly.
func TestRunnerMetricsReconcile(t *testing.T) {
	const n = 40
	failing := func(i int) bool { return i%4 == 0 }   // 10 docs: degrade via error
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
	nFailing, nPanic, nPoison := count(failing), count(panics), count(poisoned)

	reg := obs.NewRegistry()
	r := NewRunner(Config[doc]{Workers: 4, Metrics: reg},
		Stage[doc]{Name: "failing", Degradable: true, Fn: func(_ context.Context, index int, d *doc) error {
			if failing(index) {
				return fmt.Errorf("enrichment rejected %d", index)
			}
			return nil
		}},
		Stage[doc]{Name: "panicky", Degradable: true, Fn: func(_ context.Context, index int, d *doc) error {
			if panics(index) {
				panic("enrichment backend down")
			}
			return nil
		}},
		Stage[doc]{Name: "quarantine", Fn: func(_ context.Context, index int, d *doc) error {
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
	// No document is in two fault sets, so each degraded one failed once.
	if sum.Processed != n || sum.Degraded != nFailing+nPanic || sum.Quarantined != nPoison {
		t.Fatalf("summary = %v", sum)
	}

	s := reg.Snapshot()
	cv := func(name, stage string) uint64 {
		return uint64(counterValue(s, name, obs.L("stage", stage)))
	}
	// Expected per-stage totals from the fault plan. Degraded docs go on
	// to the next stage, so every doc enters every stage; the nPoison
	// quarantined ones die in the last stage.
	type want struct{ attempts, errors, panics, failures uint64 }
	wants := map[string]want{
		"failing":    {attempts: n, errors: uint64(nFailing), failures: uint64(nFailing)},
		"panicky":    {attempts: n, errors: uint64(nPanic), panics: uint64(nPanic), failures: uint64(nPanic)},
		"quarantine": {attempts: n, errors: uint64(nPoison), failures: uint64(nPoison)},
	}
	for stage, w := range wants {
		got := want{
			attempts: cv("pipeline_stage_attempts_total", stage),
			errors:   cv("pipeline_stage_errors_total", stage),
			panics:   cv("pipeline_stage_panics_total", stage),
			failures: cv("pipeline_stage_failures_total", stage),
		}
		if got != w {
			t.Errorf("stage %q counters = %+v, want %+v", stage, got, w)
		}
		// attempts == documents that entered the stage == latency count.
		m, ok := findMetric(s, "pipeline_stage_latency_ns", obs.L("stage", stage))
		if !ok {
			t.Fatalf("stage %q latency histogram missing", stage)
		}
		if got.attempts != n || m.Count != n {
			t.Errorf("stage %q: attempts %d, latency count %d, want both = %d entering documents", stage, got.attempts, m.Count, n)
		}
	}
	if _, ok := findMetric(s, "pipeline_stage_retries_total", obs.L("stage", "failing")); ok {
		t.Error("pipeline_stage_retries_total is registered, but no stage runs twice")
	}

	// Items by final status reconcile with the run summary.
	items := func(status string) int {
		return int(counterValue(s, "pipeline_items_total", obs.L("status", status)))
	}
	nOK := n - nFailing - nPanic - nPoison
	if items("ok") != nOK || items("degraded") != nFailing+nPanic || items("quarantined") != nPoison {
		t.Errorf("items_total = ok:%d degraded:%d quarantined:%d, want %d/%d/%d",
			items("ok"), items("degraded"), items("quarantined"), nOK, nFailing+nPanic, nPoison)
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
	r := NewRunner(Config[doc]{Workers: 2},
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
