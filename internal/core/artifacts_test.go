package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"harassrepro/internal/obs"
	"harassrepro/internal/testutil"
)

// allStageNames lists every registered graph node.
func allStageNames() []string {
	return []string{
		StageCorpora, StageBlogs, StageTokenizer, StageHasher,
		StageVectors, StageTaskDox, StageTaskCTH,
		ArtifactCodedCTH, ArtifactDoxPII, ArtifactBoardPosts,
		ArtifactAboveBoardPosts, ArtifactRepeatDox,
	}
}

// TestArtifactGraphParallelAll is the refactor's central claim, checked
// end to end: running every experiment concurrently on the memoized
// graph (a) produces byte-identical output to the pre-refactor
// sequential monolith (the golden fixtures), and (b) computes every
// stage and shared intermediate exactly once, asserted via obs
// counters. Run under -race this also exercises the graph's
// latch-based publication between experiment goroutines.
func TestArtifactGraphParallelAll(t *testing.T) {
	reg := obs.NewRegistry()
	p, err := RunWithOptions(QuickConfig(1), Options{Workers: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	results, err := p.RunExperiments(context.Background(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Experiments()) {
		t.Fatalf("got %d results, want %d", len(results), len(Experiments()))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", "seed1", r.ID+".txt"))
		if err != nil {
			t.Fatalf("missing fixture for %s: %v", r.ID, err)
		}
		if r.Output != string(want) {
			t.Errorf("%s: parallel output diverged from sequential golden", r.ID)
		}
	}

	// CollectMetrics consumes the same derived artifacts again (it is
	// the sweep's per-seed summary); still no recomputation.
	_ = p.CollectMetrics()

	snap := reg.Snapshot()
	for _, stage := range allStageNames() {
		if v := counterValue(snap, "graph_stage_computes_total", obs.L("stage", stage)); v != 1 {
			t.Errorf("stage %s computed %v times, want exactly 1", stage, v)
		}
	}
	// The memoization must have been exercised, not vacuous: every
	// derived artifact has at least two consumers across the
	// experiments and CollectMetrics, so each reports cache hits.
	for _, stage := range []string{
		ArtifactCodedCTH, ArtifactDoxPII, ArtifactBoardPosts,
		ArtifactAboveBoardPosts, ArtifactRepeatDox,
	} {
		if v := counterValue(snap, "graph_stage_hits_total", obs.L("stage", stage)); v < 1 {
			t.Errorf("artifact %s: %v cache hits, want >= 1 (shared by several consumers)", stage, v)
		}
	}
}

// TestRunExperimentsIsolatesFailures: one bad experiment must not
// abort the batch — the rest still run and the failure is carried in
// its own result.
func TestRunExperimentsIsolatesFailures(t *testing.T) {
	p := sharedPipeline(t)
	results, err := p.RunExperiments(context.Background(), []string{"table1", "no-such-exp", "table2"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "no-such-exp") {
		t.Errorf("bad experiment error = %v", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("%s failed alongside bad experiment: %v", results[i].ID, results[i].Err)
		}
		if results[i].Output == "" {
			t.Errorf("%s produced no output", results[i].ID)
		}
	}
	if results[0].ID != "table1" || results[2].ID != "table2" {
		t.Errorf("results out of input order: %q, %q", results[0].ID, results[2].ID)
	}
}

// TestSweepParallelMatchesSequential: the sweep's per-seed metrics and
// rendered report are identical at any worker count, in seed order.
func TestSweepParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("4 pipeline runs; skipped in -short")
	}
	if testutil.RaceEnabled {
		// Seeds are fully independent pipelines (no shared state to
		// race on); TestArtifactGraphParallelAll covers the shared
		// graph under race. Four instrumented runs aren't worth it.
		t.Skip("skipped under -race: seeds share no state")
	}
	base := QuickConfig(0)
	seeds := []uint64{1, 2}
	seq, err := RunSweepParallel(context.Background(), base, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSweepParallel(context.Background(), base, seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%+v", par), fmt.Sprintf("%+v", seq); got != want {
		t.Errorf("parallel sweep metrics diverged\n--- sequential ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if got, want := RenderSweep(par), RenderSweep(seq); got != want {
		t.Errorf("rendered sweep diverged\n--- sequential ---\n%s\n--- parallel ---\n%s", want, got)
	}
}
