package core

// Golden snapshots of every experiment's rendered output at quick scale,
// captured from the pre-graph monolithic pipeline. The artifact-graph
// refactor (memoization, parallel scheduling, pooled vectorization, the
// incremental WordPiece trainer) must keep every byte of these outputs
// intact: each stage derives its rng from a pure split keyed by stage
// name, so decomposing or reordering the computation is observable only
// through these fixtures.
//
// Regenerate with: go test ./internal/core -run TestGoldenExperimentOutputs -update
// (which also rewrites the classifier-quality tables, quality_test.go).

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"harassrepro/internal/testutil"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures from current output")

// goldenSeeds returns the seeds pinned by fixtures. Under the race
// detector only seed 1 runs: the point there is catching races, and the
// extra full pipeline runs are slow with instrumentation on.
func goldenSeeds() []uint64 {
	if testutil.RaceEnabled {
		return []uint64{1}
	}
	return []uint64{1, 7, 42}
}

// goldenPipeline returns a pipeline for the seed, reusing the shared
// seed-1 pipeline every other test already pays for.
func goldenPipeline(t *testing.T, seed uint64) *Pipeline {
	t.Helper()
	if seed == 1 {
		return sharedPipeline(t)
	}
	p, err := Run(QuickConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func checkGolden(t *testing.T, path string, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s: output diverged from pre-refactor monolith\n--- want ---\n%s\n--- got ---\n%s",
			filepath.Base(path), want, got)
	}
}

func TestGoldenExperimentOutputs(t *testing.T) {
	for _, seed := range goldenSeeds() {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := goldenPipeline(t, seed)
			dir := filepath.Join("testdata", "golden", fmt.Sprintf("seed%d", seed))
			for _, e := range Experiments() {
				out, err := p.RunExperiment(e.ID)
				if err != nil {
					t.Fatalf("%s: %v", e.ID, err)
				}
				checkGolden(t, filepath.Join(dir, e.ID+".txt"), out)
			}
			checkGolden(t, filepath.Join(dir, "sweep-metrics.txt"),
				fmt.Sprintf("%+v\n", p.CollectMetrics()))
			checkGolden(t, filepath.Join(dir, "quality.txt"), qualityTable(p))
		})
	}
}
