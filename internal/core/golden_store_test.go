package core

// Store-vs-memory golden equivalence. A pipeline streaming its corpora
// from the segmented corpus store must reproduce the in-memory run's
// outputs byte for byte: same fixtures, every pinned seed, across
// worker counts. This is the contract that makes the store a drop-in
// input path rather than a second pipeline to validate.

import (
	"fmt"
	"path/filepath"
	"testing"

	"harassrepro/internal/corpus"
	"harassrepro/internal/corpus/store"
)

// buildGoldenStore writes the store a `corpusgen -store` run would
// produce for the quick config at the given seed: Generate then
// GenerateBlogs (the generator's rng stream order), committed in the
// fixed Table 1 dataset order.
func buildGoldenStore(t *testing.T, seed uint64) string {
	t.Helper()
	cfg := QuickConfig(seed)
	cfg.fillDefaults()
	gen := corpus.NewGenerator(corpus.Config{
		Seed:          cfg.Seed,
		VolumeScale:   cfg.VolumeScale,
		PositiveScale: cfg.PositiveScale,
	})
	corpora := gen.Generate()
	blogs := gen.GenerateBlogs(corpus.DefaultBlogSpecs(cfg.BlogScale))

	dir := filepath.Join(t.TempDir(), "corpus-store")
	s, err := store.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := store.WriteCorpora(s, corpora, blogs, 0); err != nil {
		t.Fatal(err)
	}
	return dir
}

// storeWorkerCounts are the scheduling widths the equivalence holds
// under (outputs must not depend on stage parallelism).
var storeWorkerCounts = []int{1, 4, 16}

func TestGoldenStoreStreamedOutputs(t *testing.T) {
	for _, seed := range goldenSeeds() {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := buildGoldenStore(t, seed)
			fixtures := filepath.Join("testdata", "golden", fmt.Sprintf("seed%d", seed))
			for _, workers := range storeWorkerCounts {
				workers := workers
				t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
					p, err := RunWithOptions(QuickConfig(seed), Options{StorePath: dir, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if p.Gen != nil {
						t.Fatal("store-backed run constructed a generator")
					}
					for _, e := range Experiments() {
						out, err := p.RunExperiment(e.ID)
						if err != nil {
							t.Fatalf("%s: %v", e.ID, err)
						}
						checkGoldenStore(t, filepath.Join(fixtures, e.ID+".txt"), out)
					}
					checkGoldenStore(t, filepath.Join(fixtures, "quality.txt"), qualityTable(p))
				})
			}
		})
	}
}

// checkGoldenStore compares against an existing fixture; unlike
// checkGolden it never rewrites fixtures (the in-memory run owns them —
// this test asserts the store path matches it, so regenerating from
// the store side would mask a divergence).
func checkGoldenStore(t *testing.T, path string, got string) {
	t.Helper()
	if *updateGolden {
		t.Skip("fixtures are owned by TestGoldenExperimentOutputs -update")
	}
	checkGolden(t, path, got)
}

// TestStoreGenerationInvalidatesMemoKeys pins the cache-coherence
// contract: appending a segment bumps the manifest generation, and
// every graph key must change with it so memoized artifacts from the
// previous store contents cannot be served.
func TestStoreGenerationInvalidatesMemoKeys(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus-store")
	s, err := store.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	day1 := []corpus.Document{{
		ID: "d1", Dataset: corpus.Boards, Platform: corpus.PlatformBoards,
		Text: "day one post",
	}}
	if _, err := s.Append(day1); err != nil {
		t.Fatal(err)
	}

	keyAt := func() string {
		cfg := QuickConfig(1)
		p := &Pipeline{Config: cfg}
		p.Config.fillDefaults()
		gen, err := probeStoreGeneration(dir)
		if err != nil {
			t.Fatal(err)
		}
		p.initGraph(Options{StorePath: dir}, gen)
		return p.Graph().Key(StageTaskCTH)
	}

	k1 := keyAt()
	k1again := keyAt()
	if k1 != k1again {
		t.Fatalf("key unstable without appends: %q vs %q", k1, k1again)
	}
	day2 := []corpus.Document{{
		ID: "d2", Dataset: corpus.Boards, Platform: corpus.PlatformBoards,
		Text: "day two post",
	}}
	if _, err := s.Append(day2); err != nil {
		t.Fatal(err)
	}
	k2 := keyAt()
	if k2 == k1 {
		t.Fatalf("memo key unchanged after append: %q", k2)
	}

	// Store-backed and generate-backed runs must also never share keys.
	p := &Pipeline{Config: QuickConfig(1)}
	p.Config.fillDefaults()
	p.initGraph(Options{}, 0)
	if mem := p.Graph().Key(StageTaskCTH); mem == k1 || mem == k2 {
		t.Fatalf("in-memory key collides with store-backed key: %q", mem)
	}
}
