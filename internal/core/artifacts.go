package core

// The pipeline's artifact graph. Figure 1's steps and the analyses
// layered on them form a DAG of expensive intermediates; this file
// names each one as a graph node with declared dependencies so a run
// computes every artifact exactly once, schedules independent stages
// concurrently, and exposes cache/latency metrics per stage. Every
// node derives its randomness from a pure randx split keyed by its
// stage name, which is what makes memoization and concurrent
// scheduling byte-invisible in the outputs (pinned by golden_test.go).

import (
	"context"
	"fmt"

	"harassrepro/internal/annotate"
	"harassrepro/internal/corpus"
	"harassrepro/internal/features"
	"harassrepro/internal/graph"
	"harassrepro/internal/obs"
	"harassrepro/internal/pii"
	"harassrepro/internal/repeatdox"
	"harassrepro/internal/resilience"
	"harassrepro/internal/taxonomy"
	"harassrepro/internal/threads"
)

// Options tune how a pipeline run is scheduled and observed; zero
// values reproduce Run's defaults. Outputs are identical at every
// setting — only wall time and instrumentation change.
type Options struct {
	// Workers bounds the worker pool for stage and experiment
	// scheduling, and the vectors stage's tokenizing goroutines. 0 means
	// GOMAXPROCS.
	Workers int
	// Metrics, if set, receives per-stage graph counters/latency
	// histograms plus the scheduling runner's own metrics.
	Metrics *obs.Registry
	// StorePath, if set, streams the corpora and blogs from the
	// segmented corpus store at that directory (built by corpusgen
	// -store) instead of generating them from the seed. The store's
	// manifest generation is folded into the graph fingerprint, so
	// memoized artifacts invalidate when segments are appended. Outputs
	// are byte-identical to the in-memory run for a store written from
	// the same seed and scales (pinned by golden_store_test.go).
	StorePath string
}

// Pipeline stage and artifact node names.
const (
	StageCorpora   = "corpora"
	StageBlogs     = "blogs"
	StageTokenizer = "tokenizer"
	StageHasher    = "hasher"
	StageVectors   = "vectors"
	StageTaskDox   = "task-dox"
	StageTaskCTH   = "task-cth"

	ArtifactCodedCTH        = "coded-cth"
	ArtifactDoxPII          = "dox-pii"
	ArtifactBoardPosts      = "board-posts"
	ArtifactAboveBoardPosts = "above-board-posts"
	ArtifactRepeatDox       = "repeat-dox"
)

// doxPII bundles doxPIIByColumn's two parallel maps as one artifact.
type doxPII struct {
	types map[string][][]pii.Type
	docs  map[string][]*corpus.Document
}

// initGraph registers every pipeline stage and derived artifact.
// Stage functions assign the Pipeline's exported fields; the graph's
// latches give readers the necessary happens-before edges. storeGen is
// the corpus store's manifest generation for store-backed runs (zero
// and unused otherwise).
func (p *Pipeline) initGraph(opts Options, storeGen uint64) {
	fp := graph.Fingerprint(p.Config)
	if opts.StorePath != "" {
		fp = graph.Fingerprint(storeFingerprint{Config: p.Config, StorePath: opts.StorePath, Generation: storeGen})
	}
	p.g = graph.New(graph.Config{
		Seed:        p.Config.Seed,
		Fingerprint: fp,
		Metrics:     opts.Metrics,
		Workers:     opts.Workers,
	})
	g := p.g

	// Step 1 (Figure 1): raw data sets. In the generate path blogs
	// consume the generator's rng stream after the main corpora, so they
	// depend on it; in the store path one Scan loads everything and
	// StageBlogs hands over what the scan set aside.
	if opts.StorePath != "" {
		var storeBlogs *corpus.Corpus
		g.Register(StageCorpora, nil, func() (any, error) {
			var err error
			p.Corpora, storeBlogs, err = loadStoreCorpora(opts.StorePath, opts.Workers)
			if err != nil {
				return nil, err
			}
			return p.Corpora, nil
		})
		g.Register(StageBlogs, []string{StageCorpora}, func() (any, error) {
			p.Blogs = storeBlogs
			return p.Blogs, nil
		})
	} else {
		g.Register(StageCorpora, nil, func() (any, error) {
			p.Gen = corpus.NewGenerator(corpus.Config{
				Seed:          p.Config.Seed,
				VolumeScale:   p.Config.VolumeScale,
				PositiveScale: p.Config.PositiveScale,
			})
			p.Corpora = p.Gen.Generate()
			return p.Corpora, nil
		})
		g.Register(StageBlogs, []string{StageCorpora}, func() (any, error) {
			p.Blogs = p.Gen.GenerateBlogs(corpus.DefaultBlogSpecs(p.Config.BlogScale))
			return p.Blogs, nil
		})
	}

	// Shared text stack: WordPiece vocabulary trained on a corpus
	// sample, hashed n-gram features.
	g.Register(StageTokenizer, []string{StageCorpora}, func() (any, error) {
		p.trainTokenizer()
		return p.Tokenizer, nil
	})
	g.Register(StageHasher, nil, func() (any, error) {
		p.Hasher = features.NewHasher(features.HasherConfig{Buckets: p.Config.Buckets, Bigrams: true})
		return p.Hasher, nil
	})

	// Every distinct corpus text tokenized and featurized once; each
	// task pass and experiment reads it through vectorize (vectors.go).
	textStack := []string{StageCorpora, StageTokenizer, StageHasher}
	g.Register(StageVectors, textStack, func() (any, error) {
		keepOver := min(p.Config.CTHTextLen, p.Config.DoxTextLen)
		p.vectors = buildVectorMemo(p.Tokenizer, p.Hasher, p.corpusTexts(), keepOver, opts.Workers)
		return p.vectors, nil
	})

	// Steps 2-7 per task.
	taskDeps := []string{StageCorpora, StageTokenizer, StageHasher, StageVectors}
	g.Register(StageTaskDox, taskDeps, func() (any, error) {
		run, err := p.runTask(annotate.TaskDox)
		if err != nil {
			return nil, fmt.Errorf("dox pipeline: %w", err)
		}
		p.Dox = run
		return run, nil
	})
	g.Register(StageTaskCTH, taskDeps, func() (any, error) {
		run, err := p.runTask(annotate.TaskCTH)
		if err != nil {
			return nil, fmt.Errorf("cth pipeline: %w", err)
		}
		p.CTH = run
		return run, nil
	})

	// Derived artifacts shared by several experiments, each computed once.
	g.Register(ArtifactCodedCTH, []string{StageTaskCTH}, func() (any, error) {
		return p.computeCodedCTH(), nil
	})
	g.Register(ArtifactDoxPII, []string{StageTaskDox}, func() (any, error) {
		return p.computeDoxPIIByColumn(), nil
	})
	g.Register(ArtifactBoardPosts, []string{StageTaskDox, StageTaskCTH}, func() (any, error) {
		return p.computeBoardPosts(), nil
	})
	g.Register(ArtifactAboveBoardPosts, []string{StageTaskDox, StageTaskCTH}, func() (any, error) {
		return p.computeAboveThresholdBoardPosts(), nil
	})
	g.Register(ArtifactRepeatDox, []string{StageTaskDox}, func() (any, error) {
		return p.computeRepeatedDoxStats(), nil
	})
}

// Graph exposes the run's artifact graph (stage stats, keys, direct
// Gets) for tooling and tests.
func (p *Pipeline) Graph() *graph.Graph { return p.g }

// mustArtifact fetches a memoized artifact. Artifact compute functions
// cannot fail and their task dependencies were materialized by Run, so
// an error here is a programming bug; panicking keeps the dozens of
// accessor call sites clean, and experiment scheduling isolates panics.
func mustArtifact[T any](p *Pipeline, name string) T {
	v, err := graph.GetAs[T](p.g, name)
	if err != nil {
		panic(fmt.Sprintf("core: artifact %s: %v", name, err))
	}
	return v
}

// codedCTH returns the taxonomy-coded annotated CTH positives, grouped
// per Table 5 column. Memoized: coded once, shared by every consumer.
func (p *Pipeline) codedCTH() map[string][]taxonomy.Label {
	return mustArtifact[map[string][]taxonomy.Label](p, ArtifactCodedCTH)
}

// doxPIIByColumn returns PII extracted from the annotated dox
// positives per Table 6 column. Memoized.
func (p *Pipeline) doxPIIByColumn() (map[string][][]pii.Type, map[string][]*corpus.Document) {
	a := mustArtifact[doxPII](p, ArtifactDoxPII)
	return a.types, a.docs
}

// boardPosts returns the boards corpus adapted to the thread-analysis
// model (annotated positives for CTH/dox flags). Memoized; treat the
// returned slice as read-only.
func (p *Pipeline) boardPosts() []threads.Post {
	return mustArtifact[[]threads.Post](p, ArtifactBoardPosts)
}

// aboveThresholdBoardPosts is boardPosts with the complete
// above-threshold sets for flags (§6.3). Memoized; read-only.
func (p *Pipeline) aboveThresholdBoardPosts() []threads.Post {
	return mustArtifact[[]threads.Post](p, ArtifactAboveBoardPosts)
}

// RepeatedDoxStats links the complete above-threshold dox sets by
// shared OSN PII (§7.3). Memoized.
func (p *Pipeline) RepeatedDoxStats() repeatdox.Stats {
	return mustArtifact[repeatdox.Stats](p, ArtifactRepeatDox)
}

// ExperimentResult is one experiment's outcome from RunExperiments.
type ExperimentResult struct {
	ID     string
	Title  string
	Output string // title + rendered output, as RunExperiment returns
	Err    error
}

// RunExperiments executes the given experiments (all of them when ids
// is empty) concurrently on a bounded worker pool. Shared artifacts
// are memoized on the graph, so concurrent experiments block briefly
// on in-flight intermediates instead of recomputing them, and outputs
// are byte-identical to sequential execution (each experiment derives
// its randomness from pure per-experiment rng splits).
//
// A failing or panicking experiment is quarantined by the runner and
// reported in its result's Err; the remaining experiments still run.
// Results are returned in input order. The error is non-nil only for
// run-level failures (context cancellation), not per-experiment ones.
func (p *Pipeline) RunExperiments(ctx context.Context, ids []string, workers int) ([]ExperimentResult, error) {
	byID := map[string]Experiment{}
	var all []string
	for _, e := range Experiments() {
		byID[e.ID] = e
		all = append(all, e.ID)
	}
	if len(ids) == 0 {
		ids = all
	}
	items := make([]ExperimentResult, len(ids))
	for i, id := range ids {
		items[i] = ExperimentResult{ID: id}
	}
	r := resilience.NewRunner[ExperimentResult](resilience.Config[ExperimentResult]{
		Workers:  workers,
		Metrics:  p.opts.Metrics,
		Describe: func(e *ExperimentResult) string { return e.ID },
	}, resilience.Stage[ExperimentResult]{
		Name: "experiment",
		Fn: func(ctx context.Context, _ int, it *ExperimentResult) error {
			e, ok := byID[it.ID]
			if !ok {
				return fmt.Errorf("core: unknown experiment %q", it.ID)
			}
			it.Title = e.Title
			out, err := e.Run(p)
			if err != nil {
				return err
			}
			it.Output = e.Title + "\n\n" + out
			return nil
		},
	})
	results, _, err := r.RunSlice(ctx, items)
	if err != nil {
		return nil, err
	}
	out := make([]ExperimentResult, len(ids))
	for _, res := range results {
		er := res.Item
		if res.Dead != nil {
			er.Err = res.Dead.Err
		}
		out[res.Index] = er
	}
	return out, nil
}

// RunSweepParallel runs the pipeline once per seed concurrently (one
// graph per seed) and returns per-seed metrics in seed order, so
// RenderSweep output is deterministic regardless of completion order.
// Failed seeds are reported in one combined error; successful seeds
// still return their metrics.
func RunSweepParallel(ctx context.Context, base Config, seeds []uint64, workers int) ([]SweepMetrics, error) {
	type seedRun struct {
		seed uint64
		m    SweepMetrics
	}
	items := make([]seedRun, len(seeds))
	for i, s := range seeds {
		items[i] = seedRun{seed: s}
	}
	r := resilience.NewRunner[seedRun](resilience.Config[seedRun]{
		Workers:  workers,
		Describe: func(it *seedRun) string { return fmt.Sprintf("seed-%d", it.seed) },
	}, resilience.Stage[seedRun]{
		Name: "pipeline",
		Fn: func(ctx context.Context, _ int, it *seedRun) error {
			cfg := base
			cfg.Seed = it.seed
			// Inner stage scheduling stays sequential: the sweep's own
			// pool is the parallelism budget.
			p, err := RunWithOptions(cfg, Options{Workers: 1})
			if err != nil {
				return err
			}
			it.m = p.CollectMetrics()
			return nil
		},
	})
	results, sum, err := r.RunSlice(ctx, items)
	if err != nil {
		return nil, err
	}
	var out []SweepMetrics
	for _, res := range results {
		if res.Dead == nil {
			out = append(out, res.Item.m)
		}
	}
	if len(sum.DeadLetters) > 0 {
		msg := fmt.Sprintf("sweep: %d seed(s) failed:", len(sum.DeadLetters))
		for _, d := range sum.DeadLetters {
			msg += fmt.Sprintf("\n  seed %d: %v", seeds[d.Index], d.Err)
		}
		return out, fmt.Errorf("%s", msg)
	}
	return out, nil
}
