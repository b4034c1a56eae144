// Package core orchestrates the paper's two filtering pipelines
// (Figure 1) end to end over the generated corpora: seed annotation,
// classifier training with active learning, full-corpus prediction,
// per-platform threshold selection, and expert annotation of the
// above-threshold sets. The annotated outputs feed every downstream
// analysis; the experiment registry (experiments.go) regenerates each of
// the paper's tables and figures from them.
package core

import (
	"context"
	"errors"
	"sort"
	"sync"

	"harassrepro/internal/annotate"
	"harassrepro/internal/corpus"
	"harassrepro/internal/features"
	"harassrepro/internal/graph"
	"harassrepro/internal/model"
	"harassrepro/internal/randx"
	"harassrepro/internal/tokenize"
)

// Config controls a full pipeline run.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// VolumeScale / PositiveScale are passed to the corpus generator.
	VolumeScale   int
	PositiveScale int
	// BlogScale divides blog post volumes (The Torch stays full-scale).
	BlogScale int
	// Buckets is the hashed feature space size.
	Buckets uint32
	// Epochs for classifier training.
	Epochs int
	// DoxTextLen / CTHTextLen are the span lengths (in tokens) for the
	// two classifiers (the paper's best: 512 for doxing, 128 for CTH).
	DoxTextLen int
	CTHTextLen int
	// VocabSize for WordPiece training.
	VocabSize int
	// ActivePerBin is the per-stratum sample size for active learning.
	ActivePerBin int
	// AnnotationCap bounds per-platform expert annotation of
	// above-threshold documents (the paper annotated up to ~3,300 per
	// cell; scaled down by default).
	AnnotationCap int
}

func (c *Config) fillDefaults() {
	if c.VolumeScale <= 0 {
		c.VolumeScale = 10_000
	}
	if c.PositiveScale <= 0 {
		c.PositiveScale = 10
	}
	if c.BlogScale <= 0 {
		c.BlogScale = 10
	}
	if c.Buckets == 0 {
		c.Buckets = 1 << 17
	}
	if c.Epochs <= 0 {
		c.Epochs = 6
	}
	if c.DoxTextLen <= 0 {
		c.DoxTextLen = 512
	}
	if c.CTHTextLen <= 0 {
		c.CTHTextLen = 128
	}
	if c.VocabSize <= 0 {
		c.VocabSize = 3000
	}
	if c.ActivePerBin <= 0 {
		c.ActivePerBin = 40
	}
	if c.AnnotationCap <= 0 {
		c.AnnotationCap = 400
	}
}

// DefaultConfig returns the default reproduction configuration
// (VolumeScale 1:10,000, PositiveScale 1:10).
func DefaultConfig(seed uint64) Config {
	c := Config{Seed: seed}
	c.fillDefaults()
	return c
}

// QuickConfig returns a smaller configuration for tests and fast runs.
func QuickConfig(seed uint64) Config {
	return Config{
		Seed:          seed,
		VolumeScale:   40_000,
		PositiveScale: 20,
		BlogScale:     20,
		Buckets:       1 << 16,
		Epochs:        4,
		ActivePerBin:  20,
		AnnotationCap: 250,
	}
}

// PlatformResult is one row of Table 4.
type PlatformResult struct {
	Platform       corpus.Platform
	Threshold      float64
	AboveThreshold int
	// AnnotatedAll reports whether every above-threshold document was
	// annotated (Table 4's * rows).
	AnnotatedAll  bool
	Annotated     int
	TruePositives int
	// Positives are the expert-confirmed positive documents.
	Positives []*corpus.Document
	// Above holds every document scoring above the selected threshold
	// (the "complete predicted set" the paper uses for the repeated-dox
	// analysis, §7.3).
	Above []*corpus.Document
}

// TaskRun is the outcome of one task's pipeline.
type TaskRun struct {
	Task  annotate.Task
	Model *model.LogReg
	// TextLen is the span length chosen by hyperparameter optimisation.
	TextLen int
	// Eval is the Table 3-style held-out evaluation at the chosen
	// length; EvalByLen holds the sweep.
	Eval      model.Report
	EvalByLen map[int]model.Report
	// Seeded/Labelled track training-set growth; Table2 counts per
	// data set.
	SeedSize     int
	LabelledSize int
	Table2       map[corpus.Dataset]struct{ Pos, Neg int }
	// CrowdStats are the crowd annotation agreement statistics.
	CrowdStats annotate.Stats
	// SpotCheck is the §5.3 quality pass over delivered crowd labels.
	SpotCheck annotate.SpotCheckResult
	// Results holds the Table 4 rows, keyed by platform.
	Results map[corpus.Platform]*PlatformResult
}

// TotalTruePositives sums confirmed positives across platforms.
func (t *TaskRun) TotalTruePositives() int {
	n := 0
	for _, r := range t.Results {
		n += r.TruePositives
	}
	return n
}

// AllPositives returns every confirmed positive document, ordered by
// platform then document ID.
func (t *TaskRun) AllPositives() []*corpus.Document {
	var out []*corpus.Document
	var plats []string
	for p := range t.Results {
		plats = append(plats, string(p))
	}
	sort.Strings(plats)
	for _, p := range plats {
		out = append(out, t.Results[corpus.Platform(p)].Positives...)
	}
	return out
}

// Pipeline is a completed end-to-end run.
type Pipeline struct {
	Config  Config
	Gen     *corpus.Generator
	Corpora map[corpus.Dataset]*corpus.Corpus
	Blogs   *corpus.Corpus

	Tokenizer *tokenize.Tokenizer
	Hasher    *features.Hasher

	Dox *TaskRun
	CTH *TaskRun

	rng *randx.Source
	// vectors is the run's tokenize-once memo (vectors.go), set by the
	// vectors stage; nil on a Pipeline built without the graph.
	vectors vectorMemo
	// featurizers pools vectorize's scratch (features.Featurizer).
	featurizers sync.Pool
	// g is the run's memoized artifact graph (artifacts.go); opts are
	// the scheduling options the run was started with.
	g    *graph.Graph
	opts Options
}

// Run executes the full reproduction pipeline with default options.
func Run(cfg Config) (*Pipeline, error) {
	return RunWithOptions(cfg, Options{})
}

// RunWithOptions executes the full reproduction pipeline on the
// artifact graph: every stage is computed exactly once, independent
// stages are scheduled concurrently on a bounded pool, and outputs are
// byte-identical to the sequential monolith for a given seed/config
// (each stage owns a pure rng split keyed by its name).
func RunWithOptions(cfg Config, opts Options) (*Pipeline, error) {
	p, err := newPipeline(cfg, opts)
	if err != nil {
		return nil, err
	}
	if err := p.materialize(); err != nil {
		return nil, err
	}
	return p, nil
}

// newPipeline returns a pipeline with its artifact graph registered and
// nothing computed yet.
func newPipeline(cfg Config, opts Options) (*Pipeline, error) {
	cfg.fillDefaults()
	p := &Pipeline{
		Config: cfg,
		rng:    randx.New(cfg.Seed).Split("core"),
		opts:   opts,
	}
	var storeGen uint64
	if opts.StorePath != "" {
		var err error
		if storeGen, err = probeStoreGeneration(opts.StorePath); err != nil {
			return nil, err
		}
	}
	p.initGraph(opts, storeGen)
	return p, nil
}

// materialize computes the run's terminal stages; the graph pulls in
// their dependencies (corpora, tokenizer, hasher, vectors) exactly once
// each.
func (p *Pipeline) materialize() error {
	if err := p.g.Prefetch(context.Background(), StageBlogs, StageTaskDox, StageTaskCTH); err != nil {
		var ge *graph.Errors
		if errors.As(err, &ge) {
			// Preserve the monolith's error shape: report the first
			// failing stage's wrapped error in a stable order.
			for _, name := range []string{StageCorpora, StageBlogs, StageTokenizer, StageHasher, StageVectors, StageTaskDox, StageTaskCTH} {
				if ferr, ok := ge.Failed[name]; ok {
					return ferr
				}
			}
		}
		return err
	}
	return nil
}

// trainTokenizer learns the WordPiece vocabulary from a sample of all
// corpora ("pre-training" in the paper's transformer stack; here the
// sub-word vocabulary is the transferable artifact).
func (p *Pipeline) trainTokenizer() {
	rng := p.rng.Split("vocab")
	var sample []string
	for _, ds := range corpus.Datasets() {
		c, ok := p.Corpora[ds]
		if !ok {
			continue
		}
		n := 800
		if n > c.Len() {
			n = c.Len()
		}
		for i := 0; i < n; i++ {
			sample = append(sample, c.Docs[rng.Intn(c.Len())].Text)
		}
	}
	vocab := tokenize.Train(sample, tokenize.TrainerConfig{VocabSize: p.Config.VocabSize})
	p.Tokenizer = tokenize.NewTokenizer(vocab)
}

// taskPlatforms returns the platforms a task covers: the CTH task
// excludes pastes (Table 2).
func taskPlatforms(task annotate.Task) []corpus.Platform {
	if task == annotate.TaskCTH {
		return []corpus.Platform{corpus.PlatformBoards, corpus.PlatformDiscord, corpus.PlatformTelegram, corpus.PlatformGab}
	}
	return []corpus.Platform{corpus.PlatformBoards, corpus.PlatformDiscord, corpus.PlatformTelegram, corpus.PlatformGab, corpus.PlatformPastes}
}

// truth returns the ground-truth label of a document for a task.
func truth(task annotate.Task, d *corpus.Document) bool {
	if task == annotate.TaskCTH {
		return d.Truth.IsCTH
	}
	return d.Truth.IsDox
}

// docsFor returns all documents on the given platform.
func (p *Pipeline) docsFor(plat corpus.Platform) []*corpus.Document {
	c := p.Corpora[plat.Dataset()]
	if c == nil {
		return nil
	}
	return c.Filter(func(d *corpus.Document) bool { return d.Platform == plat })
}

// ScoreText scores arbitrary text with a task's trained classifier,
// the surface the detection CLI and examples build on.
func (p *Pipeline) ScoreText(task annotate.Task, text string) float64 {
	run := p.Dox
	maxLen := p.Dox.TextLen
	if task == annotate.TaskCTH {
		run = p.CTH
		maxLen = p.CTH.TextLen
	}
	rng := p.rng.Split("score")
	return run.Model.Score(p.vectorize(text, maxLen, rng))
}

// selectionLadder returns the threshold ladder used in Table 4's search.
var selectionLadder = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.935, 0.96, 0.98}
