// Package harassrepro is a self-contained Go reproduction of "A
// Large-Scale Characterization of Online Incitements to Harassment
// Across Platforms" (IMC '21): the paper's call-to-harassment and doxing
// filtering pipelines, every substrate they depend on (synthetic
// multi-platform corpora, a WordPiece + linear-classifier NLP stack,
// simulated annotation workforces, active learning, threshold selection,
// PII extraction, the attack-type taxonomy, thread/harm/repeated-dox
// analyses), and a benchmark harness regenerating every table and figure
// in the paper's evaluation.
//
// Two API layers are exposed:
//
//   - Study: an end-to-end pipeline run over generated corpora, from
//     which every paper experiment can be reproduced and whose trained
//     classifiers score new text.
//   - Stateless analysis helpers (ExtractPII, CategorizeAttack,
//     HarmRisks, InferTargetGender, MatchesSeedQuery) that work on any
//     text without running the pipeline.
//
// All corpus data is synthetic; see DESIGN.md for the substitution map
// between the paper's proprietary resources and this reproduction.
package harassrepro

import (
	"context"

	"harassrepro/internal/annotate"
	"harassrepro/internal/core"
	"harassrepro/internal/corpus"
	"harassrepro/internal/detector"
	"harassrepro/internal/gender"
	"harassrepro/internal/harm"
	"harassrepro/internal/pii"
	"harassrepro/internal/query"
	"harassrepro/internal/taxonomy"
)

// Config controls a full reproduction run; the zero value is filled with
// defaults by Run. See DefaultConfig and QuickConfig.
type Config = core.Config

// DefaultConfig returns the standard reproduction scale (volume 1:10,000
// of the paper's corpora, positives 1:10).
func DefaultConfig(seed uint64) Config { return core.DefaultConfig(seed) }

// QuickConfig returns a reduced scale suitable for tests and fast runs.
func QuickConfig(seed uint64) Config { return core.QuickConfig(seed) }

// Study is a completed end-to-end pipeline run.
type Study struct {
	pipe *core.Pipeline
}

// Run generates the corpora and executes both filtering pipelines.
func Run(cfg Config) (*Study, error) {
	return RunWithOptions(cfg, StudyOptions{})
}

// StudyOptions tune how a run is scheduled; the zero value reproduces
// Run's defaults. Outputs are identical at every setting — the pipeline
// is built on a memoized artifact graph whose stages derive randomness
// from pure per-stage rng splits, so concurrency never changes results.
type StudyOptions struct {
	// Workers bounds the worker pool for pipeline-stage scheduling.
	// 0 means GOMAXPROCS.
	Workers int
}

// RunWithOptions is Run with scheduling options.
func RunWithOptions(cfg Config, opts StudyOptions) (*Study, error) {
	p, err := core.RunWithOptions(cfg, core.Options{Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	return &Study{pipe: p}, nil
}

// ExperimentResult is one experiment's outcome from Experiments.
type ExperimentResult struct {
	ID     string
	Title  string
	Output string // rendered title + body, as Experiment returns
	Err    error  // non-nil when this experiment failed; others still ran
}

// Experiments reproduces the named paper artifacts (all of them when
// ids is empty) concurrently on a bounded pool, sharing memoized
// intermediates. A failing experiment is isolated and reported in its
// result's Err; the rest still run. Results are in input order and
// byte-identical to sequential Experiment calls. The returned error is
// non-nil only for run-level failures (context cancellation).
func (s *Study) Experiments(ctx context.Context, ids []string, workers int) ([]ExperimentResult, error) {
	res, err := s.pipe.RunExperiments(ctx, ids, workers)
	if err != nil {
		return nil, err
	}
	out := make([]ExperimentResult, len(res))
	for i, r := range res {
		out[i] = ExperimentResult{ID: r.ID, Title: r.Title, Output: r.Output, Err: r.Err}
	}
	return out, nil
}

// ExperimentIDs lists the reproducible paper artifacts in paper order
// (table1..table11, fig1..fig6, plus in-text analyses).
func ExperimentIDs() []string {
	var out []string
	for _, e := range core.Experiments() {
		out = append(out, e.ID)
	}
	return out
}

// ExperimentTitle returns the human-readable title for an experiment ID,
// or "" if unknown.
func ExperimentTitle(id string) string {
	for _, e := range core.Experiments() {
		if e.ID == id {
			return e.Title
		}
	}
	return ""
}

// Experiment reproduces one paper artifact by ID and returns its
// rendered text form.
func (s *Study) Experiment(id string) (string, error) {
	return s.pipe.RunExperiment(id)
}

// ScoreDox returns the doxing classifier's positive-class probability
// for text.
func (s *Study) ScoreDox(text string) float64 {
	return s.pipe.ScoreText(annotate.TaskDox, text)
}

// ScoreCTH returns the call-to-harassment classifier's positive-class
// probability for text.
func (s *Study) ScoreCTH(text string) float64 {
	return s.pipe.ScoreText(annotate.TaskCTH, text)
}

// DoxThreshold returns the selected detection threshold for a platform
// ("boards", "discord", "telegram", "gab", "pastes"), or 0.5 if unknown.
func (s *Study) DoxThreshold(platform string) float64 {
	if r, ok := s.pipe.Dox.Results[corpus.Platform(platform)]; ok {
		return r.Threshold
	}
	return 0.5
}

// CTHThreshold returns the selected CTH threshold for a platform, or 0.5
// if unknown.
func (s *Study) CTHThreshold(platform string) float64 {
	if r, ok := s.pipe.CTH.Results[corpus.Platform(platform)]; ok {
		return r.Threshold
	}
	return 0.5
}

// Document is a public view of one generated corpus document.
type Document struct {
	ID          string
	Dataset     string
	Platform    string
	Domain      string
	ThreadID    string
	PosInThread int
	ThreadSize  int
	Date        string
	Text        string
}

func publicDoc(d *corpus.Document) Document {
	return Document{
		ID:          d.ID,
		Dataset:     string(d.Dataset),
		Platform:    string(d.Platform),
		Domain:      d.Domain,
		ThreadID:    d.ThreadID,
		PosInThread: d.PosInThread,
		ThreadSize:  d.ThreadSize,
		Date:        d.Date,
		Text:        d.Text,
	}
}

// Documents returns the generated documents of one data set ("boards",
// "blogs", "chat", "gab", "pastes").
func (s *Study) Documents(dataset string) []Document {
	var src *corpus.Corpus
	if dataset == string(corpus.Blogs) {
		src = s.pipe.Blogs
	} else {
		src = s.pipe.Corpora[corpus.Dataset(dataset)]
	}
	if src == nil {
		return nil
	}
	out := make([]Document, src.Len())
	for i := range src.Docs {
		out[i] = publicDoc(&src.Docs[i])
	}
	return out
}

// AnnotatedDoxes returns the expert-confirmed doxes discovered by the
// pipeline.
func (s *Study) AnnotatedDoxes() []Document {
	return publicDocs(s.pipe.Dox.AllPositives())
}

// AnnotatedCTH returns the expert-confirmed calls to harassment
// discovered by the pipeline.
func (s *Study) AnnotatedCTH() []Document {
	return publicDocs(s.pipe.CTH.AllPositives())
}

func publicDocs(docs []*corpus.Document) []Document {
	out := make([]Document, len(docs))
	for i, d := range docs {
		out[i] = publicDoc(d)
	}
	return out
}

// SaveModels writes the study's trained classifiers, WordPiece
// vocabulary and per-platform thresholds into dir — the paper's
// "open-source the classifiers" release artifact, containing weights and
// configuration only, never corpus text or PII.
func (s *Study) SaveModels(dir string) error {
	return s.pipe.SaveModels(dir)
}

// Detector scores text with classifiers previously saved by SaveModels,
// without corpora or pipeline state — the deployable artifact for
// platforms.
type Detector struct {
	d *detector.Detector
}

// LoadDetector reads a model directory written by SaveModels.
func LoadDetector(dir string) (*Detector, error) {
	d, err := detector.Load(dir)
	if err != nil {
		return nil, err
	}
	return &Detector{d: d}, nil
}

// ScoreDox returns the doxing classifier's positive probability.
func (d *Detector) ScoreDox(text string) float64 { return d.d.ScoreDox(text) }

// ScoreCTH returns the call-to-harassment classifier's positive
// probability.
func (d *Detector) ScoreCTH(text string) float64 { return d.d.ScoreCTH(text) }

// DoxThreshold returns the saved detection threshold for a platform.
func (d *Detector) DoxThreshold(platform string) float64 { return d.d.DoxThreshold(platform) }

// CTHThreshold returns the saved CTH threshold for a platform.
func (d *Detector) CTHThreshold(platform string) float64 { return d.d.CTHThreshold(platform) }

// Platforms lists the platforms with saved thresholds.
func (d *Detector) Platforms() []string { return d.d.Platforms() }

// StreamDocument is one input document for fault-tolerant streaming
// scoring. Only Text is required.
type StreamDocument struct {
	ID       string
	Platform string
	Text     string
}

// StreamOptions configures ScoreStream.
type StreamOptions struct {
	// Workers bounds the concurrent scoring pool; 0 means GOMAXPROCS.
	Workers int
	// Seed makes the run deterministic: same seed, same scores,
	// regardless of worker count or quarantined documents.
	Seed uint64
	// Annotate additionally runs the PII and attack-taxonomy coders
	// per document; if those stages fail the document is still
	// emitted with the annotation marked degraded.
	Annotate bool
}

// StreamResult is one scored document from ScoreStream.
type StreamResult struct {
	// Index is the document's position in the input.
	Index int
	ID    string
	// CTH / Dox are the classifiers' positive-class probabilities
	// (zero when the document was quarantined before scoring).
	CTH float64
	Dox float64
	// PII / Attacks / SeedQuery are filled when Annotate was set.
	PII       []string
	Attacks   []string
	SeedQuery bool
	// Degraded names annotation stages that failed but were
	// tolerated.
	Degraded []string
	// Quarantined marks a document isolated to the dead-letter queue;
	// FailedStage and Err describe the failure.
	Quarantined bool
	FailedStage string
	Err         string
}

// StreamSummary aggregates a streaming run.
type StreamSummary struct {
	Processed   int
	Succeeded   int
	Degraded    int
	Quarantined int
}

// ScoreStream scores documents concurrently on the fault-tolerant
// runtime: each stage runs once per document, and a document whose
// scoring fails or panics is quarantined to the returned dead-letter
// records instead of aborting the run (a failing annotation stage
// degrades it instead). Results are in input order. err is non-nil
// only when ctx was cancelled.
func (d *Detector) ScoreStream(ctx context.Context, docs []StreamDocument, opts StreamOptions) ([]StreamResult, StreamSummary, error) {
	in := make([]detector.StreamDoc, len(docs))
	for i, sd := range docs {
		in[i] = detector.StreamDoc{ID: sd.ID, Platform: sd.Platform, Text: sd.Text}
	}
	results, sum, err := d.d.ScoreBatch(ctx, in, detector.StreamOptions{
		Workers:  opts.Workers,
		Seed:     opts.Seed,
		Annotate: opts.Annotate,
	})
	out := make([]StreamResult, len(results))
	for i, r := range results {
		sr := StreamResult{
			Index:     r.Index,
			ID:        r.Item.ID,
			CTH:       r.Item.CTH,
			Dox:       r.Item.Dox,
			PII:       r.Item.PII,
			Attacks:   r.Item.Attacks,
			SeedQuery: r.Item.SeedQuery,
			Degraded:  r.Degraded,
		}
		if r.Dead != nil {
			sr.Quarantined = true
			sr.FailedStage = r.Dead.Stage
			sr.Err = r.Dead.Err.Error()
		}
		out[i] = sr
	}
	return out, StreamSummary{
		Processed:   sum.Processed,
		Succeeded:   sum.Succeeded,
		Degraded:    sum.Degraded,
		Quarantined: sum.Quarantined,
	}, err
}

// NGramWeight is one n-gram's contribution to a classifier decision.
type NGramWeight struct {
	NGram  string
	Weight float64
}

// ExplainCTH attributes the CTH classifier's decision on text to the
// text's own n-grams, most influential first (linear-model attribution).
func (d *Detector) ExplainCTH(text string, topK int) []NGramWeight {
	var out []NGramWeight
	for _, w := range d.d.ExplainCTH(text, topK) {
		out = append(out, NGramWeight{NGram: w.NGram, Weight: w.Weight})
	}
	return out
}

// ExplainDox attributes the doxing classifier's decision on text to the
// text's own n-grams.
func (d *Detector) ExplainDox(text string, topK int) []NGramWeight {
	var out []NGramWeight
	for _, w := range d.d.ExplainDox(text, topK) {
		out = append(out, NGramWeight{NGram: w.NGram, Weight: w.Weight})
	}
	return out
}

// --- Stateless analysis helpers ---

// PIIMatch is one extracted PII instance.
type PIIMatch struct {
	Type  string
	Value string
}

var sharedExtractor = pii.NewExtractor()

// ExtractPII returns all PII found in text using the paper's 12
// precision-tuned extractors (§5.6).
func ExtractPII(text string) []PIIMatch {
	var out []PIIMatch
	for _, m := range sharedExtractor.Extract(text) {
		out = append(out, PIIMatch{Type: string(m.Type), Value: m.Value})
	}
	return out
}

// PIITypes returns the distinct PII types present in text, in Table 6
// order.
func PIITypes(text string) []string {
	var out []string
	for _, t := range sharedExtractor.Types(text) {
		out = append(out, string(t))
	}
	return out
}

// CategorizeAttack codes text into the paper's attack-type taxonomy,
// returning subcategory names (Table 11 rows). Empty means no attack
// cues were found.
func CategorizeAttack(text string) []string {
	var out []string
	for _, s := range taxonomy.Shared().Categorize(text).Subs() {
		out = append(out, string(s))
	}
	return out
}

// AttackParents codes text and returns the parent attack types (Table 5
// rows).
func AttackParents(text string) []string {
	var out []string
	for _, p := range taxonomy.Shared().Categorize(text).Parents() {
		out = append(out, string(p))
	}
	return out
}

// HarmRisks returns the harm-risk categories (Table 7) indicated by the
// PII and reputation signals in text.
func HarmRisks(text string) []string {
	risks := harm.Profile(sharedExtractor.Types(text), text)
	var out []string
	for _, r := range risks {
		out = append(out, string(r))
	}
	return out
}

// InferTargetGender applies the paper's pronoun-group heuristic (§5.6):
// "male", "female" or "unknown".
func InferTargetGender(text string) string {
	return string(gender.Infer(text))
}

var seedQuery = query.WithAttackTerms(query.Figure4())

// MatchesSeedQuery reports whether text matches the paper's Figure 4
// mobilizing-language seed query (with the attack-term clause).
func MatchesSeedQuery(text string) bool { return seedQuery.Match(text) }

// TaxonomyParents lists the 10 parent attack types.
func TaxonomyParents() []string {
	var out []string
	for _, p := range taxonomy.Parents() {
		out = append(out, string(p))
	}
	return out
}

// TaxonomySubcategories lists the taxonomy's subcategory attack types in
// Table 11 order (28 subcategories plus the Generic parent marker).
func TaxonomySubcategories() []string {
	var out []string
	for _, s := range taxonomy.Subs() {
		out = append(out, string(s))
	}
	return out
}

// ParentDefinition returns the paper's §6.1.1 definition for a parent
// attack type name, or "".
func ParentDefinition(parent string) string {
	return taxonomy.Parent(parent).Definition()
}
