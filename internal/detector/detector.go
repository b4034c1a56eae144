// Package detector is the deployable scoring artifact. The paper
// open-sources its trained classifiers so platforms can deploy them
// without access to training data ("we will open-source the classifiers
// discussed in this analysis... We will not provide PII or actual
// training data"). Save/Load are that release artifact: a directory
// holding the WordPiece vocabulary, both classifier weight files, and a
// metadata file with span lengths, feature-space size and the
// per-platform detection thresholds of Table 4 — no corpus text.
package detector

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"harassrepro/internal/annotate"
	"harassrepro/internal/corpus"
	"harassrepro/internal/features"
	"harassrepro/internal/model"
	"harassrepro/internal/randx"
	"harassrepro/internal/tokenize"
)

const (
	vocabFile = "vocab.txt"
	doxFile   = "dox.model"
	cthFile   = "cth.model"
	metaFile  = "meta.json"
)

// detectorMeta is the serialised detector configuration.
type detectorMeta struct {
	Version       int                `json:"version"`
	Buckets       uint32             `json:"buckets"`
	DoxTextLen    int                `json:"dox_text_len"`
	CTHTextLen    int                `json:"cth_text_len"`
	DoxThresholds map[string]float64 `json:"dox_thresholds"`
	CTHThresholds map[string]float64 `json:"cth_thresholds"`
}

// validate rejects metadata whose values would break scoring (zero
// feature space, non-positive span lengths, thresholds outside (0, 1]):
// the partially-written-file failure modes a crashed Save leaves
// behind.
func (m *detectorMeta) validate() error {
	if m.Buckets == 0 {
		return fmt.Errorf("buckets must be positive")
	}
	if m.DoxTextLen <= 0 || m.CTHTextLen <= 0 {
		return fmt.Errorf("span lengths must be positive (dox %d, cth %d)", m.DoxTextLen, m.CTHTextLen)
	}
	for name, ths := range map[string]map[string]float64{"dox": m.DoxThresholds, "cth": m.CTHThresholds} {
		for plat, th := range ths {
			if th <= 0 || th > 1 {
				return fmt.Errorf("%s threshold for %q out of range: %v", name, plat, th)
			}
		}
	}
	return nil
}

// New assembles a detector from trained parts: the tokenizer, the doxing
// and CTH classifiers (both in one hashed feature space), each task's
// span length, and each task's per-platform thresholds. Its scores are
// identical to those of the detector Load reads back from its Save
// directory.
func New(tok *tokenize.Tokenizer, dox, cth *model.LogReg, doxTextLen, cthTextLen int, doxThresholds, cthThresholds map[string]float64) *Detector {
	return newDetector(tok, dox, cth, detectorMeta{
		Version:       1,
		Buckets:       dox.Buckets(),
		DoxTextLen:    doxTextLen,
		CTHTextLen:    cthTextLen,
		DoxThresholds: copyThresholds(doxThresholds),
		CTHThresholds: copyThresholds(cthThresholds),
	})
}

// Detector scores text with previously saved classifiers, without the
// corpora or any pipeline state — the deployable artifact.
type Detector struct {
	tok    *tokenize.Tokenizer
	hasher *features.Hasher
	dox    *model.LogReg
	cth    *model.LogReg
	meta   detectorMeta
	// rng is the span-sampling stream ScoreCTH/ScoreDox start every
	// call from; they draw from a copy, never advance it.
	rng randx.Source
	// scorers pools the per-goroutine scoring scratch (WordPiece
	// session + featurizer) so steady-state scoring is allocation-free.
	scorers sync.Pool
}

// newDetector assembles a detector over its parts, in the feature space
// of meta.Buckets, and builds its scorer pool.
func newDetector(tok *tokenize.Tokenizer, dox, cth *model.LogReg, meta detectorMeta) *Detector {
	hasher := features.NewHasher(features.HasherConfig{Buckets: meta.Buckets, Bigrams: true})
	d := &Detector{tok: tok, hasher: hasher, dox: dox, cth: cth, meta: meta, rng: *randx.New(1).Split("detector")}
	d.scorers.New = func() any {
		return &scorer{sess: tok.NewSession(), feat: hasher.NewFeaturizer(), fresh: true}
	}
	return d
}

// ModelFiles lists the files a complete Save directory holds.
func ModelFiles() []string {
	return []string{vocabFile, doxFile, cthFile, metaFile}
}

// ValidateModelDir checks up front that dir holds every model artifact
// a detector needs, reporting all absent files in one error rather
// than failing late on the first open. A missing directory is its own
// error; an unreadable-but-present file is left for Load's
// per-artifact diagnostics.
func ValidateModelDir(dir string) error {
	if fi, err := os.Stat(dir); err != nil {
		return fmt.Errorf("detector: model dir %s: %w", dir, err)
	} else if !fi.IsDir() {
		return fmt.Errorf("detector: model dir %s: not a directory", dir)
	}
	var missing []string
	for _, name := range ModelFiles() {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("detector: model dir %s: missing %s", dir, strings.Join(missing, ", "))
	}
	return nil
}

// Load reads a directory written by Save. A corrupt, truncated or
// partially-written model directory always yields a descriptive error
// naming the offending artifact, never a panic or a silently broken
// detector.
func Load(dir string) (*Detector, error) {
	if err := ValidateModelDir(dir); err != nil {
		return nil, err
	}
	fail := func(file string, err error) (*Detector, error) {
		return nil, fmt.Errorf("detector: load %s: %w", file, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return fail(metaFile, err)
	}
	var meta detectorMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return fail(metaFile, err)
	}
	if meta.Version != 1 {
		return fail(metaFile, fmt.Errorf("unsupported version %d", meta.Version))
	}
	if err := meta.validate(); err != nil {
		return fail(metaFile, err)
	}
	vocab, err := tokenize.LoadVocabFile(filepath.Join(dir, vocabFile))
	if err != nil {
		return fail(vocabFile, err)
	}
	if vocab.Size() == 0 {
		return fail(vocabFile, fmt.Errorf("vocabulary is empty"))
	}
	dox, err := model.LoadLogRegFile(filepath.Join(dir, doxFile))
	if err != nil {
		return fail(doxFile, err)
	}
	cth, err := model.LoadLogRegFile(filepath.Join(dir, cthFile))
	if err != nil {
		return fail(cthFile, err)
	}
	if dox.Buckets() != meta.Buckets || cth.Buckets() != meta.Buckets {
		return fail(metaFile, fmt.Errorf("buckets %d do not match the models' (dox %d, cth %d)", meta.Buckets, dox.Buckets(), cth.Buckets()))
	}
	return newDetector(tokenize.NewTokenizer(vocab), dox, cth, meta), nil
}

// ScoreDox returns the doxing classifier's positive probability. The
// score is a function of the text alone and the method is safe for
// concurrent use: a document longer than the span length samples its
// spans from a copy of the detector's fixed stream.
func (d *Detector) ScoreDox(text string) float64 {
	rng := d.rng
	return d.scoreWith(d.dox, text, d.meta.DoxTextLen, &rng)
}

// ScoreCTH returns the call-to-harassment classifier's positive
// probability; see ScoreDox.
func (d *Detector) ScoreCTH(text string) float64 {
	rng := d.rng
	return d.scoreWith(d.cth, text, d.meta.CTHTextLen, &rng)
}

// Scores returns both classifiers' positive probabilities, (CTH, dox),
// tokenizing text once. Each equals what ScoreCTH and ScoreDox return.
func (d *Detector) Scores(text string) (cth, dox float64) {
	cthRng, doxRng := d.rng, d.rng
	return d.scoreBoth(text, &cthRng, &doxRng, nil, 0)
}

// DoxThreshold returns the saved Table 4 threshold for a platform, or
// 0.5 when the platform is unknown.
func (d *Detector) DoxThreshold(platform string) float64 {
	if t, ok := d.meta.DoxThresholds[platform]; ok {
		return t
	}
	return 0.5
}

// CTHThreshold returns the saved CTH threshold for a platform, or 0.5.
func (d *Detector) CTHThreshold(platform string) float64 {
	if t, ok := d.meta.CTHThresholds[platform]; ok {
		return t
	}
	return 0.5
}

// ExplainCTH attributes the CTH classifier's decision on text to its
// n-grams (top-k by absolute weight). Spans are not applied: explanation
// considers the full token sequence.
func (d *Detector) ExplainCTH(text string, topK int) []model.TokenWeight {
	return model.Explain(d.cth, d.hasher, d.tok.Tokenize(text), topK)
}

// ExplainDox attributes the doxing classifier's decision on text to its
// n-grams.
func (d *Detector) ExplainDox(text string, topK int) []model.TokenWeight {
	return model.Explain(d.dox, d.hasher, d.tok.Tokenize(text), topK)
}

// Save writes the detector into dir (created if needed) in the layout
// Load reads, so a detector built in memory (New, Retrained) can be
// released or committed to a registry generation.
func (d *Detector) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("detector: save detector: %w", err)
	}
	if err := d.tok.Vocab().SaveFile(filepath.Join(dir, vocabFile)); err != nil {
		return err
	}
	if err := d.dox.SaveFile(filepath.Join(dir, doxFile)); err != nil {
		return err
	}
	if err := d.cth.SaveFile(filepath.Join(dir, cthFile)); err != nil {
		return err
	}
	data, err := json.MarshalIndent(d.meta, "", "  ")
	if err != nil {
		return fmt.Errorf("detector: save detector: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, metaFile), data, 0o644); err != nil {
		return fmt.Errorf("detector: save detector: %w", err)
	}
	return nil
}

// Retrained returns a new detector that replaces one task's classifier
// (and optionally its per-platform thresholds) while sharing the
// vocabulary and feature space with the receiver. The new model must
// live in the same hashed feature space; thresholds outside (0, 1] are
// rejected. The receiver is not modified.
func (d *Detector) Retrained(task annotate.Task, m *model.LogReg, thresholds map[string]float64) (*Detector, error) {
	if m == nil {
		return nil, fmt.Errorf("detector: retrained: nil model")
	}
	if m.Buckets() != d.meta.Buckets {
		return nil, fmt.Errorf("detector: retrained: model buckets %d do not match detector feature space %d", m.Buckets(), d.meta.Buckets)
	}
	meta := d.meta
	meta.DoxThresholds = copyThresholds(d.meta.DoxThresholds)
	meta.CTHThresholds = copyThresholds(d.meta.CTHThresholds)
	dox, cth, target := m, d.cth, meta.DoxThresholds
	if task == annotate.TaskCTH {
		dox, cth, target = d.dox, m, meta.CTHThresholds
	}
	for plat, th := range thresholds {
		if th <= 0 || th > 1 {
			return nil, fmt.Errorf("detector: retrained: threshold for %q out of range: %v", plat, th)
		}
		target[plat] = th
	}
	return newDetector(d.tok, dox, cth, meta), nil
}

func copyThresholds(in map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(in))
	maps.Copy(out, in)
	return out
}

// VectorizeTask converts text into the model input vector for a task's
// span length on pooled scratch, returning an owned vector that
// outlives the scratch — the surface the retrain pipeline uses to
// build training examples in the deployed detector's feature space.
func (d *Detector) VectorizeTask(task annotate.Task, text string, rng *randx.Source) features.Vector {
	maxLen := d.meta.DoxTextLen
	if task == annotate.TaskCTH {
		maxLen = d.meta.CTHTextLen
	}
	sc := d.scorers.Get().(*scorer)
	out := sc.vectorize(text, maxLen, rng).Clone()
	d.scorers.Put(sc)
	return out
}

// Buckets reports the hashed feature-space size the classifiers share.
func (d *Detector) Buckets() uint32 { return d.meta.Buckets }

// TaskThresholds returns a copy of a task's per-platform thresholds.
func (d *Detector) TaskThresholds(task annotate.Task) map[string]float64 {
	if task == annotate.TaskCTH {
		return copyThresholds(d.meta.CTHThresholds)
	}
	return copyThresholds(d.meta.DoxThresholds)
}

// Platforms lists the platforms with saved thresholds.
func (d *Detector) Platforms() []string {
	out := []string{}
	for _, plat := range []corpus.Platform{corpus.PlatformBoards, corpus.PlatformDiscord, corpus.PlatformTelegram, corpus.PlatformGab, corpus.PlatformPastes} {
		_, dox := d.meta.DoxThresholds[string(plat)]
		_, cth := d.meta.CTHThresholds[string(plat)]
		if dox || cth {
			out = append(out, string(plat))
		}
	}
	return out
}
