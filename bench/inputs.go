package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	harassrepro "harassrepro"
	"harassrepro/bench/benchkit"
	"harassrepro/internal/core"
	"harassrepro/internal/corpus"
	"harassrepro/internal/randx"
	"harassrepro/internal/tokenize"
)

// inputs is the workload corpus every scoring and store workload
// draws from: generated from the workload seed alone, with the hidden
// is_cth / is_dox truth the quality figures are computed against.
type inputs struct {
	corpora   map[corpus.Dataset]*corpus.Corpus
	blogs     *corpus.Corpus
	docs      []corpus.Document // store order: boards, blogs, chat, gab, pastes
	textBytes int64
}

// generateInputs builds the corpus at the benchmark's scale (about
// 85,000 documents, 8 MB of text, median 44 bytes) or, for -smoke, a
// corpus of a couple of thousand.
func generateInputs(rc *runConfig) *inputs {
	cfg := corpus.Config{Seed: rc.seed, VolumeScale: 10_000, PositiveScale: 10}
	blogScale := 10
	if rc.smoke {
		cfg.VolumeScale, cfg.PositiveScale, blogScale = 400_000, 100, 200
	}
	g := corpus.NewGenerator(cfg)
	in := &inputs{corpora: g.Generate()}
	in.blogs = g.GenerateBlogs(corpus.DefaultBlogSpecs(blogScale))
	for _, ds := range corpus.Datasets() {
		c := in.corpora[ds]
		if ds == corpus.Blogs {
			c = in.blogs
		}
		if c != nil {
			in.docs = append(in.docs, c.Docs...)
		}
	}
	for i := range in.docs {
		in.textBytes += int64(len(in.docs[i].Text))
	}
	return in
}

// shuffledOrder is the seeded permutation that turns the corpus into a
// request stream.
func shuffledOrder(n int, seed uint64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	randx.Shuffle(randx.New(seed).Split("bench-requests"), order)
	return order
}

// models is the reference classifier: trained in this process at
// trainSeed exactly as harassd trains at start-up, saved, and loaded
// back the way a deployment would.
type models struct {
	dir string
	det *core.Detector
	// cthLen / doxLen are the classifiers' span lengths in tokens. A
	// document at or under the span length is scored without span
	// sampling, so its score does not depend on the order in which a
	// server happened to see it.
	cthLen, doxLen int
	buckets        uint32
	tok            *tokenize.Tokenizer // rebuilt from the saved vocabulary
	sess           *tokenize.Session
}

func trainModels(rc *runConfig) (*models, error) {
	if rc.modelsDir != "" {
		return loadModels(rc.modelsDir)
	}
	study, err := harassrepro.Run(harassrepro.QuickConfig(trainSeed))
	if err != nil {
		return nil, fmt.Errorf("training the reference classifier: %w", err)
	}
	dir := filepath.Join(rc.tmp, "models")
	if err := study.SaveModels(dir); err != nil {
		return nil, err
	}
	return loadModels(dir)
}

func loadModels(dir string) (*models, error) {
	det, err := core.LoadDetector(dir)
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	var meta struct {
		Buckets    uint32 `json:"buckets"`
		DoxTextLen int    `json:"dox_text_len"`
		CTHTextLen int    `json:"cth_text_len"`
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("meta.json: %w", err)
	}
	vocab, err := tokenize.LoadVocabFile(filepath.Join(dir, "vocab.txt"))
	if err != nil {
		return nil, err
	}
	tok := tokenize.NewTokenizer(vocab)
	return &models{
		dir: dir, det: det, cthLen: meta.CTHTextLen, doxLen: meta.DoxTextLen, buckets: meta.Buckets,
		tok: tok, sess: tok.NewSession(),
	}, nil
}

// buildHarassd compiles the server under test. It runs before any
// clock starts; with a warm build cache it is a fraction of a second.
func buildHarassd(rc *runConfig) error {
	if rc.harassd != "" {
		return nil
	}
	out := filepath.Join(rc.tmp, "harassd")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/harassd")
	cmd.Dir = rc.root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/harassd: %v\n%s", err, b)
	}
	rc.harassd = out
	return nil
}

// processStart times how long this binary — which links every layer
// the workloads call — takes from exec to main, by re-executing itself
// as a no-op. It is the set-up every in-process path pays before its
// first operation, and where work moved into package initialisation
// would show.
func processStart(reps int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var secs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := exec.Command(self, "-workload", "none").Run(); err != nil {
			return 0, fmt.Errorf("start-up probe: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return benchkit.Median(secs), nil
}

// setupReps is how many times a run repeats an in-process set-up; the
// median is reported, because one cold start says little. (A harassd
// start takes half a second, so the online workloads repeat it less.)
const setupReps = 9

// procCPU and procPeakRSSMB read a process's CPU seconds and peak
// resident set; a process that cannot be read (it has exited) reads 0,
// which the never-zero end-to-end metrics then expose.
func procCPU(pid int) float64 {
	s, err := benchkit.ProcCPU(pid)
	if err != nil {
		return 0
	}
	return s
}

func procPeakRSSMB(pid int) float64 {
	mb, err := benchkit.PeakRSSMB(pid)
	if err != nil {
		return 0
	}
	return mb
}

func selfCPU() float64       { return procCPU(os.Getpid()) }
func selfPeakRSSMB() float64 { return procPeakRSSMB(os.Getpid()) }
