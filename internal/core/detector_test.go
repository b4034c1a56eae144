package core

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"harassrepro/internal/randx"
)

func TestSaveModelsLoadDetector(t *testing.T) {
	p := sharedPipeline(t)
	dir := t.TempDir()
	if err := p.SaveModels(dir); err != nil {
		t.Fatal(err)
	}
	// All four artifacts exist.
	for _, f := range []string{vocabFile, doxFile, cthFile, metaFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("artifact %s: %v", f, err)
		}
	}
	det, err := LoadDetector(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Loaded detector agrees with the live pipeline on confirmed
	// positives (exact scores can differ only by span randomness on
	// long docs; short docs are deterministic).
	for _, d := range p.CTH.AllPositives()[:10] {
		live := p.Dox.Model.Score(p.vectorize(d.Text, p.Dox.TextLen, p.rng.Split("cmp")))
		loaded := det.ScoreDox(d.Text)
		if math.Abs(live-loaded) > 0.2 {
			t.Errorf("scores diverge: live %.3f loaded %.3f", live, loaded)
		}
	}
	// CTH positives score higher than benign text via the detector.
	cthScore := det.ScoreCTH(p.CTH.AllPositives()[0].Text)
	benign := det.ScoreCTH("anyone up for ranked tonight, patch notes are out")
	if cthScore <= benign {
		t.Errorf("detector CTH %.3f <= benign %.3f", cthScore, benign)
	}
	// Thresholds present for the task platforms.
	if len(det.Platforms()) == 0 {
		t.Error("no platforms in metadata")
	}
	for _, plat := range det.Platforms() {
		if th := det.DoxThreshold(plat); th <= 0 || th > 1 {
			t.Errorf("threshold %s = %v", plat, th)
		}
	}
	if det.DoxThreshold("bogus") != 0.5 || det.CTHThreshold("bogus") != 0.5 {
		t.Error("unknown platform should default to 0.5")
	}
}

func TestPipelineDetectorMatchesSaveLoadRoundTrip(t *testing.T) {
	// Pipeline.Detector() (the in-process construction harassd uses
	// when training at startup) must be score-identical to a detector
	// persisted with SaveModels and loaded back: same weights, same
	// metadata, same span-sampling stream.
	p := sharedPipeline(t)
	direct := p.Detector()
	dir := t.TempDir()
	if err := p.SaveModels(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDetector(dir)
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{
		"we should mass report his channel",
		"dropping her address 99 cedar lane and email jane.roe@example.com",
		"anyone up for ranked tonight",
	}
	// Include a long document so the shared span-sampling stream is
	// actually consumed, then a short one to catch stream divergence.
	long := ""
	for i := 0; i < 200; i++ {
		long += "target lives at 12 oak street and posts every night "
	}
	texts = append(texts, long, "post his info everywhere")
	for i, text := range texts {
		if dc, lc := direct.ScoreCTH(text), loaded.ScoreCTH(text); dc != lc {
			t.Errorf("doc %d: cth %v (direct) != %v (loaded)", i, dc, lc)
		}
		if dd, ld := direct.ScoreDox(text), loaded.ScoreDox(text); dd != ld {
			t.Errorf("doc %d: dox %v (direct) != %v (loaded)", i, dd, ld)
		}
	}
	if got, want := direct.Platforms(), loaded.Platforms(); len(got) != len(want) {
		t.Errorf("platforms %v != %v", got, want)
	}
	for _, plat := range loaded.Platforms() {
		if direct.DoxThreshold(plat) != loaded.DoxThreshold(plat) ||
			direct.CTHThreshold(plat) != loaded.CTHThreshold(plat) {
			t.Errorf("thresholds diverge for %s", plat)
		}
	}
}

// longDoc returns a document of n words, longer than both span
// lengths: chat filler with one word in ten drawn from harassment and
// dox cues, so that the spans a score samples decide it.
func longDoc(seed uint64, n int) string {
	filler := strings.Fields("anyone up for ranked tonight patch notes are out the new map is fun and we should play more lol this server is dead")
	cues := strings.Fields("mass report his channel post her address 99 cedar lane phone email")
	rng := randx.New(seed)
	out := make([]string, n)
	for i := range out {
		if rng.Bool(0.1) {
			out[i] = randx.Pick(rng, cues)
		} else {
			out[i] = randx.Pick(rng, filler)
		}
	}
	return strings.Join(out, " ")
}

// TestDetectorScoresArePureFunctionsOfText: ScoreCTH and ScoreDox give
// a long document the same score however often, in whatever order and
// from however many goroutines it is scored.
func TestDetectorScoresArePureFunctionsOfText(t *testing.T) {
	det := testDetector(t)
	docs := []string{longDoc(1, 900), longDoc(2, 1400), "we should mass report his channel", longDoc(3, 700)}
	type pair struct{ cth, dox float64 }
	first := make([]pair, len(docs))
	for i, text := range docs {
		first[i] = pair{det.ScoreCTH(text), det.ScoreDox(text)}
	}
	for i := len(docs) - 1; i >= 0; i-- {
		if got := (pair{det.ScoreCTH(docs[i]), det.ScoreDox(docs[i])}); got != first[i] {
			t.Errorf("doc %d rescored in reverse order: %+v, first %+v", i, got, first[i])
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range docs {
				i := (k + w) % len(docs)
				if got := (pair{det.ScoreCTH(docs[i]), det.ScoreDox(docs[i])}); got != first[i] {
					t.Errorf("goroutine %d doc %d: %+v, sequential %+v", w, i, got, first[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestLoadDetectorErrors(t *testing.T) {
	if _, err := LoadDetector(t.TempDir()); err == nil {
		t.Error("empty directory should error")
	}
	// Corrupt metadata.
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, metaFile), []byte("not json"), 0o644)
	if _, err := LoadDetector(dir); err == nil {
		t.Error("corrupt metadata should error")
	}
	// Wrong version.
	os.WriteFile(filepath.Join(dir, metaFile), []byte(`{"version":99}`), 0o644)
	if _, err := LoadDetector(dir); err == nil {
		t.Error("unsupported version should error")
	}
}

func TestDetectorExplain(t *testing.T) {
	p := sharedPipeline(t)
	dir := t.TempDir()
	if err := p.SaveModels(dir); err != nil {
		t.Fatal(err)
	}
	det, err := LoadDetector(dir)
	if err != nil {
		t.Fatal(err)
	}
	text := "we need to mass-report his twitter and youtube"
	tw := det.ExplainCTH(text, 5)
	if len(tw) == 0 || len(tw) > 5 {
		t.Fatalf("explanation size = %d", len(tw))
	}
	// The top contributions for a positively scored CTH should sum
	// positive when the score is above 0.5.
	if det.ScoreCTH(text) > 0.5 {
		sum := 0.0
		for _, w := range det.ExplainCTH(text, 0) {
			sum += w.Weight
		}
		if sum <= 0 {
			t.Errorf("positive decision but attribution sum = %v", sum)
		}
	}
	if got := det.ExplainDox("dropping her info now Address: 99 Cedar Lane", 3); len(got) == 0 {
		t.Error("dox explanation empty")
	}
}
