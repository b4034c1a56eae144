package detector

// The package's own checks run on a committed model directory,
// testdata/quick-seed1: the Save output of the quick seed-1 reproduction
// (internal/core's TestDetectorFixtureMatchesSaveModels keeps it equal
// to a fresh run and regenerates it with -update). The pipeline's own
// golden and legacy-composition checks of the detector live beside the
// pipeline, in internal/core.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"harassrepro/internal/corpus"
	"harassrepro/internal/obs"
	"harassrepro/internal/randx"
	"harassrepro/internal/testutil"
)

const fixtureDir = "testdata/quick-seed1"

// fixtureDetector loads the committed model directory.
func fixtureDetector(t testing.TB) *Detector {
	t.Helper()
	d, err := Load(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

var (
	boardsOnce sync.Once
	boards     *corpus.Corpus
)

// streamDocs returns the first n documents of the quick-scale, seed-1
// boards corpus (part of the run the fixture was trained by), plus
// documents around both span lengths so every scoring regime runs: one
// shared vector, CTH spans with a whole-document dox vector, and spans
// for both.
func streamDocs(t testing.TB, n int) []StreamDoc {
	t.Helper()
	boardsOnce.Do(func() {
		boards = corpus.NewGenerator(corpus.Config{Seed: 1, VolumeScale: 40_000, PositiveScale: 20}).Generate()[corpus.Boards]
	})
	if boards.Len() < n {
		t.Fatalf("boards corpus has %d documents, want %d", boards.Len(), n)
	}
	docs := make([]StreamDoc, 0, n+4)
	for _, d := range boards.Docs[:n] {
		docs = append(docs, StreamDoc{ID: d.ID, Platform: string(d.Platform), Text: d.Text})
	}
	for _, words := range []int{129, 300, 513, 1100} {
		docs = append(docs, StreamDoc{ID: fmt.Sprintf("words-%d", words), Platform: "pastes", Text: wordsText(words)})
	}
	return docs
}

// TestThresholdPlatformsAreCorpusPlatforms holds the detector's own
// platform list to corpus's constants, in order, and checks the fixture
// reports every one of them.
func TestThresholdPlatformsAreCorpusPlatforms(t *testing.T) {
	var want []string
	for _, p := range []corpus.Platform{corpus.PlatformBoards, corpus.PlatformDiscord, corpus.PlatformTelegram, corpus.PlatformGab, corpus.PlatformPastes} {
		want = append(want, string(p))
	}
	if strings.Join(thresholdPlatforms, ",") != strings.Join(want, ",") {
		t.Errorf("thresholdPlatforms = %q, want corpus's %q", thresholdPlatforms, want)
	}
	if got := fixtureDetector(t).Platforms(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("fixture Platforms() = %q, want %q", got, want)
	}
}

// wordsText is n single-letter words, each one token, in a
// pseudo-random order, so every span of it has its own features.
func wordsText(n int) string {
	out := make([]string, n)
	x := uint32(1)
	for i := range out {
		x = x*1103515245 + 12345
		out[i] = string(rune('a' + (x>>16)%26))
	}
	return strings.Join(out, " ")
}

// TestNewSavesTheFixture: a detector assembled with New from the
// fixture's parts saves the fixture's bytes, and Load reads them back.
func TestNewSavesTheFixture(t *testing.T) {
	d := fixtureDetector(t)
	built := New(d.tok, d.dox, d.cth, d.meta.DoxTextLen, d.meta.CTHTextLen, d.meta.DoxThresholds, d.meta.CTHThresholds)
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range ModelFiles() {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(fixtureDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: New then Save wrote %d bytes that differ from the fixture's %d", name, len(got), len(want))
		}
	}
}

// TestInstrumentedStreamMatchesPlain: the score stage has one body, so a
// stream with metrics gives the plain stream's bits at every worker
// count, and each document's scores are what scoreBoth gives it from
// the stream's per-document span streams.
func TestInstrumentedStreamMatchesPlain(t *testing.T) {
	d := fixtureDetector(t)
	docs := streamDocs(t, 200)
	base := randx.New(7)
	cthBase, doxBase := base.Split("score-cth"), base.Split("score-dox")
	for _, workers := range []int{1, 8} {
		for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
			res, sum, err := d.ScoreBatch(context.Background(), docs, StreamOptions{Workers: workers, Seed: 7, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if sum.Succeeded != len(docs) {
				t.Fatalf("workers=%d metrics=%v: summary %v", workers, reg != nil, sum)
			}
			for i, r := range res {
				cthRng, doxRng := cthBase.SplitNVal("doc", i), doxBase.SplitNVal("doc", i)
				cth, dox := d.scoreBoth(docs[i].Text, &cthRng, &doxRng, nil, 0)
				if r.Item.CTH != cth || r.Item.Dox != dox {
					t.Fatalf("workers=%d metrics=%v doc %d: streamed (%v, %v), scoreBoth (%v, %v)",
						workers, reg != nil, i, r.Item.CTH, r.Item.Dox, cth, dox)
				}
			}
		}
	}
}

// TestScoreToksAllocs gates the one scoring body at zero allocations per
// document, with and without a phase clock, on a short document (one
// shared vector) and a long one (spans for both tasks).
func TestScoreToksAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	d := fixtureDetector(t)
	sc := d.scorers.Get().(*scorer)
	defer d.scorers.Put(sc)
	for _, text := range []string{"we need to mass-report his twitter and youtube, spread the word", wordsText(600)} {
		for _, clk := range []*phaseClock{nil, {}} {
			cthRng, doxRng := new(randx.Source), new(randx.Source)
			run := func() {
				*cthRng, *doxRng = d.rng, d.rng
				d.scoreToks(sc, text, cthRng, doxRng, clk)
			}
			run() // warm scratch
			if n := testing.AllocsPerRun(200, run); n > 0 {
				t.Errorf("scoreToks(%d bytes, clock %v) allocates %v per op, want 0", len(text), clk != nil, n)
			}
		}
	}
}

// FuzzLoad feeds Load model directories whose meta.json and vocab.txt
// are arbitrary bytes (the classifier files are the fixture's). Load
// must never panic: it returns an error naming one of the directory's
// files, or a detector whose scores are probabilities.
func FuzzLoad(f *testing.F) {
	meta, err := os.ReadFile(filepath.Join(fixtureDir, metaFile))
	if err != nil {
		f.Fatal(err)
	}
	vocab, err := os.ReadFile(filepath.Join(fixtureDir, vocabFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(meta, vocab)
	f.Add(meta, []byte("a\nb\n##c\n"))
	f.Add(bytes.Replace(meta, []byte(`"cth_text_len": 128`), []byte(`"cth_text_len": 1`), 1), vocab)
	f.Add([]byte(`{"version":1,"buckets":65536,"dox_text_len":2,"cth_text_len":3}`), []byte("\n\n"))
	models := map[string][]byte{}
	for _, name := range []string{doxFile, cthFile} {
		if models[name], err = os.ReadFile(filepath.Join(fixtureDir, name)); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, meta, vocab []byte) {
		dir := t.TempDir()
		files := map[string][]byte{metaFile: meta, vocabFile: vocab, doxFile: models[doxFile], cthFile: models[cthFile]}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		d, err := Load(dir)
		if err != nil {
			for _, name := range ModelFiles() {
				if strings.Contains(err.Error(), name) {
					return
				}
			}
			t.Fatalf("error names no model file: %v", err)
		}
		cth, dox := d.Scores("we should mass report his channel and post her address 99 cedar lane")
		if !(cth >= 0 && cth <= 1 && dox >= 0 && dox <= 1) {
			t.Fatalf("scores (%v, %v) outside [0, 1]", cth, dox)
		}
	})
}

// TestLoadErrorsNameTheirFile: each way a model directory can fail names
// the file at fault.
func TestLoadErrorsNameTheirFile(t *testing.T) {
	meta, err := os.ReadFile(filepath.Join(fixtureDir, metaFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file string
		data []byte
	}{
		{metaFile, []byte(`{"version":2}`)},
		{metaFile, bytes.Replace(meta, []byte(`"buckets": 65536`), []byte(`"buckets": 1024`), 1)},
		{vocabFile, []byte("\n")},
		{doxFile, []byte("not a model")},
		{cthFile, nil},
	} {
		dir := t.TempDir()
		for _, name := range ModelFiles() {
			data, err := os.ReadFile(filepath.Join(fixtureDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if name == tc.file {
				data = tc.data
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, err := Load(dir)
		if err == nil || !strings.Contains(err.Error(), tc.file) {
			t.Errorf("broken %s: error %v does not name it", tc.file, err)
		}
		if errors.Unwrap(err) == nil {
			t.Errorf("broken %s: error %v wraps nothing", tc.file, err)
		}
	}
}

// benchDocs mixes short chat messages, PII-bearing text, long pastes,
// documents at the span-length boundaries, unicode and junk.
func benchDocs() []StreamDoc {
	docs := []StreamDoc{
		{ID: "chat-1", Platform: "discord", Text: "we need to mass-report his twitter and youtube, spread the word"},
		{ID: "chat-2", Platform: "telegram", Text: "anyone up for ranked tonight, patch notes are out"},
		{ID: "dox-1", Platform: "pastes", Text: "dropping her info now Address: 99 Cedar Lane, phone 555-867-5309, jane.roe@example.com"},
		{ID: "uni-1", Platform: "gab", Text: "İstanbul STRASSE ﬂuent ſtreet Kelvin K"},
		{ID: "junk-1", Platform: "boards", Text: "a\xffb\xfe invalid \xc3( bytes"},
		{ID: "long-1", Platform: "pastes", Text: strings.Repeat("target lives at 12 oak street and posts on twitter dot com every night ", 40)},
	}
	for _, n := range []int{128, 129, 300, 512, 513, 1100} {
		docs = append(docs, StreamDoc{ID: fmt.Sprintf("toks-%d", n), Platform: "boards", Text: wordsText(n)})
	}
	for i := 0; i < 40; i++ {
		docs = append(docs, StreamDoc{
			ID:       fmt.Sprintf("fill-%d", i),
			Platform: "discord",
			Text:     fmt.Sprintf("message %d: report this account before it spreads %d", i, i*i),
		})
	}
	return docs
}

// BenchmarkScoreBatch runs the same documents at the same seed through
// the plain and the instrumented stream:
//
//	go test -run '^$' -bench '^BenchmarkScoreBatch$' -count 10 ./internal/detector/
//
// The per-document instrumentation overhead is the ratio of the
// metrics and plain arms at docs=4096, where the per-call cost of
// building the instruments is spread thin; the docs=1 arms show that
// per-call cost as their difference in ns/op.
func BenchmarkScoreBatch(b *testing.B) {
	d := fixtureDetector(b)
	var all []StreamDoc
	for len(all) < 4096 {
		all = append(all, benchDocs()...)
	}
	for _, n := range []int{4096, 1} {
		docs := all[:n]
		for _, arm := range []struct {
			name    string
			metrics *obs.Registry
		}{
			{"plain", nil},
			{"metrics", obs.NewRegistry()},
		} {
			b.Run(fmt.Sprintf("%s/docs=%d", arm.name, n), func(b *testing.B) {
				opts := StreamOptions{Seed: 42, Metrics: arm.metrics}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := d.ScoreBatch(context.Background(), docs, opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/doc")
			})
		}
	}
}
