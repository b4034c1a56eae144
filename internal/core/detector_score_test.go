package core

// Golden equivalence tests for the deployed detector's pooled
// zero-allocation scoring path, against the parts of the pipeline that
// trained it. referenceVectorize is the legacy detector vectorize
// (fresh tokenizer output, fresh merge slice, allocating
// Hasher.Vectorize) over the pipeline's tokenizer and hasher; every
// detector score must match it bit for bit, and streamed batches must
// be bit-identical at every worker count.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"harassrepro/internal/detector"
	"harassrepro/internal/features"
	"harassrepro/internal/obs"
	"harassrepro/internal/randx"
	"harassrepro/internal/resilience"
	"harassrepro/internal/testutil"
	"harassrepro/internal/tokenize"
)

// referenceVectorize is the legacy detector vectorize over p's
// tokenizer and hasher.
func referenceVectorize(p *Pipeline, text string, maxLen int, rng *randx.Source) features.Vector {
	toks := p.Tokenizer.Tokenize(text)
	spans := tokenize.Spans(toks, maxLen, 2, tokenize.SpanRandomNoOverlap, rng)
	if len(spans) == 1 {
		return p.Hasher.Vectorize(spans[0])
	}
	var merged []string
	for _, s := range spans {
		merged = append(merged, s...)
	}
	return p.Hasher.Vectorize(merged)
}

// detectorStream is the fixed span-sampling stream a detector's
// ScoreCTH, ScoreDox and Scores start every call from.
func detectorStream() *randx.Source { return randx.New(1).Split("detector") }

// testDetector saves the shared pipeline's models and loads them back.
func testDetector(t testing.TB) *detector.Detector {
	t.Helper()
	p := sharedPipeline(t)
	dir := t.TempDir()
	if err := p.SaveModels(dir); err != nil {
		t.Fatal(err)
	}
	det, err := detector.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// tokenLenDocs are golden documents of an exact token count, one on each
// side of both span lengths (CTH 128, dox 512) and one between them —
// the three regimes of the fused scorer: one shared vector, CTH spans
// with a whole-document dox vector, and spans for both — plus one long
// enough that dox keeps two of three spans, so its span choice depends
// on its own stream. TestGoldenStreamDocTokenCounts pins the counts.
var tokenLenDocs = []struct {
	id     string
	tokens int
}{{"toks-128", 128}, {"toks-129", 129}, {"toks-300", 300}, {"toks-512", 512}, {"toks-513", 513}, {"toks-1100", 1100}}

// tokenLenText is n single-letter words, each one token, in a
// pseudo-random order, so every span of it has its own features.
func tokenLenText(n int) string {
	out := make([]string, n)
	x := uint32(1)
	for i := range out {
		x = x*1103515245 + 12345
		out[i] = string(rune('a' + (x>>16)%26))
	}
	return strings.Join(out, " ")
}

// goldenStreamDocs mixes short chat messages, PII-bearing text, long
// pastes (forcing the span-sampling branch), documents at the span-length
// boundaries, unicode and junk.
func goldenStreamDocs() []detector.StreamDoc {
	docs := []detector.StreamDoc{
		{ID: "chat-1", Platform: "discord", Text: "we need to mass-report his twitter and youtube, spread the word"},
		{ID: "chat-2", Platform: "telegram", Text: "anyone up for ranked tonight, patch notes are out"},
		{ID: "dox-1", Platform: "pastes", Text: "dropping her info now Address: 99 Cedar Lane, phone 555-867-5309, jane.roe@example.com"},
		{ID: "uni-1", Platform: "gab", Text: "İstanbul STRASSE ﬂuent ſtreet Kelvin K"},
		{ID: "junk-1", Platform: "boards", Text: "a\xffb\xfe invalid \xc3( bytes"},
		{ID: "long-1", Platform: "pastes", Text: strings.Repeat("target lives at 12 oak street and posts on twitter dot com every night ", 40)},
	}
	for _, tl := range tokenLenDocs {
		docs = append(docs, detector.StreamDoc{ID: tl.id, Platform: "boards", Text: tokenLenText(tl.tokens)})
	}
	for i := 0; i < 40; i++ {
		docs = append(docs, detector.StreamDoc{
			ID:       fmt.Sprintf("fill-%d", i),
			Platform: "discord",
			Text:     fmt.Sprintf("message %d: report this account before it spreads %d", i, i*i),
		})
	}
	return docs
}

// TestScoreWithMatchesLegacyComposition pins the detector's
// single-task scores to the legacy tokenizer/hasher composition with
// the trained models, including the long-document span branch: same
// text, same rng state, same score bits.
func TestScoreWithMatchesLegacyComposition(t *testing.T) {
	p := sharedPipeline(t)
	det := testDetector(t)
	for _, doc := range goldenStreamDocs() {
		legacyCTH := p.CTH.Model.Score(referenceVectorize(p, doc.Text, p.CTH.TextLen, detectorStream()))
		legacyDox := p.Dox.Model.Score(referenceVectorize(p, doc.Text, p.Dox.TextLen, detectorStream()))
		if fast := det.ScoreCTH(doc.Text); fast != legacyCTH {
			t.Errorf("cth score for %s: fast %v, legacy %v", doc.ID, fast, legacyCTH)
		}
		if fast := det.ScoreDox(doc.Text); fast != legacyDox {
			t.Errorf("dox score for %s: fast %v, legacy %v", doc.ID, fast, legacyDox)
		}
	}
}

// TestGoldenStreamDocTokenCounts pins the boundary documents to their
// token counts at the trained span lengths, so each length regime of
// the fused scorer is really exercised.
func TestGoldenStreamDocTokenCounts(t *testing.T) {
	p := sharedPipeline(t)
	if p.CTH.TextLen != 128 || p.Dox.TextLen != 512 {
		t.Fatalf("span lengths cth %d, dox %d; the boundary documents assume 128 and 512",
			p.CTH.TextLen, p.Dox.TextLen)
	}
	for _, tl := range tokenLenDocs {
		if got := len(p.Tokenizer.Tokenize(tokenLenText(tl.tokens))); got != tl.tokens {
			t.Errorf("%s: %d tokens, want %d", tl.id, got, tl.tokens)
		}
	}
}

// TestScoreBothMatchesLegacyComposition pins the fused scorer to the
// legacy per-task composition in every length regime: Scores, one
// tokenize for both classifiers, gives the same score bits as
// tokenizing and featurizing once per task from the same stream, and
// equals ScoreCTH and ScoreDox. (TestScoreBatchWorkerCountInvariance
// pins the fused scorer with a distinct stream per task.)
func TestScoreBothMatchesLegacyComposition(t *testing.T) {
	p := sharedPipeline(t)
	det := testDetector(t)
	for _, doc := range goldenStreamDocs() {
		wantCTH := p.CTH.Model.Score(referenceVectorize(p, doc.Text, p.CTH.TextLen, detectorStream()))
		wantDox := p.Dox.Model.Score(referenceVectorize(p, doc.Text, p.Dox.TextLen, detectorStream()))
		cth, dox := det.Scores(doc.Text)
		if cth != wantCTH || dox != wantDox {
			t.Errorf("%s: Scores (%v, %v), legacy (%v, %v)", doc.ID, cth, dox, wantCTH, wantDox)
		}
		if wantCTH, wantDox := det.ScoreCTH(doc.Text), det.ScoreDox(doc.Text); cth != wantCTH || dox != wantDox {
			t.Errorf("%s: Scores (%v, %v), ScoreCTH/ScoreDox (%v, %v)", doc.ID, cth, dox, wantCTH, wantDox)
		}
	}
}

// TestScoreBatchWorkerCountInvariance runs the same batch at several
// worker counts, with and without metrics, and requires bit-identical
// scores everywhere — the determinism contract the pooled scratch must
// not break — and equal to the legacy two-pass composition (tokenize and
// featurize once per classifier) with the stream's own rng derivation.
func TestScoreBatchWorkerCountInvariance(t *testing.T) {
	p := sharedPipeline(t)
	det := testDetector(t)
	docs := goldenStreamDocs()
	base := randx.New(42)
	cthBase := base.Split("score-cth")
	doxBase := base.Split("score-dox")
	for _, instrumented := range []bool{false, true} {
		for _, workers := range []int{1, 2, 8} {
			opts := detector.StreamOptions{Workers: workers, Seed: 42, Ordered: true, Annotate: true}
			if instrumented {
				opts.Metrics = obs.NewRegistry()
			}
			results, _, err := det.ScoreBatch(context.Background(), docs, opts)
			if err != nil {
				t.Fatalf("workers=%d metrics=%v: %v", workers, instrumented, err)
			}
			if len(results) != len(docs) {
				t.Fatalf("workers=%d metrics=%v: %d results for %d docs", workers, instrumented, len(results), len(docs))
			}
			for i, r := range results {
				cthRng := cthBase.SplitNVal("doc", i)
				doxRng := doxBase.SplitNVal("doc", i)
				wantCTH := p.CTH.Model.Score(referenceVectorize(p, docs[i].Text, p.CTH.TextLen, &cthRng))
				wantDox := p.Dox.Model.Score(referenceVectorize(p, docs[i].Text, p.Dox.TextLen, &doxRng))
				if r.Item.CTH != wantCTH || r.Item.Dox != wantDox {
					t.Errorf("workers=%d metrics=%v doc %s: streamed (%v, %v) != legacy (%v, %v)",
						workers, instrumented, r.Item.ID, r.Item.CTH, r.Item.Dox, wantCTH, wantDox)
				}
			}
		}
	}
}

// TestScoreStreamSteadyStateAllocs bounds per-document allocations on
// the streaming path. The scoring itself is allocation-free; the small
// remaining budget covers the runner's per-item bookkeeping (result
// envelope, channel send) — far below the ~350 allocations per document
// the legacy path paid. A document over the dox span length also pins
// the span path: sampling, merging and gathering spans whose distinct
// n-grams outgrow the featurizer's initial table.
func TestScoreStreamSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	det := testDetector(t)
	for _, text := range []string{
		"we need to mass-report his twitter and youtube, spread the word",
		tokenLenText(sharedPipeline(t).Dox.TextLen + 100),
	} {
		det.Scores(text) // warm pooled scratch
		if n := testing.AllocsPerRun(200, func() {
			det.ScoreCTH(text)
			det.ScoreDox(text)
		}); n > 0 {
			t.Errorf("ScoreCTH+ScoreDox(%d bytes) allocate %v per op, want 0", len(text), n)
		}
		if n := testing.AllocsPerRun(200, func() { det.Scores(text) }); n > 0 {
			t.Errorf("Scores(%d bytes) allocates %v per op, want 0", len(text), n)
		}
	}
}

// TestAnnotateStagesCueFreeAllocs pins the annotation stages' common
// case — a document with no PII, no attack cue and no seed-query match,
// nine in ten — to zero allocations: the PII engine's clean path, the
// taxonomy gate's single scan and the seed query's substring tests.
func TestAnnotateStagesCueFreeAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	sd := detector.StreamDoc{ID: "x", Text: "anyone up for ranked tonight, the patch notes are out and they look good"}
	ran := 0
	for _, st := range runnerStages(testDetector(t), detector.StreamOptions{Annotate: true}) {
		if st.Name != "pii" && st.Name != "taxonomy" {
			continue
		}
		ran++
		if err := st.Fn(context.Background(), 0, &sd); err != nil { // warm
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() { _ = st.Fn(context.Background(), 0, &sd) }); n > 0 {
			t.Errorf("%s stage allocates %v per cue-free document, want 0", st.Name, n)
		}
	}
	if ran != 2 || sd.PII != nil || sd.Attacks != nil || sd.SeedQuery {
		t.Fatalf("ran %d annotation stages, doc = %+v", ran, sd)
	}
}

// runnerStages returns the stages det's runner for opts is built from,
// caught on their way through opts.StageWrap.
func runnerStages(det *detector.Detector, opts detector.StreamOptions) []resilience.Stage[detector.StreamDoc] {
	var stages []resilience.Stage[detector.StreamDoc]
	opts.StageWrap = func(st resilience.Stage[detector.StreamDoc]) resilience.Stage[detector.StreamDoc] {
		stages = append(stages, st)
		return st
	}
	det.Runner(opts)
	return stages
}
