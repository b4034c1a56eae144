package core

// Golden equivalence tests for the pooled zero-allocation scoring path.
// referenceVectorize is a verbatim copy of the legacy Detector.vectorize
// (fresh tokenizer output, fresh merge slice, allocating
// Hasher.Vectorize); every fast-path score must match it bit for bit,
// and streamed batches must be bit-identical at every worker count.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"harassrepro/internal/features"
	"harassrepro/internal/obs"
	"harassrepro/internal/randx"
	"harassrepro/internal/testutil"
	"harassrepro/internal/tokenize"
)

// referenceVectorize is the legacy Detector.vectorize.
func referenceVectorize(d *Detector, text string, maxLen int, rng *randx.Source) features.Vector {
	toks := d.tok.Tokenize(text)
	spans := tokenize.Spans(toks, maxLen, 2, tokenize.SpanRandomNoOverlap, rng)
	if len(spans) == 1 {
		return d.hasher.Vectorize(spans[0])
	}
	var merged []string
	for _, s := range spans {
		merged = append(merged, s...)
	}
	return d.hasher.Vectorize(merged)
}

// testDetector saves the shared pipeline's models and loads them back.
func testDetector(t testing.TB) *Detector {
	t.Helper()
	p := sharedPipeline(t)
	dir := t.TempDir()
	if err := p.SaveModels(dir); err != nil {
		t.Fatal(err)
	}
	det, err := LoadDetector(dir)
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
func goldenStreamDocs() []StreamDoc {
	docs := []StreamDoc{
		{ID: "chat-1", Platform: "discord", Text: "we need to mass-report his twitter and youtube, spread the word"},
		{ID: "chat-2", Platform: "telegram", Text: "anyone up for ranked tonight, patch notes are out"},
		{ID: "dox-1", Platform: "pastes", Text: "dropping her info now Address: 99 Cedar Lane, phone 555-867-5309, jane.roe@example.com"},
		{ID: "uni-1", Platform: "gab", Text: "İstanbul STRASSE ﬂuent ſtreet Kelvin K"},
		{ID: "junk-1", Platform: "boards", Text: "a\xffb\xfe invalid \xc3( bytes"},
		{ID: "long-1", Platform: "pastes", Text: strings.Repeat("target lives at 12 oak street and posts on twitter dot com every night ", 40)},
	}
	for _, tl := range tokenLenDocs {
		docs = append(docs, StreamDoc{ID: tl.id, Platform: "boards", Text: tokenLenText(tl.tokens)})
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

// TestScoreWithMatchesLegacyComposition pins the fast scoring path to
// the legacy tokenizer/hasher composition, including the long-document
// span branch: same text, same rng state, same score bits.
func TestScoreWithMatchesLegacyComposition(t *testing.T) {
	det := testDetector(t)
	for _, doc := range goldenStreamDocs() {
		for name, maxLen := range map[string]int{"dox": det.meta.DoxTextLen, "cth": det.meta.CTHTextLen} {
			m := det.dox
			if name == "cth" {
				m = det.cth
			}
			fastRng := randx.New(7).Split(doc.ID)
			legacyRng := randx.New(7).Split(doc.ID)
			fast := det.scoreWith(m, doc.Text, maxLen, fastRng)
			legacy := m.Score(referenceVectorize(det, doc.Text, maxLen, legacyRng))
			if fast != legacy {
				t.Errorf("%s score for %s: fast %v, legacy %v", name, doc.ID, fast, legacy)
			}
		}
	}
}

// TestGoldenStreamDocTokenCounts pins the boundary documents to their
// token counts at the detector's span lengths, so each length regime of
// the fused scorer is really exercised.
func TestGoldenStreamDocTokenCounts(t *testing.T) {
	det := testDetector(t)
	if det.meta.CTHTextLen != 128 || det.meta.DoxTextLen != 512 {
		t.Fatalf("span lengths cth %d, dox %d; the boundary documents assume 128 and 512",
			det.meta.CTHTextLen, det.meta.DoxTextLen)
	}
	for _, tl := range tokenLenDocs {
		if got := len(det.tok.Tokenize(tokenLenText(tl.tokens))); got != tl.tokens {
			t.Errorf("%s: %d tokens, want %d", tl.id, got, tl.tokens)
		}
	}
}

// TestScoreBothMatchesLegacyComposition pins the fused scorer to the
// legacy per-task composition in every length regime: one tokenize for
// both classifiers, from the same per-task rng states, gives the same
// score bits as tokenizing and featurizing once per task. Scores, the
// public form, must equal ScoreCTH and ScoreDox.
func TestScoreBothMatchesLegacyComposition(t *testing.T) {
	det := testDetector(t)
	for _, doc := range goldenStreamDocs() {
		cthRng, doxRng := randx.New(7).Split(doc.ID+"/cth"), randx.New(7).Split(doc.ID+"/dox")
		wantCTH := det.cth.Score(referenceVectorize(det, doc.Text, det.meta.CTHTextLen, cthRng))
		wantDox := det.dox.Score(referenceVectorize(det, doc.Text, det.meta.DoxTextLen, doxRng))
		cth, dox := det.scoreBoth(doc.Text, randx.New(7).Split(doc.ID+"/cth"), randx.New(7).Split(doc.ID+"/dox"))
		if cth != wantCTH || dox != wantDox {
			t.Errorf("%s: scoreBoth (%v, %v), legacy (%v, %v)", doc.ID, cth, dox, wantCTH, wantDox)
		}
		cth, dox = det.Scores(doc.Text)
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
	det := testDetector(t)
	docs := goldenStreamDocs()
	base := randx.New(42)
	cthBase := base.Split("score-cth")
	doxBase := base.Split("score-dox")
	for _, instrumented := range []bool{false, true} {
		for _, workers := range []int{1, 2, 8} {
			opts := StreamOptions{Workers: workers, Seed: 42, Ordered: true, Annotate: true}
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
				wantCTH := det.cth.Score(referenceVectorize(det, docs[i].Text, det.meta.CTHTextLen, &cthRng))
				wantDox := det.dox.Score(referenceVectorize(det, docs[i].Text, det.meta.DoxTextLen, &doxRng))
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
		tokenLenText(det.meta.DoxTextLen + 100),
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
	det := testDetector(t)
	sd := StreamDoc{ID: "x", Text: "anyone up for ranked tonight, the patch notes are out and they look good"}
	ran := 0
	for _, st := range det.streamStages(StreamOptions{Annotate: true}) {
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
