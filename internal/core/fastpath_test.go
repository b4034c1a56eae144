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
	"harassrepro/internal/randx"
	"harassrepro/internal/resilience"
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

// goldenStreamDocs mixes short chat messages, PII-bearing text, long
// pastes (forcing the span-sampling branch), unicode and junk.
func goldenStreamDocs() []StreamDoc {
	docs := []StreamDoc{
		{ID: "chat-1", Platform: "discord", Text: "we need to mass-report his twitter and youtube, spread the word"},
		{ID: "chat-2", Platform: "telegram", Text: "anyone up for ranked tonight, patch notes are out"},
		{ID: "dox-1", Platform: "pastes", Text: "dropping her info now Address: 99 Cedar Lane, phone 555-867-5309, jane.roe@example.com"},
		{ID: "uni-1", Platform: "gab", Text: "İstanbul STRASSE ﬂuent ſtreet Kelvin K"},
		{ID: "junk-1", Platform: "boards", Text: "a\xffb\xfe invalid \xc3( bytes"},
		{ID: "long-1", Platform: "pastes", Text: strings.Repeat("target lives at 12 oak street and posts on twitter dot com every night ", 40)},
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

// TestScoreBatchWorkerCountInvariance runs the same batch at several
// worker counts and requires bit-identical scores everywhere — the
// determinism contract the pooled scratch must not break.
func TestScoreBatchWorkerCountInvariance(t *testing.T) {
	det := testDetector(t)
	docs := goldenStreamDocs()
	var baseline []resilience.Result[StreamDoc]
	for _, workers := range []int{1, 2, 8} {
		results, _, err := det.ScoreBatch(context.Background(), docs, StreamOptions{
			Workers: workers, Seed: 42, Ordered: true, Annotate: true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != len(docs) {
			t.Fatalf("workers=%d: %d results for %d docs", workers, len(results), len(docs))
		}
		if workers == 1 {
			baseline = results
			continue
		}
		for i, r := range results {
			b := baseline[i]
			if r.Item.CTH != b.Item.CTH || r.Item.Dox != b.Item.Dox {
				t.Errorf("workers=%d doc %s: scores (%v, %v) != 1-worker (%v, %v)",
					workers, r.Item.ID, r.Item.CTH, r.Item.Dox, b.Item.CTH, b.Item.Dox)
			}
		}
	}
	// And the streamed scores match the legacy composition with the
	// stream's own rng derivation.
	base := randx.New(42)
	cthBase := base.Split("score-cth")
	doxBase := base.Split("score-dox")
	for i, r := range baseline {
		cthRng := cthBase.SplitNVal("doc", i)
		doxRng := doxBase.SplitNVal("doc", i)
		wantCTH := det.cth.Score(referenceVectorize(det, docs[i].Text, det.meta.CTHTextLen, &cthRng))
		wantDox := det.dox.Score(referenceVectorize(det, docs[i].Text, det.meta.DoxTextLen, &doxRng))
		if r.Item.CTH != wantCTH || r.Item.Dox != wantDox {
			t.Errorf("doc %s: streamed (%v, %v) != legacy (%v, %v)",
				r.Item.ID, r.Item.CTH, r.Item.Dox, wantCTH, wantDox)
		}
	}
}

// TestScoreStreamSteadyStateAllocs bounds per-document allocations on
// the streaming path. The scoring itself is allocation-free; the small
// remaining budget covers the runner's per-item bookkeeping (result
// envelope, channel send) — far below the ~350 allocations per document
// the legacy path paid.
func TestScoreStreamSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	det := testDetector(t)
	text := "we need to mass-report his twitter and youtube, spread the word"
	rng := randx.New(3)
	det.scoreCTHWith(text, rng) // warm pooled scratch
	if n := testing.AllocsPerRun(200, func() {
		det.scoreCTHWith(text, rng)
	}); n > 0 {
		t.Errorf("scoreCTHWith allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		det.ScoreCTH(text)
		det.ScoreDox(text)
	}); n > 0 {
		t.Errorf("ScoreCTH+ScoreDox allocate %v per op, want 0", n)
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
