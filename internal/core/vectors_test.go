package core

import (
	"context"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"harassrepro/internal/annotate"
	"harassrepro/internal/features"
	"harassrepro/internal/randx"
)

// TestVectorMemoMatchesDirect pins the vectors stage to the direct
// tokenize+featurize path it replaces. Over every corpus text of a
// quick seed-1 run, the span-boundary documents (128/129/512/513
// tokens, and longer) and a text no corpus holds, memoized vectorize
// must return the same vector bits at both span lengths and leave twin
// rng streams in the same state. And since pools, eval sets and
// experiments share the memo's vectors, none of them may write one: the
// memo's checksum right after the stage must equal its checksum after
// the run and all experiments. Under -race this also covers the two
// tasks and the parallel experiments reading the memo concurrently.
func TestVectorMemoMatchesDirect(t *testing.T) {
	p, err := newPipeline(QuickConfig(1), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Graph().Get(StageVectors); err != nil {
		t.Fatal(err)
	}
	atStage := memoChecksum(p.vectors)
	if err := p.materialize(); err != nil {
		t.Fatal(err)
	}
	results, err := p.RunExperiments(context.Background(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
	}
	if got := memoChecksum(p.vectors); got != atStage {
		t.Fatalf("memo checksum %x after run and experiments, %x after the stage: a consumer wrote a shared vector", got, atStage)
	}

	cthLen, doxLen := p.Config.CTHTextLen, p.Config.DoxTextLen
	if cthLen != 128 || doxLen != 512 {
		t.Fatalf("span lengths cth %d, dox %d; the boundary documents assume 128 and 512", cthLen, doxLen)
	}
	corpusTexts := p.corpusTexts()
	if len(p.vectors) != len(corpusTexts) {
		t.Fatalf("memo holds %d texts, corpora %d distinct", len(p.vectors), len(corpusTexts))
	}
	kept := 0
	for _, e := range p.vectors {
		if (e.toks != nil) != (e.n > cthLen) {
			t.Fatalf("entry of %d tokens keeps tokens: %v", e.n, e.toks != nil)
		}
		if e.toks != nil {
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("no corpus text is longer than the CTH span: the cached-token path is untested")
	}

	// The boundary documents are not corpus texts; a second memo holds
	// them so they take the memo's paths too.
	var boundaryTexts []string
	for _, d := range goldenStreamDocs() {
		boundaryTexts = append(boundaryTexts, d.Text)
	}
	boundary := &Pipeline{Tokenizer: p.Tokenizer, Hasher: p.Hasher}
	boundary.vectors = buildVectorMemo(p.Tokenizer, p.Hasher, boundaryTexts, cthLen, 2)
	for _, tl := range tokenLenDocs {
		if e := boundary.vectors[tokenLenText(tl.tokens)]; e.n != tl.tokens {
			t.Fatalf("%s: %d tokens, want %d", tl.id, e.n, tl.tokens)
		}
	}

	direct := &Pipeline{Tokenizer: p.Tokenizer, Hasher: p.Hasher, Dox: p.Dox, CTH: p.CTH, rng: p.rng}
	for _, c := range []struct {
		name  string
		memo  *Pipeline
		texts []string
	}{{"corpus", p, corpusTexts}, {"boundary", boundary, boundaryTexts}} {
		for _, maxLen := range []int{cthLen, doxLen} {
			memoRng, directRng := randx.New(9).Split("twin"), randx.New(9).Split("twin")
			for _, text := range c.texts {
				got := c.memo.vectorize(text, maxLen, memoRng)
				want := direct.vectorize(text, maxLen, directRng)
				if !sameVector(got, want) {
					t.Fatalf("%s text at span %d (%q...): memoized vector differs from direct", c.name, maxLen, text[:min(len(text), 40)])
				}
			}
			if memoRng.Uint64() != directRng.Uint64() {
				t.Fatalf("%s texts at span %d: memoized path drew a different number of rng values", c.name, maxLen)
			}
		}
	}

	// ScoreText: a corpus text longer than both spans hits the cached
	// tokens; the boundary texts are not in the run's memo at all.
	longest := slices.MaxFunc(corpusTexts, func(a, b string) int { return p.vectors[a].n - p.vectors[b].n })
	for _, text := range append([]string{longest}, boundaryTexts...) {
		for _, task := range []annotate.Task{annotate.TaskDox, annotate.TaskCTH} {
			if got, want := p.ScoreText(task, text), direct.ScoreText(task, text); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("ScoreText(%s) = %v with memo, %v direct", task, got, want)
			}
		}
	}
}

// memoChecksum hashes every entry's token count, vector bits and kept
// tokens in text order.
func memoChecksum(m vectorMemo) uint64 {
	texts := make([]string, 0, len(m))
	for text := range m {
		texts = append(texts, text)
	}
	slices.Sort(texts)
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, text := range texts {
		e := m[text]
		h.Write([]byte(text))
		put(uint64(e.n))
		for i, idx := range e.vec.Indices {
			put(uint64(idx))
			put(math.Float64bits(e.vec.Values[i]))
		}
		for _, tok := range e.toks {
			h.Write([]byte(tok))
			put(0)
		}
	}
	return h.Sum64()
}

// sameVector reports bit-identical vectors.
func sameVector(a, b features.Vector) bool {
	return slices.Equal(a.Indices, b.Indices) &&
		slices.EqualFunc(a.Values, b.Values, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
