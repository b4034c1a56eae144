package core

// The run's vector memo. The filter (Figure 1, §5.3–5.5) runs active
// learning at every candidate span length, evaluates each length,
// selects thresholds on every platform, and a dozen experiments score
// the corpora again — about eight tokenize+featurize passes over every
// corpus document per run. The `vectors` stage tokenizes each distinct
// corpus text once and keeps what every later pass needs:
//
//   - a document of n ≤ maxLen tokens is featurized whole, with no rng
//     draw, so its vector is the same at every span length: vectorize
//     returns the shared vector;
//   - a longer document samples spans from the caller's rng: vectorize
//     featurizes the cached tokens, drawing exactly as the direct path.
//
// Outputs are byte-identical with and without the memo (pinned by
// TestVectorMemoMatchesDirect and the golden fixtures).

import (
	"runtime"
	"slices"
	"sync"

	"harassrepro/internal/corpus"
	"harassrepro/internal/features"
	"harassrepro/internal/randx"
	"harassrepro/internal/tokenize"
)

// vecEntry is one distinct text's tokenize-once record.
type vecEntry struct {
	// n is the text's token count.
	n int
	// vec is the owned vector of all n tokens. It is shared read-only by
	// every pool, eval set and experiment that vectorizes the text at a
	// span length ≥ n.
	vec features.Vector
	// toks holds the tokens (interned vocabulary strings) only when n
	// exceeds the shortest span length; shorter texts never need them.
	toks []string
}

// vectorMemo maps each distinct text to its entry. It is written once,
// by buildVectorMemo, and read concurrently afterwards.
type vectorMemo map[string]*vecEntry

// corpusTexts returns every distinct text of the main corpora, in data
// set then document order.
func (p *Pipeline) corpusTexts() []string {
	seen := map[string]bool{}
	var texts []string
	for _, ds := range corpus.Datasets() {
		c, ok := p.Corpora[ds]
		if !ok {
			continue
		}
		for _, d := range c.Docs {
			if !seen[d.Text] {
				seen[d.Text] = true
				texts = append(texts, d.Text)
			}
		}
	}
	return texts
}

// buildVectorMemo tokenizes and featurizes each text once, on workers
// goroutines (0 means GOMAXPROCS), each with its own Session and
// Featurizer. Token slices are kept for texts longer than keepOver
// tokens. texts must be distinct.
func buildVectorMemo(tok *tokenize.Tokenizer, h *features.Hasher, texts []string, keepOver, workers int) vectorMemo {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(texts)))
	entries := make([]vecEntry, len(texts))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, feat := tok.NewSession(), h.NewFeaturizer()
			for i := w; i < len(texts); i += workers {
				toks := sess.Tokenize(texts[i])
				e := &entries[i]
				e.n = len(toks)
				e.vec = ownedVector(feat.Vectorize(toks))
				if e.n > keepOver {
					e.toks = slices.Clone(toks)
				}
			}
		}()
	}
	wg.Wait()
	memo := make(vectorMemo, len(texts))
	for i, t := range texts {
		memo[t] = &entries[i]
	}
	return memo
}

// vectorize converts document text to the model input vector at the
// given span length: tokens are reduced with the paper's
// random-no-overlap strategy and the spans' features are pooled. A
// corpus text is read from the run's memo — its shared vector when it
// fits maxLen, else its cached tokens featurized with rng. Any other
// text (or any text of a Pipeline built without the graph) is tokenized
// here. Both routes draw from rng exactly when the text is longer than
// maxLen, so they are bit-identical (bit-identical, too, to the legacy
// tokenizer/hasher composition — see fastpath_test.go).
//
// The result may be shared with other callers: treat it as read-only.
func (p *Pipeline) vectorize(text string, maxLen int, rng *randx.Source) features.Vector {
	e := p.vectors[text]
	if e != nil && e.n <= maxLen {
		return e.vec
	}
	sc, _ := p.scorers.Get().(*scorer)
	if sc == nil {
		sc = &scorer{sess: p.Tokenizer.NewSession(), feat: p.Hasher.NewFeaturizer()}
	}
	var toks []string
	if e != nil {
		toks = e.toks
	}
	if toks == nil {
		toks = sc.sess.Tokenize(text)
	}
	out := ownedVector(sc.featurize(toks, maxLen, rng))
	p.scorers.Put(sc)
	return out
}

// ownedVector copies a vector out of featurizer scratch.
func ownedVector(v features.Vector) features.Vector {
	return features.Vector{
		Indices: append([]uint32(nil), v.Indices...),
		Values:  append([]float64(nil), v.Values...),
	}
}
