package tokenize

import (
	"sort"
	"strings"
)

// Train learns a WordPiece vocabulary from the corpus using the standard
// likelihood-score merge rule: at each step the pair (a, b) maximising
// freq(ab) / (freq(a) * freq(b)) is merged, provided freq(ab) meets the
// minimum pair frequency. Words are pre-split with BasicTokenize.
//
// The trainer maintains pair frequencies incrementally: a merge only
// touches the words that actually contain the merged pair (found through
// an inverted pair→words index), instead of recounting and re-sorting
// every adjacent pair in the corpus on every iteration the way the
// textbook loop does. Pieces are interned to integer ids, and the scan
// for the best pair visits only pairs whose frequency has reached the
// minimum (trainer.cand), not every pair ever created. Selection is
// bit-equivalent to scanning all candidate pairs in lexicographic (a, b)
// order with a strict score comparison — the maximum score wins and
// exact float ties keep the lexicographically smallest pair — so the
// produced vocabulary is identical to the reference implementation's,
// merge for merge.
func Train(corpus []string, cfg TrainerConfig) *Vocab {
	cfg.fillDefaults()
	tr := newTrainer(corpus, cfg)
	// len(tr.ids) counts every piece ever created — including pieces
	// later merged down to zero frequency — matching the reference
	// loop's len(pieceFreq) stopping rule exactly.
	for len(tr.ids) < cfg.VocabSize {
		best := tr.selectBest()
		if best < 0 {
			break
		}
		if !tr.applyMerge(best) {
			// The merge applied nowhere (stale pair); with exact pair
			// bookkeeping this is unreachable, but avoid looping forever.
			break
		}
	}
	return tr.vocab()
}

// newTrainer segments every distinct corpus word into characters and
// counts their adjacent pairs.
func newTrainer(corpus []string, cfg TrainerConfig) *trainer {
	// Word frequency table over the corpus.
	wordFreq := map[string]int{}
	for _, doc := range corpus {
		for _, w := range BasicTokenize(doc) {
			if len(w) > cfg.MaxWordLength {
				w = w[:cfg.MaxWordLength]
			}
			wordFreq[w]++
		}
	}

	// Deterministic word order (ids and index layout depend on it).
	sortedWords := make([]string, 0, len(wordFreq))
	for w := range wordFreq {
		sortedWords = append(sortedWords, w)
	}
	sort.Strings(sortedWords)

	tr := &trainer{
		ids:     make(map[string]int32, cfg.VocabSize),
		words:   make([]segWord, 0, len(sortedWords)),
		pairIdx: make(map[uint64]int32, 4*len(sortedWords)),
		minPair: int64(cfg.MinPairFrequency),
	}

	// Each word starts segmented into characters, with continuation
	// markers on all but the first.
	for _, w := range sortedWords {
		f := wordFreq[w]
		runes := []rune(w)
		ids := make([]int32, len(runes))
		for i, r := range runes {
			p := string(r)
			if i > 0 {
				p = ContinuationPrefix + p
			}
			id := tr.intern(p)
			ids[i] = id
			tr.cnt[id] += int64(f)
		}
		tr.words = append(tr.words, segWord{ids: ids, freq: f})
	}
	tr.stamp = make([]int32, len(tr.words))
	for wi := range tr.words {
		w := &tr.words[wi]
		for i := 0; i+1 < len(w.ids); i++ {
			tr.addPair(w.ids[i], w.ids[i+1], w.freq, int32(wi))
		}
	}
	return tr
}

// vocab returns the pieces that still occur in the corpus.
func (t *trainer) vocab() *Vocab {
	pieces := make([]string, 0, len(t.strs))
	for id, c := range t.cnt {
		if c > 0 {
			pieces = append(pieces, t.strs[id])
		}
	}
	return NewVocab(pieces)
}

// segWord is one distinct corpus word as a sequence of piece ids.
type segWord struct {
	ids  []int32
	freq int
}

// pairRec is one adjacent piece pair and its current corpus frequency.
// Records are append-only; cand marks a record listed in trainer.cand.
type pairRec struct {
	a, b int32
	freq int64
	cand bool
}

type trainer struct {
	ids  map[string]int32 // piece string -> id
	strs []string         // id -> piece string
	cnt  []int64          // id -> current corpus frequency

	words []segWord

	pairIdx   map[uint64]int32 // packed (a, b) -> index into pairs
	pairs     []pairRec
	pairWords [][]int32 // pair index -> word indices that contributed counts

	// cand lists the pairs whose frequency has reached minPair: a pair
	// enters in addPair and leaves lazily in selectBest once it drops
	// below, so selection never scans every pair ever created.
	cand []int32

	// stamp/gen deduplicate word visits within one merge application:
	// pairWords lists may hold duplicate or stale entries.
	stamp []int32
	gen   int32

	minPair int64
}

func (t *trainer) intern(p string) int32 {
	if id, ok := t.ids[p]; ok {
		return id
	}
	id := int32(len(t.strs))
	t.ids[p] = id
	t.strs = append(t.strs, p)
	t.cnt = append(t.cnt, 0)
	return id
}

func pairKey(a, b int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func (t *trainer) addPair(a, b int32, freq int, wi int32) {
	k := pairKey(a, b)
	pi, ok := t.pairIdx[k]
	if !ok {
		pi = int32(len(t.pairs))
		t.pairIdx[k] = pi
		t.pairs = append(t.pairs, pairRec{a: a, b: b})
		t.pairWords = append(t.pairWords, nil)
	}
	p := &t.pairs[pi]
	p.freq += int64(freq)
	if p.freq >= t.minPair && !p.cand {
		p.cand = true
		t.cand = append(t.cand, pi)
	}
	t.pairWords[pi] = append(t.pairWords[pi], wi)
}

func (t *trainer) decPair(a, b int32, freq int) {
	t.pairs[t.pairIdx[pairKey(a, b)]].freq -= int64(freq)
}

// selectBest returns the index of the best-scoring eligible pair, or -1.
// Ties on the exact float score keep the lexicographically smallest
// (a, b) — the pair a sorted scan with a strict ">" would have kept.
// That rule does not depend on scan order, so candidates may be
// reordered as they are pruned.
func (t *trainer) selectBest() int32 {
	best := int32(-1)
	bestScore := -1.0
	for k := 0; k < len(t.cand); {
		i := t.cand[k]
		p := &t.pairs[i]
		if p.freq < t.minPair {
			p.cand = false
			last := len(t.cand) - 1
			t.cand[k] = t.cand[last]
			t.cand = t.cand[:last]
			continue
		}
		k++
		score := float64(p.freq) / (float64(t.cnt[p.a]) * float64(t.cnt[p.b]))
		if score > bestScore || (score == bestScore && t.lexLess(i, best)) {
			bestScore = score
			best = i
		}
	}
	return best
}

func (t *trainer) lexLess(i, j int32) bool {
	pi, pj := &t.pairs[i], &t.pairs[j]
	if t.strs[pi.a] != t.strs[pj.a] {
		return t.strs[pi.a] < t.strs[pj.a]
	}
	return t.strs[pi.b] < t.strs[pj.b]
}

// applyMerge merges the selected pair in every word that contains it,
// replicating the reference left-to-right non-overlapping replacement
// (with its re-check of the merged position) id for id. Pair counts for
// a changed word are retired wholesale and re-added from its new
// segmentation, which reproduces exactly what a full recount would see.
func (t *trainer) applyMerge(pi int32) bool {
	a, b := t.pairs[pi].a, t.pairs[pi].b
	merged := t.strs[a] + strings.TrimPrefix(t.strs[b], ContinuationPrefix)
	m := t.intern(merged)

	t.gen++
	applied := false
	for _, wi := range t.pairWords[pi] {
		if t.stamp[wi] == t.gen {
			continue
		}
		t.stamp[wi] = t.gen
		w := &t.words[wi]
		has := false
		for i := 0; i+1 < len(w.ids); i++ {
			if w.ids[i] == a && w.ids[i+1] == b {
				has = true
				break
			}
		}
		if !has {
			continue
		}
		f := w.freq
		for i := 0; i+1 < len(w.ids); i++ {
			t.decPair(w.ids[i], w.ids[i+1], f)
		}
		for i := 0; i+1 < len(w.ids); i++ {
			if w.ids[i] == a && w.ids[i+1] == b {
				t.cnt[a] -= int64(f)
				t.cnt[b] -= int64(f)
				t.cnt[m] += int64(f)
				w.ids[i] = m
				w.ids = append(w.ids[:i+1], w.ids[i+2:]...)
				i--
				applied = true
			}
		}
		for i := 0; i+1 < len(w.ids); i++ {
			t.addPair(w.ids[i], w.ids[i+1], f, wi)
		}
	}
	return applied
}
