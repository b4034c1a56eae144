package tokenize

// Golden equivalence for the incremental WordPiece trainer.
// referenceTrain is a verbatim copy of the textbook implementation
// (full pair recount + sort per merge); the shipped Train must produce
// an identical vocabulary on every corpus and configuration, because
// trained vocabularies feed every downstream classifier and threshold
// in the pipeline and those outputs are pinned byte-for-byte.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"harassrepro/internal/corpus"
	"harassrepro/internal/randx"
)

// referenceTrain is the legacy Train, kept verbatim.
func referenceTrain(corpus []string, cfg TrainerConfig) *Vocab {
	cfg.fillDefaults()

	wordFreq := map[string]int{}
	for _, doc := range corpus {
		for _, w := range BasicTokenize(doc) {
			if len(w) > cfg.MaxWordLength {
				w = w[:cfg.MaxWordLength]
			}
			wordFreq[w]++
		}
	}

	type segWord struct {
		pieces []string
		freq   int
	}
	words := make([]segWord, 0, len(wordFreq))
	sortedWords := make([]string, 0, len(wordFreq))
	for w := range wordFreq {
		sortedWords = append(sortedWords, w)
	}
	sort.Strings(sortedWords)

	pieceFreq := map[string]int{}
	for _, w := range sortedWords {
		runes := []rune(w)
		pieces := make([]string, len(runes))
		for i, r := range runes {
			p := string(r)
			if i > 0 {
				p = ContinuationPrefix + p
			}
			pieces[i] = p
		}
		words = append(words, segWord{pieces: pieces, freq: wordFreq[w]})
		for _, p := range pieces {
			pieceFreq[p] += wordFreq[w]
		}
	}

	for len(pieceFreq) < cfg.VocabSize {
		type pair struct{ a, b string }
		pairFreq := map[pair]int{}
		for _, w := range words {
			for i := 0; i+1 < len(w.pieces); i++ {
				pairFreq[pair{w.pieces[i], w.pieces[i+1]}] += w.freq
			}
		}
		var best pair
		bestScore := -1.0
		found := false
		keys := make([]pair, 0, len(pairFreq))
		for p := range pairFreq {
			keys = append(keys, p)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].a != keys[j].a {
				return keys[i].a < keys[j].a
			}
			return keys[i].b < keys[j].b
		})
		for _, p := range keys {
			f := pairFreq[p]
			if f < cfg.MinPairFrequency {
				continue
			}
			score := float64(f) / (float64(pieceFreq[p.a]) * float64(pieceFreq[p.b]))
			if score > bestScore {
				bestScore = score
				best = p
				found = true
			}
		}
		if !found {
			break
		}
		merged := best.a + strings.TrimPrefix(best.b, ContinuationPrefix)
		for wi := range words {
			w := &words[wi]
			for i := 0; i+1 < len(w.pieces); i++ {
				if w.pieces[i] == best.a && w.pieces[i+1] == best.b {
					pieceFreq[best.a] -= w.freq
					pieceFreq[best.b] -= w.freq
					pieceFreq[merged] += w.freq
					w.pieces[i] = merged
					w.pieces = append(w.pieces[:i+1], w.pieces[i+2:]...)
					i--
				}
			}
		}
		if _, ok := pieceFreq[merged]; !ok {
			break
		}
	}

	pieces := make([]string, 0, len(pieceFreq))
	for p, f := range pieceFreq {
		if f > 0 {
			pieces = append(pieces, p)
		}
	}
	return NewVocab(pieces)
}

// trainCorpora covers the shapes that exercise the trainer's edge
// cases: overlapping self-pairs, unicode, pathological long words,
// punctuation splitting, and a larger pseudo-natural mix.
func trainCorpora() map[string][]string {
	big := make([]string, 0, 400)
	words := []string{
		"report", "reporting", "reported", "mass", "flagging", "flag",
		"harass", "harassment", "target", "targets", "doxing", "dox",
		"twitter", "account", "accounts", "spread", "word", "tonight",
		"street", "address", "phone", "email", "the", "and", "his", "her",
	}
	for i := 0; i < 400; i++ {
		var sb strings.Builder
		for j := 0; j < 12; j++ {
			sb.WriteString(words[(i*7+j*13)%len(words)])
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "msg-%d!", i%37)
		big = append(big, sb.String())
	}
	return map[string][]string{
		"empty":      nil,
		"single":     {"aaaa aaaa aaaa"},
		"self-pairs": {"aaa aaaa aaaaa bbb abab ababab", "aaa bbb abab"},
		"unicode":    {"İstanbul naïve 東京 東京タワー cœur cœurs", "naïve cœur 東京 東京"},
		"longwords":  {strings.Repeat("ab", 80) + " " + strings.Repeat("ab", 80) + " short short"},
		"mixed":      big,
	}
}

func TestTrainMatchesReference(t *testing.T) {
	configs := []TrainerConfig{
		{},
		{VocabSize: 60},
		{VocabSize: 200, MinPairFrequency: 1},
		{VocabSize: 500, MinPairFrequency: 3, MaxWordLength: 16},
	}
	for name, corpus := range trainCorpora() {
		for _, cfg := range configs {
			got := Train(corpus, cfg)
			want := referenceTrain(corpus, cfg)
			if g, w := got.Pieces(), want.Pieces(); !equalStrings(g, w) {
				t.Errorf("%s %+v: vocab diverged\n got (%d): %v\nwant (%d): %v",
					name, cfg, len(g), g, len(w), w)
			}
		}
	}
}

// TestTrainDeterministicTieHeavy pins run-to-run stability on a corpus
// with many score ties (the regime where tie-breaking order matters).
func TestTrainDeterministicTieHeavy(t *testing.T) {
	corpus := trainCorpora()["mixed"]
	cfg := TrainerConfig{VocabSize: 300}
	first := Train(corpus, cfg).Pieces()
	for i := 0; i < 3; i++ {
		if again := Train(corpus, cfg).Pieces(); !equalStrings(first, again) {
			t.Fatalf("run %d: vocab not deterministic", i)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// selectBestScanAll is the selection Train used before the candidate
// list: a scan over every pair ever created. It is the oracle for
// selectBest.
func (t *trainer) selectBestScanAll() int32 {
	best := int32(-1)
	bestScore := -1.0
	for i := range t.pairs {
		p := &t.pairs[i]
		if p.freq < t.minPair {
			continue
		}
		score := float64(p.freq) / (float64(t.cnt[p.a]) * float64(t.cnt[p.b]))
		if score > bestScore || (score == bestScore && t.lexLess(int32(i), best)) {
			bestScore = score
			best = int32(i)
		}
	}
	return best
}

// trainScanAll is Train with selectBestScanAll in place of selectBest.
func trainScanAll(corpus []string, cfg TrainerConfig) *Vocab {
	cfg.fillDefaults()
	tr := newTrainer(corpus, cfg)
	for len(tr.ids) < cfg.VocabSize {
		best := tr.selectBestScanAll()
		if best < 0 || !tr.applyMerge(best) {
			break
		}
	}
	return tr.vocab()
}

// quickTokenizerSample rebuilds the documents the pipeline's tokenizer
// stage trains on at quick scale: core.Pipeline.trainTokenizer's draw
// over corpus.Generate at core.QuickConfig's volume and positive scales.
func quickTokenizerSample(seed uint64) []string {
	byDS := corpus.NewGenerator(corpus.Config{Seed: seed, VolumeScale: 40_000, PositiveScale: 20}).Generate()
	rng := randx.New(seed).Split("core").Split("vocab")
	var sample []string
	for _, ds := range corpus.Datasets() {
		c, ok := byDS[ds]
		if !ok {
			continue
		}
		for i := 0; i < min(800, c.Len()); i++ {
			sample = append(sample, c.Docs[rng.Intn(c.Len())].Text)
		}
	}
	return sample
}

// TestTrainMatchesScanAllOnQuickCorpora trains the pipeline's
// vocabulary (core's default VocabSize, 3000) at quick seeds 1, 7 and
// 42 with both selections. Seed 1's vocabulary must also equal the
// committed quick-seed1 model directory's, which shows the sample above
// is the one the pipeline draws.
func TestTrainMatchesScanAllOnQuickCorpora(t *testing.T) {
	saved, err := LoadVocabFile("../detector/testdata/quick-seed1/vocab.txt")
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainerConfig{VocabSize: 3000}
	for _, seed := range []uint64{1, 7, 42} {
		sample := quickTokenizerSample(seed)
		got, want := Train(sample, cfg).Pieces(), trainScanAll(sample, cfg).Pieces()
		if !equalStrings(got, want) {
			t.Errorf("seed %d: vocab diverged from the scan-all selection (%d vs %d pieces)", seed, len(got), len(want))
		}
		if seed == 1 && !equalStrings(got, saved.Pieces()) {
			t.Errorf("seed 1: vocab (%d pieces) differs from the committed quick-seed1 vocab.txt (%d)", len(got), len(saved.Pieces()))
		}
	}
}

// FuzzTrainMatchesReference trains on small fuzzed corpora (one
// document per line) with MinPairFrequency 2 or 3 and a small
// VocabSize; the candidate-list selection and the scan-all one must
// produce the same vocabulary.
func FuzzTrainMatchesReference(f *testing.F) {
	for _, docs := range trainCorpora() {
		if len(docs) <= 8 {
			f.Add(strings.Join(docs, "\n"), uint8(0), uint16(40))
		}
	}
	f.Add("aaa aaaa aaaaa bbb abab ababab\naaa bbb abab", uint8(1), uint16(12))
	f.Fuzz(func(t *testing.T, text string, minPair uint8, vocab uint16) {
		if len(text) > 4096 {
			return
		}
		docs := strings.Split(text, "\n")
		cfg := TrainerConfig{VocabSize: 20 + int(vocab%300), MinPairFrequency: 2 + int(minPair%2)}
		if got, want := Train(docs, cfg).Pieces(), trainScanAll(docs, cfg).Pieces(); !equalStrings(got, want) {
			t.Errorf("%+v: vocab diverged\n got (%d): %q\nwant (%d): %q", cfg, len(got), got, len(want), want)
		}
	})
}
