package threshold

import (
	"fmt"
	"testing"

	"harassrepro/internal/annotate"
	"harassrepro/internal/randx"
)

// makeScored builds a scored pool where the score distribution is
// informative: positives cluster high, negatives low, with a noisy band
// of false positives whose density decays with score.
func makeScored(n int, posRate float64, noise float64, seed uint64) []ScoredDoc {
	rng := randx.New(seed)
	docs := make([]ScoredDoc, n)
	for i := range docs {
		truth := rng.Bool(posRate)
		var score float64
		if truth {
			score = 0.6 + 0.4*rng.Float64()
		} else {
			// Most negatives score low; a slice bleeds upward.
			if rng.Bool(noise) {
				score = 0.5 + 0.45*rng.Float64()
			} else {
				score = 0.5 * rng.Float64()
			}
		}
		docs[i] = ScoredDoc{ID: fmt.Sprintf("d-%05d", i), Score: score, Truth: truth}
	}
	return docs
}

func expertPool(seed uint64) *annotate.Pool {
	return annotate.NewPool(annotate.ExpertConfig(annotate.TaskDox), randx.New(seed))
}

func TestSelectStopsAtPreciseThreshold(t *testing.T) {
	docs := makeScored(20000, 0.05, 0.02, 1)
	sel, err := Select(docs, expertPool(2), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Precision < 0.6 {
		t.Errorf("selected precision = %.3f", sel.Precision)
	}
	if sel.AboveThreshold == 0 {
		t.Error("no documents above selected threshold")
	}
	if len(sel.Trail) == 0 {
		t.Error("no evaluation trail")
	}
	// The selected threshold must be one of the ladder values.
	found := false
	for _, lt := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.935, 0.96, 0.98} {
		if sel.Threshold == lt {
			found = true
		}
	}
	if !found {
		t.Errorf("threshold %v not on ladder", sel.Threshold)
	}
}

func TestSelectRaisesOnNoisyScores(t *testing.T) {
	// Heavy false-positive bleed: precision at 0.5 is low, so the
	// procedure must climb.
	noisy := makeScored(20000, 0.02, 0.30, 4)
	selNoisy, err := Select(noisy, expertPool(5), Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	clean := makeScored(20000, 0.02, 0.005, 7)
	selClean, err := Select(clean, expertPool(8), Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if selNoisy.Threshold <= selClean.Threshold {
		t.Errorf("noisy threshold %v should exceed clean threshold %v",
			selNoisy.Threshold, selClean.Threshold)
	}
}

func TestSelectProbesDownForRecall(t *testing.T) {
	// Clean scores: precision is high everywhere above 0.5, so after
	// reaching the target the down-probe should keep the lower
	// threshold (recall priority).
	clean := makeScored(10000, 0.05, 0.002, 10)
	sel, err := Select(clean, expertPool(11), Config{Start: 0.6, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Threshold > 0.6 {
		t.Errorf("threshold = %v; clean scores should keep the low threshold", sel.Threshold)
	}
}

func TestSelectNeverReachesTarget(t *testing.T) {
	// All negatives: precision stays ~0 everywhere; Select returns the
	// best achievable rather than failing.
	rng := randx.New(13)
	docs := make([]ScoredDoc, 2000)
	for i := range docs {
		docs[i] = ScoredDoc{ID: fmt.Sprintf("n-%d", i), Score: rng.Float64(), Truth: false}
	}
	sel, err := Select(docs, expertPool(14), Config{Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Precision > 0.2 {
		t.Errorf("precision = %v on all-negative pool", sel.Precision)
	}
}

func TestSelectNoCandidates(t *testing.T) {
	docs := []ScoredDoc{{ID: "a", Score: 0.1}, {ID: "b", Score: 0.2}}
	if _, err := Select(docs, expertPool(16), Config{Seed: 17}); err != ErrNoCandidates {
		t.Errorf("err = %v, want ErrNoCandidates", err)
	}
}

func TestSelectDeterministic(t *testing.T) {
	run := func() Selection {
		docs := makeScored(5000, 0.05, 0.05, 18)
		sel, err := Select(docs, expertPool(19), Config{Seed: 20})
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	a, b := run(), run()
	if a.Threshold != b.Threshold || a.Precision != b.Precision {
		t.Fatalf("selection differs: %+v vs %+v", a, b)
	}
}

// rescoringAnnotator wraps a real expert pool but, after its first
// batch, re-scores the caller's docs slice in place — simulating a
// model hot-swap landing mid-selection, where a shared candidate pool
// gets overwritten with the next generation's scores.
type rescoringAnnotator struct {
	inner   *annotate.Pool
	victim  []ScoredDoc
	rescore func(i int, d ScoredDoc) float64
	calls   int
}

func (r *rescoringAnnotator) Annotate(items []annotate.Item) ([]annotate.Decision, annotate.Stats, error) {
	r.calls++
	if r.calls == 1 {
		for i := range r.victim {
			r.victim[i].Score = r.rescore(i, r.victim[i])
		}
	}
	return r.inner.Annotate(items)
}

func TestSelectPinnedToOneGenerationMidRescore(t *testing.T) {
	// Generation A's scores drive a pure run; then the same selection
	// runs while generation B overwrites the shared slice after the
	// first precision estimate. Selection must be identical: it only
	// ever reads generation A's scores.
	genB := func(i int, d ScoredDoc) float64 {
		// A different, adversarial generation: inverted and shifted so
		// every ladder step sees a different candidate set.
		return 1 - 0.9*d.Score
	}

	pure := makeScored(8000, 0.04, 0.20, 21)
	want, err := Select(pure, expertPool(22), Config{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}

	shared := makeScored(8000, 0.04, 0.20, 21)
	ann := &rescoringAnnotator{inner: expertPool(22), victim: shared, rescore: genB}
	got, err := Select(shared, ann, Config{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if ann.calls < 2 {
		t.Fatalf("selection made %d annotation calls; need >= 2 for the mid-selection rescore to matter", ann.calls)
	}
	if got.Threshold != want.Threshold || got.Precision != want.Precision || got.AboveThreshold != want.AboveThreshold {
		t.Fatalf("selection read rescored generation: got %+v, want %+v", got, want)
	}
	if len(got.Trail) != len(want.Trail) {
		t.Fatalf("trail length differs: %d vs %d", len(got.Trail), len(want.Trail))
	}
	for i := range got.Trail {
		if got.Trail[i] != want.Trail[i] {
			t.Fatalf("trail[%d] differs: %+v vs %+v", i, got.Trail[i], want.Trail[i])
		}
	}
	// Sanity: generation B really did overwrite the shared slice.
	if shared[0].Score == pure[0].Score {
		t.Fatal("rescore never happened; test is vacuous")
	}
}

// TestCountAbove: a threshold's above-threshold count is strictly
// above, and a threshold nothing passes has no candidates.
func TestCountAbove(t *testing.T) {
	docs := []ScoredDoc{{ID: "a", Score: 0.1}, {ID: "b", Score: 0.5, Truth: true}, {ID: "c", Score: 0.9, Truth: true}}
	for _, c := range []struct {
		t    float64
		want int
	}{{0.5, 1}, {0.05, 3}} {
		sel, err := Select(docs, expertPool(18), Config{Start: c.t, Ladder: []float64{c.t}, Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		if sel.AboveThreshold != c.want {
			t.Errorf("above %v = %d, want %d (strictly above)", c.t, sel.AboveThreshold, c.want)
		}
	}
	if _, err := Select(nil, expertPool(18), Config{Seed: 19}); err != ErrNoCandidates {
		t.Errorf("nil docs: err = %v, want ErrNoCandidates", err)
	}
}

func BenchmarkSelect(b *testing.B) {
	docs := makeScored(10000, 0.05, 0.05, 1)
	for i := 0; i < b.N; i++ {
		Select(docs, expertPool(2), Config{Seed: 3})
	}
}
