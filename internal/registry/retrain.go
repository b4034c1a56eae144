package registry

import (
	"errors"
	"fmt"
	"sort"

	"harassrepro/internal/annotate"
	"harassrepro/internal/corpus"
	"harassrepro/internal/corpus/store"
	"harassrepro/internal/detector"
	"harassrepro/internal/features"
	"harassrepro/internal/model"
	"harassrepro/internal/randx"
	"harassrepro/internal/threshold"
)

// Feedback is one operator-labelled live document, the raw material of
// a retrain round (the serve layer's POST /v1/feedback items).
type Feedback struct {
	ID       string
	Platform string
	Text     string
	Task     annotate.Task
	// Label is the operator's ground-truth call on the document.
	Label bool
}

// RetrainConfig controls one feedback-driven retrain round.
type RetrainConfig struct {
	// Seed drives every random decision of the round: the
	// train/threshold split, span selection, example order and
	// threshold sampling. Same seed + same feedback = same candidate
	// detector.
	Seed uint64
	// ReplayStore, when set, augments the feedback batch's training
	// half with historical documents replayed from the corpus store:
	// documents carrying ground truth for the round's task, balanced
	// positive/negative and streamed at store scan speed. Replay is
	// deterministic — store order — so the same store, feedback and
	// seed still produce the same candidate.
	ReplayStore *store.Store
	// ReplayLimit caps the replayed examples. Defaults to 256.
	ReplayLimit int
}

// RetrainResult describes the candidate detector a retrain produced.
type RetrainResult struct {
	// Task is the classifier that was retrained (the dominant task in
	// the feedback batch).
	Task annotate.Task
	// Feedback is the number of feedback items consumed.
	Feedback int
	// Replayed is the number of historical store documents folded into
	// the training set (0 without a ReplayStore).
	Replayed int
	// Labelled is the training-set size: the feedback batch's training
	// half plus Replayed.
	Labelled int
	// Thresholds are the recalibrated per-platform thresholds folded
	// into the candidate (platforms absent from the threshold half keep
	// the base detector's values).
	Thresholds map[string]float64
}

// Retrain trains a candidate detector on a live feedback batch. Every
// feedback item already carries the operator's label, so there is
// nothing to annotate: a seeded hash of each text puts it in a training
// half or a threshold half (copies of one text land in the same half).
// One classifier is trained in the base detector's feature space on the
// training half plus any replayed store documents, and the §5.5
// threshold search then runs per platform on the threshold half, with
// the operator's labels as its precision estimate — no text both trains
// the model and selects its threshold. The base detector is not
// modified; the candidate shares its vocabulary and feature space, so
// it can shadow-score the same traffic for divergence measurement
// before promotion.
func Retrain(base *detector.Detector, fb []Feedback, cfg RetrainConfig) (*detector.Detector, RetrainResult, error) {
	if base == nil {
		return nil, RetrainResult{}, fmt.Errorf("registry: retrain: nil base detector")
	}
	if len(fb) == 0 {
		return nil, RetrainResult{}, fmt.Errorf("registry: retrain: no feedback")
	}

	// The batch's dominant task picks which classifier retrains; ties
	// go to dox (the paper's primary task).
	counts := map[annotate.Task]int{}
	for _, f := range fb {
		counts[f.Task]++
	}
	task := annotate.TaskDox
	if counts[annotate.TaskCTH] > counts[annotate.TaskDox] {
		task = annotate.TaskCTH
	}

	rng := randx.New(cfg.Seed).Split("retrain")
	split := rng.Split("split")
	vecRng := rng.Split("vectorize")
	type heldOut struct {
		f Feedback
		x features.Vector
	}
	var train []model.Example
	var held []heldOut
	for _, f := range fb {
		if f.Task != task {
			continue
		}
		x := base.VectorizeTask(task, f.Text, vecRng)
		if split.Split(f.Text).Uint64()&1 == 0 {
			train = append(train, model.Example{X: x, Y: f.Label})
		} else {
			held = append(held, heldOut{f: f, x: x})
		}
	}

	replayed := 0
	if cfg.ReplayStore != nil {
		ex, err := replayExamples(base, task, vecRng, cfg)
		if err != nil {
			return nil, RetrainResult{}, fmt.Errorf("registry: retrain: replay: %w", err)
		}
		train = append(train, ex...)
		replayed = len(ex)
	}

	m, err := model.TrainLogReg(train, model.LogRegConfig{Buckets: base.Buckets(), Seed: rng.Split("train").Uint64()})
	if err != nil {
		return nil, RetrainResult{}, fmt.Errorf("registry: retrain: training half of %d feedback items: %w", counts[task], err)
	}

	// Recalibrate thresholds per platform present in the threshold
	// half (§5.5); platforms whose candidate set is empty keep the base
	// thresholds.
	byPlat := map[string][]threshold.ScoredDoc{}
	for _, h := range held {
		byPlat[h.f.Platform] = append(byPlat[h.f.Platform], threshold.ScoredDoc{
			ID:    h.f.ID,
			Score: m.Score(h.x),
			Truth: h.f.Label,
		})
	}
	plats := make([]string, 0, len(byPlat))
	for p := range byPlat {
		plats = append(plats, p)
	}
	sort.Strings(plats)
	thresholds := map[string]float64{}
	for _, p := range plats {
		sel, err := threshold.Select(byPlat[p], operatorLabels{}, threshold.Config{
			SampleSize: 64,
			Seed:       rng.Split("threshold-" + p).Uint64(),
		})
		if err == threshold.ErrNoCandidates {
			continue // keep the base threshold for this platform
		}
		if err != nil {
			return nil, RetrainResult{}, fmt.Errorf("registry: retrain: threshold %s: %w", p, err)
		}
		thresholds[p] = sel.Threshold
	}

	cand, err := base.Retrained(task, m, thresholds)
	if err != nil {
		return nil, RetrainResult{}, err
	}
	return cand, RetrainResult{
		Task:       task,
		Feedback:   counts[task],
		Replayed:   replayed,
		Labelled:   len(train),
		Thresholds: thresholds,
	}, nil
}

// operatorLabels is the threshold search's annotator for feedback:
// each item's Truth is already the operator's label, so it is the
// decision.
type operatorLabels struct{}

func (operatorLabels) Annotate(items []annotate.Item) ([]annotate.Decision, annotate.Stats, error) {
	out := make([]annotate.Decision, len(items))
	for i, it := range items {
		out[i] = annotate.Decision{ID: it.ID, Label: it.Truth}
	}
	return out, annotate.Stats{Items: len(items)}, nil
}

// errReplayDone stops the replay scan early once both label caps are
// full — no reason to decode the rest of the store.
var errReplayDone = errors.New("registry: replay complete")

// replayExamples streams historical documents out of the corpus store
// and turns the ones carrying ground truth for task into labelled
// training examples: at most limit/2 positives, negatives filling the
// remainder, both taken in store order (Scan delivers store order, so
// replay is deterministic). The selected
// documents are vectorized after the scan, negatives first, in one
// fixed order on the shared rng stream.
func replayExamples(base *detector.Detector, task annotate.Task, vecRng *randx.Source, cfg RetrainConfig) ([]model.Example, error) {
	limit := cfg.ReplayLimit
	if limit <= 0 {
		limit = 256
	}
	maxPos := limit / 2
	maxNeg := limit - maxPos
	type labelled struct {
		text string
		y    bool
	}
	var pos, neg []labelled
	err := cfg.ReplayStore.Scan(func(d *corpus.Document, _ store.DocRef) error {
		y := d.Truth.IsDox
		if task == annotate.TaskCTH {
			y = d.Truth.IsCTH
		}
		switch {
		case y && len(pos) < maxPos:
			pos = append(pos, labelled{text: d.Text, y: true})
		case !y && len(neg) < maxNeg:
			neg = append(neg, labelled{text: d.Text, y: false})
		}
		if len(pos) >= maxPos && len(neg) >= maxNeg {
			return errReplayDone
		}
		return nil
	})
	if err != nil && !errors.Is(err, errReplayDone) {
		return nil, err
	}
	picked := append(neg, pos...)
	examples := make([]model.Example, 0, len(picked))
	for _, l := range picked {
		examples = append(examples, model.Example{X: base.VectorizeTask(task, l.text, vecRng), Y: l.y})
	}
	return examples, nil
}
