package registry

import (
	"errors"
	"fmt"
	"sort"

	"harassrepro/internal/active"
	"harassrepro/internal/annotate"
	"harassrepro/internal/core"
	"harassrepro/internal/corpus"
	"harassrepro/internal/corpus/store"
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
	// Seed drives every random decision of the round (sampling,
	// simulated annotators, span selection). Same seed + same feedback
	// = same candidate detector.
	Seed uint64
	// Bins / PerBin / Iterations shape the active-learning loop;
	// defaults are sized for live feedback batches, far smaller than
	// the paper's offline runs.
	Bins       int
	PerBin     int
	Iterations int
	// Epochs for classifier training. Defaults to the model package's
	// default.
	Epochs int
	// Progress, when set, observes active-learning iterations live.
	Progress func(active.IterationStats)
	// ReplayStore, when set, augments the feedback batch's training
	// seed with historical documents replayed from the corpus store:
	// documents carrying ground truth for the round's task, balanced
	// positive/negative and streamed at store scan speed. Replay is
	// deterministic — store order — so the same store, feedback and
	// seed still produce the same candidate.
	ReplayStore *store.Store
	// ReplayLimit caps the replayed examples. Defaults to 256.
	ReplayLimit int
}

func (c *RetrainConfig) fillDefaults() {
	if c.Bins <= 0 {
		c.Bins = 5
	}
	if c.PerBin <= 0 {
		c.PerBin = 8
	}
	if c.Iterations <= 0 {
		c.Iterations = 2
	}
}

// RetrainResult describes the candidate detector a retrain produced.
type RetrainResult struct {
	// Task is the classifier that was retrained (the dominant task in
	// the feedback batch).
	Task annotate.Task
	// Feedback is the number of feedback items consumed.
	Feedback int
	// Replayed is the number of historical store documents folded into
	// the training seed (0 without a ReplayStore).
	Replayed int
	// Labelled is the final training-set size.
	Labelled int
	// History is the active-learning iteration trail.
	History []active.IterationStats
	// Thresholds are the recalibrated per-platform thresholds folded
	// into the candidate (platforms absent from feedback keep the
	// base detector's values).
	Thresholds map[string]float64
}

// Retrain runs the paper's iterative loop over a live feedback batch:
// the feedback labels seed an active-learning round in the base
// detector's feature space (§5.3), and the resulting classifier's
// thresholds are recalibrated per platform with the §5.5 procedure
// before being folded into a candidate detector. The base detector is
// not modified; the candidate shares its vocabulary and feature space,
// so it can shadow-score the same traffic for divergence measurement
// before promotion.
func Retrain(base *core.Detector, fb []Feedback, cfg RetrainConfig) (*core.Detector, RetrainResult, error) {
	cfg.fillDefaults()
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
	batch := fb[:0:0]
	for _, f := range fb {
		if f.Task == task {
			batch = append(batch, f)
		}
	}

	rng := randx.New(cfg.Seed).Split("retrain")
	vecRng := rng.Split("vectorize")
	seed := make([]model.Example, 0, len(batch))
	pool := make([]active.Instance, 0, len(batch))
	for _, f := range batch {
		x := base.VectorizeTask(task, f.Text, vecRng)
		seed = append(seed, model.Example{X: x, Y: f.Label})
		pool = append(pool, active.Instance{ID: f.ID, X: x, Truth: f.Label})
	}

	// Historical replay vectorizes after the feedback batch on the same
	// rng stream, so a round without a ReplayStore is bit-identical to
	// the pre-replay behavior.
	replayed := 0
	if cfg.ReplayStore != nil {
		ex, err := replayExamples(base, task, vecRng, cfg)
		if err != nil {
			return nil, RetrainResult{}, fmt.Errorf("registry: retrain: replay: %w", err)
		}
		seed = append(seed, ex...)
		replayed = len(ex)
	}

	crowd := annotate.NewPool(annotate.CrowdConfig(task), rng.Split("crowd"))
	res, err := active.Run(seed, pool, crowd, active.Config{
		Bins:       cfg.Bins,
		PerBin:     cfg.PerBin,
		Iterations: cfg.Iterations,
		Model:      model.LogRegConfig{Buckets: base.Buckets(), Epochs: cfg.Epochs},
		Seed:       rng.Split("active").Uint64(),
		Progress:   cfg.Progress,
	})
	if err != nil {
		return nil, RetrainResult{}, fmt.Errorf("registry: retrain: %w", err)
	}

	// Recalibrate thresholds per platform present in the batch (§5.5);
	// platforms whose candidate set is empty keep the base thresholds.
	byPlat := map[string][]threshold.ScoredDoc{}
	for i, f := range batch {
		byPlat[f.Platform] = append(byPlat[f.Platform], threshold.ScoredDoc{
			ID:    f.ID,
			Score: res.Model.Score(pool[i].X),
			Truth: f.Label,
		})
	}
	plats := make([]string, 0, len(byPlat))
	for p := range byPlat {
		plats = append(plats, p)
	}
	sort.Strings(plats)
	thresholds := map[string]float64{}
	for _, p := range plats {
		experts := annotate.NewPool(annotate.ExpertConfig(task), rng.Split("experts-"+p))
		sel, err := threshold.Select(byPlat[p], experts, threshold.Config{
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

	cand, err := base.Retrained(task, res.Model, thresholds)
	if err != nil {
		return nil, RetrainResult{}, err
	}
	return cand, RetrainResult{
		Task:       task,
		Feedback:   len(batch),
		Replayed:   replayed,
		Labelled:   len(res.Labelled),
		History:    res.History,
		Thresholds: thresholds,
	}, nil
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
func replayExamples(base *core.Detector, task annotate.Task, vecRng *randx.Source, cfg RetrainConfig) ([]model.Example, error) {
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
