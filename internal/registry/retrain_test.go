package registry

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"harassrepro/internal/annotate"
	"harassrepro/internal/core"
	"harassrepro/internal/corpus"
	"harassrepro/internal/corpus/store"
	"harassrepro/internal/randx"
)

// tinyBase commits and loads the tinySaver detector as a retrain base.
func tinyBase(t *testing.T) *core.Detector {
	t.Helper()
	r, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Activate(mustCommit(t, r, 1)); err != nil {
		t.Fatal(err)
	}
	base, _, err := r.LoadActive()
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// inTrainingHalf restates Retrain's split: a seeded hash of the text.
func inTrainingHalf(seed uint64, text string) bool {
	return randx.New(seed).Split("retrain").Split("split").Split(text).Uint64()&1 == 0
}

func TestRetrainKeepsThresholdFeedbackOutOfTraining(t *testing.T) {
	base := tinyBase(t)
	const seed = 42
	// Each item's platform names its half, so a threshold chosen for
	// "train" would mean a training document selected it.
	var fb []Feedback
	trainHalf := 0
	for i := 0; i < 24; i++ {
		text := fmt.Sprintf("everyone mass report this channel %d now", i)
		if i%2 == 1 {
			text = fmt.Sprintf("a perfectly normal gardening thread %d", i)
		}
		plat := "held"
		if inTrainingHalf(seed, text) {
			plat = "train"
			trainHalf++
		}
		fb = append(fb, Feedback{ID: fmt.Sprint(i), Platform: plat, Text: text, Task: annotate.TaskCTH, Label: i%2 == 0})
	}
	if trainHalf == 0 || trainHalf == len(fb) {
		t.Fatalf("split put %d of %d items in the training half; pick other texts", trainHalf, len(fb))
	}

	_, res, err := Retrain(base, fb, RetrainConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feedback != len(fb) || res.Replayed != 0 {
		t.Fatalf("feedback/replayed = %d/%d, want %d/0", res.Feedback, res.Replayed, len(fb))
	}
	if res.Labelled != trainHalf+res.Replayed || res.Labelled >= res.Feedback {
		t.Fatalf("labelled = %d, want the training half (%d) of %d items, each once", res.Labelled, trainHalf, res.Feedback)
	}
	if th, ok := res.Thresholds["train"]; ok {
		t.Errorf("training-half feedback selected a threshold (%v)", th)
	}
	if _, ok := res.Thresholds["held"]; !ok {
		t.Errorf("thresholds = %v, want one selected on the threshold half", res.Thresholds)
	}
}

// replayStore builds a one-segment store of CTH-labelled documents in
// the order given: truth[i] is document i's label.
func replayStore(t *testing.T, truth []bool) (*store.Store, []corpus.Document) {
	t.Helper()
	st, err := store.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	docs := make([]corpus.Document, len(truth))
	for i, y := range truth {
		docs[i] = corpus.Document{
			ID:       fmt.Sprintf("doc-%d", i),
			Dataset:  corpus.Boards,
			Platform: corpus.PlatformBoards,
			Text:     strings.Repeat("raid the stream ", i+1) + "report",
			Truth:    corpus.GroundTruth{IsCTH: y},
		}
	}
	if _, err := st.Append(docs); err != nil {
		t.Fatal(err)
	}
	return st, docs
}

func TestRetrainReplaysStoreDocuments(t *testing.T) {
	base := tinyBase(t)
	//                  0     1      2     3      4     5      6     7      8      9
	truth := []bool{true, false, true, false, true, false, true, false, false, false}
	st, docs := replayStore(t, truth)

	// limit 5: at most 5/2 = 2 positives and 5-2 = 3 negatives, each in
	// store order, negatives first.
	cfg := RetrainConfig{Seed: 7, ReplayStore: st, ReplayLimit: 5}
	got, err := replayExamples(base, annotate.TaskCTH, randx.New(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantDocs := []int{1, 3, 5, 0, 2}
	if len(got) != len(wantDocs) {
		t.Fatalf("replayed %d examples, want %d", len(got), len(wantDocs))
	}
	rng := randx.New(1)
	for i, di := range wantDocs {
		x := base.VectorizeTask(annotate.TaskCTH, docs[di].Text, rng)
		if got[i].Y != truth[di] || !reflect.DeepEqual(got[i].X, x) {
			t.Errorf("example %d = (%v, %+v), want document %d (%v, %+v)", i, got[i].Y, got[i].X, di, truth[di], x)
		}
	}

	fb := []Feedback{
		{Platform: "boards", Text: "everyone mass report this channel now", Task: annotate.TaskCTH, Label: true},
		{Platform: "boards", Text: "a perfectly normal gardening thread", Task: annotate.TaskCTH},
		{Platform: "boards", Text: "raid her stream until she quits", Task: annotate.TaskCTH, Label: true},
		{Platform: "boards", Text: "great game last night honestly", Task: annotate.TaskCTH},
	}
	trainHalf := 0
	for _, f := range fb {
		if inTrainingHalf(cfg.Seed, f.Text) {
			trainHalf++
		}
	}
	_, res, err := Retrain(base, fb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != len(wantDocs) || res.Labelled != trainHalf+len(wantDocs) {
		t.Fatalf("replayed/labelled = %d/%d, want %d/%d", res.Replayed, res.Labelled, len(wantDocs), trainHalf+len(wantDocs))
	}
}

func TestRetrainReplayFromClosedStoreFails(t *testing.T) {
	base := tinyBase(t)
	st, _ := replayStore(t, []bool{true, false})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	fb := []Feedback{{Platform: "boards", Text: "everyone mass report this channel now", Task: annotate.TaskCTH, Label: true}}
	_, _, err := Retrain(base, fb, RetrainConfig{ReplayStore: st})
	if !errors.Is(err, store.ErrClosed) || !strings.Contains(err.Error(), "replay") {
		t.Fatalf("err = %v, want store.ErrClosed wrapped in a replay error", err)
	}
}
