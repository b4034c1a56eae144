package lifecycle

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"harassrepro/internal/detector"
	"harassrepro/internal/features"
	"harassrepro/internal/model"
	"harassrepro/internal/registry"
	"harassrepro/internal/serve"
	"harassrepro/internal/tokenize"
)

// tinySave writes a complete, LoadDetector-loadable model directory
// without training a pipeline (mirrors the registry package's test
// fixture): a micro vocabulary plus two 16-bucket classifiers.
func tinySave(t testing.TB, seed uint64) func(dir string) error {
	t.Helper()
	vocab := tokenize.Train([]string{
		"mass report this channel now",
		"dropping her home address tonight",
		"everyone raid the stream",
		"post his dox in the thread",
	}, tokenize.TrainerConfig{VocabSize: 64})
	examples := make([]model.Example, 0, 8)
	for i := 0; i < 8; i++ {
		examples = append(examples, model.Example{
			X: features.Vector{Indices: []uint32{uint32(i % 16), uint32((i + 3) % 16)}, Values: []float64{1, 1}},
			Y: (uint64(i)+seed)%3 == 0,
		})
	}
	dox, err := model.TrainLogReg(examples, model.LogRegConfig{Buckets: 16, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cth, err := model.TrainLogReg(examples, model.LogRegConfig{Buckets: 16, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return func(dir string) error {
		if err := vocab.SaveFile(filepath.Join(dir, "vocab.txt")); err != nil {
			return err
		}
		if err := dox.SaveFile(filepath.Join(dir, "dox.model")); err != nil {
			return err
		}
		if err := cth.SaveFile(filepath.Join(dir, "cth.model")); err != nil {
			return err
		}
		meta := `{"version":1,"buckets":16,"dox_text_len":512,"cth_text_len":128,
"dox_thresholds":{"boards":0.9},"cth_thresholds":{"boards":0.8}}`
		return os.WriteFile(filepath.Join(dir, "meta.json"), []byte(meta), 0o644)
	}
}

// bootRegistry creates a registry with one committed, activated
// generation.
func bootRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	reg, err := registry.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := reg.Commit(registry.Entry{Seed: 1, Source: "train"}, tinySave(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Activate(gen); err != nil {
		t.Fatal(err)
	}
	return reg
}

// adminPost posts a JSON body to the manager's admin mux directly.
func adminPost(t *testing.T, m *Manager, path, body string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// feedbackBuffered reads the feedback_buffered count GET /models reports.
func feedbackBuffered(t *testing.T, m *Manager) int {
	t.Helper()
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/models", nil))
	var view modelsView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	return view.Buffered
}

func TestBootModelTrainsOnceThenLoads(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	trained := 0
	train := func() (*detector.Detector, error) {
		trained++
		// Materialise a tiny model via a scratch dir and load it back:
		// the boot path only needs a Save-able detector.
		scratch := filepath.Join(dir, "scratch")
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			return nil, err
		}
		if err := tinySave(t, 5)(scratch); err != nil {
			return nil, err
		}
		return detector.Load(scratch)
	}

	mdl, _, err := BootModel(reg, 5, train)
	if err != nil {
		t.Fatal(err)
	}
	if trained != 1 || mdl.Generation != 1 || reg.Active() != 1 {
		t.Fatalf("first boot: trained=%d gen=%d active=%d", trained, mdl.Generation, reg.Active())
	}

	// Reopen: the committed generation is served without retraining.
	reg2, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mdl2, _, err := BootModel(reg2, 5, train)
	if err != nil {
		t.Fatal(err)
	}
	if trained != 1 || mdl2.Generation != 1 {
		t.Fatalf("second boot: trained=%d gen=%d, want load not train", trained, mdl2.Generation)
	}
	if mdl2.Thresholds == nil || mdl2.Thresholds.CTHThreshold("boards") != 0.8 {
		t.Errorf("boot model thresholds not wired: %+v", mdl2.Thresholds)
	}
}

func TestLifecycleRetrainPromoteRollback(t *testing.T) {
	reg := bootRegistry(t)
	mgr, err := New(Config{
		Registry:      reg,
		Seed:          9,
		ShadowRate:    1.0,
		MinShadowDocs: 4,
		MaxFlipRate:   1.0, // divergence gates wide open: this test
		MaxMeanDelta:  1.0, // exercises the mechanics, not the tuning
	})
	if err != nil {
		t.Fatal(err)
	}
	mdl, _, err := BootModel(reg, 9, nil) // active exists: train unused
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{
		Model:    mdl,
		Feedback: mgr,
		Admin:    mgr,
	})
	mgr.Bind(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()

	// No candidate yet: promote refuses, retrain refuses without
	// feedback.
	if code, body := adminPost(t, mgr, "/promote", ""); code != http.StatusConflict {
		t.Fatalf("promote without candidate = %d %s", code, body)
	}
	if code, body := adminPost(t, mgr, "/retrain", ""); code != http.StatusConflict {
		t.Fatalf("retrain without feedback = %d %s", code, body)
	}

	// Feed 24 CTH labels through the public endpoint.
	var fb []serve.FeedbackItem
	texts := []string{
		"everyone mass report this account now",
		"dropping the mods home address tonight",
		"raid her stream until she quits",
		"just sharing a recipe for banana bread",
		"great game last night honestly",
		"post his work address in the thread",
	}
	for i := 0; i < 24; i++ {
		fb = append(fb, serve.FeedbackItem{
			ID:       fmt.Sprintf("fb-%d", i),
			Platform: "boards",
			Text:     fmt.Sprintf("%s (case %d)", texts[i%len(texts)], i),
			Task:     "cth",
			Label:    i%len(texts) < 3,
		})
	}
	payload, _ := json.Marshal(fb)
	resp, err := ts.Client().Post(ts.URL+"/v1/feedback", "application/json", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("feedback = %d", resp.StatusCode)
	}
	if got := feedbackBuffered(t, mgr); got != 24 {
		t.Fatalf("buffered = %d, want 24", got)
	}

	// Retrain: commits generation 2 and starts shadowing it.
	code, body := adminPost(t, mgr, "/retrain", "")
	if code != http.StatusOK {
		t.Fatalf("retrain = %d %s", code, body)
	}
	var rr struct {
		Generation uint64 `json:"generation"`
		Feedback   int    `json:"feedback"`
	}
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Generation != 2 || rr.Feedback != 24 {
		t.Fatalf("retrain result = %+v", rr)
	}
	if reg.Active() != 1 {
		t.Fatalf("retrain must not activate: active = %d", reg.Active())
	}
	if feedbackBuffered(t, mgr) != 0 {
		t.Errorf("feedback buffer not drained: %d", feedbackBuffered(t, mgr))
	}

	// Premature promote: shadow sample too small.
	if code, body := adminPost(t, mgr, "/promote", ""); code != http.StatusPreconditionFailed {
		t.Fatalf("ungated promote = %d %s, want 412", code, body)
	}

	// Drive traffic until the candidate has shadow-scored the minimum.
	deadline := time.Now().Add(10 * time.Second)
	for {
		for i := 0; i < 8; i++ {
			r, err := ts.Client().Post(ts.URL+"/v1/score", "application/json",
				strings.NewReader(fmt.Sprintf(`{"platform":"boards","text":"shadow driver %d"}`, i)))
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
		}
		if st, ok := srv.ShadowStats(); ok && st.Docs >= 4 {
			break
		}
		if time.Now().After(deadline) {
			st, ok := srv.ShadowStats()
			t.Fatalf("shadow never reached 4 docs: %+v ok=%v", st, ok)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// GET /models reflects candidate + shadow.
	req := httptest.NewRequest(http.MethodGet, "/models", nil)
	rec := httptest.NewRecorder()
	mgr.ServeHTTP(rec, req)
	var view modelsView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Active != 1 || view.Candidate != 2 || len(view.Entries) != 2 || view.Shadow == nil {
		t.Fatalf("models view = %+v", view)
	}

	// Promote: gates pass (wide open), registry activates, server swaps.
	code, body = adminPost(t, mgr, "/promote", "")
	if code != http.StatusOK {
		t.Fatalf("promote = %d %s", code, body)
	}
	if reg.Active() != 2 || reg.Previous() != 1 {
		t.Fatalf("registry after promote: active %d previous %d", reg.Active(), reg.Previous())
	}
	if got := srv.ActiveModel().Generation; got != 2 {
		t.Fatalf("serving generation = %d, want 2", got)
	}
	if _, ok := srv.ShadowStats(); ok {
		t.Error("shadow still running after promote")
	}

	// Rollback: registry and server return to generation 1.
	code, body = adminPost(t, mgr, "/rollback", "")
	if code != http.StatusOK {
		t.Fatalf("rollback = %d %s", code, body)
	}
	if reg.Active() != 1 {
		t.Fatalf("active after rollback = %d", reg.Active())
	}
	if got := srv.ActiveModel().Generation; got != 1 {
		t.Fatalf("serving generation after rollback = %d, want 1", got)
	}

	// Manual swap back onto generation 2.
	code, body = adminPost(t, mgr, "/swap", `{"generation":2}`)
	if code != http.StatusOK {
		t.Fatalf("swap = %d %s", code, body)
	}
	if srv.ActiveModel().Generation != 2 || reg.Active() != 2 {
		t.Fatalf("after swap: serving %d registry %d", srv.ActiveModel().Generation, reg.Active())
	}
	if code, _ := adminPost(t, mgr, "/swap", `{"generation":99}`); code != http.StatusNotFound {
		t.Errorf("swap to unknown generation = %d, want 404", code)
	}

	// Shadow control: start and clear by hand.
	code, body = adminPost(t, mgr, "/shadow", `{"generation":1,"rate":0.5}`)
	if code != http.StatusOK {
		t.Fatalf("shadow start = %d %s", code, body)
	}
	if st, ok := srv.ShadowStats(); !ok || st.Generation != 1 {
		t.Fatalf("shadow stats = %+v ok=%v", st, ok)
	}
	if code, _ := adminPost(t, mgr, "/shadow", `{"clear":true}`); code != http.StatusOK {
		t.Fatal("shadow clear failed")
	}
	if _, ok := srv.ShadowStats(); ok {
		t.Error("shadow survives clear")
	}
}

func TestRetrainRefusesBatchBelowMinFeedback(t *testing.T) {
	reg := bootRegistry(t)
	mgr, err := New(Config{Registry: reg, Seed: 5, MinFeedback: 4})
	if err != nil {
		t.Fatal(err)
	}
	fb := make([]serve.FeedbackItem, 3)
	for i := range fb {
		fb[i] = serve.FeedbackItem{Platform: "boards", Text: fmt.Sprintf("mass report wave %d", i), Task: "cth", Label: i == 0}
	}
	if err := mgr.AddFeedback(fb); err != nil {
		t.Fatal(err)
	}
	code, body := adminPost(t, mgr, "/retrain", "")
	if code != http.StatusConflict || !strings.Contains(body, "3 feedback items") || !strings.Contains(body, "at least 4") {
		t.Fatalf("retrain of 3 items with MinFeedback 4 = %d %s, want 409 naming both counts", code, body)
	}
	if got := feedbackBuffered(t, mgr); got != 3 {
		t.Fatalf("buffered = %d after refused retrain, want 3 kept", got)
	}
	if n := len(reg.Entries()); n != 1 {
		t.Fatalf("refused retrain committed: %d entries", n)
	}

	if err := mgr.AddFeedback([]serve.FeedbackItem{{Text: "ok", Task: "dox"}, {Text: "bad", Task: "Dox"}}); err == nil || !strings.Contains(err.Error(), "item 1") {
		t.Fatalf("AddFeedback with an unknown task = %v, want an error naming item 1", err)
	}
	if got := feedbackBuffered(t, mgr); got != 3 {
		t.Fatalf("buffered = %d after a rejected batch, want 3", got)
	}
	if err := mgr.AddFeedback(fb[:1]); err != nil {
		t.Fatal(err)
	}
	if code, body := adminPost(t, mgr, "/retrain", ""); code != http.StatusOK {
		t.Fatalf("retrain at MinFeedback = %d %s", code, body)
	}
}

func TestAutoRetrainTriggersInBackground(t *testing.T) {
	reg := bootRegistry(t)
	mgr, err := New(Config{Registry: reg, Seed: 3, AutoRetrain: true, MinFeedback: 12})
	if err != nil {
		t.Fatal(err)
	}
	// No server bound: the retrain still commits a candidate.
	var fb []serve.FeedbackItem
	for i := 0; i < 12; i++ {
		fb = append(fb, serve.FeedbackItem{
			Platform: "boards",
			Text:     fmt.Sprintf("mass report wave %d participants", i),
			Task:     "cth",
			Label:    i%4 == 0,
		})
	}
	if err := mgr.AddFeedback(fb); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for len(reg.Entries()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("auto-retrain never committed: entries %+v", reg.Entries())
		}
		time.Sleep(20 * time.Millisecond)
	}
	e, ok := reg.Entry(2)
	if !ok || e.Source != "retrain" {
		t.Fatalf("entry 2 = %+v ok=%v", e, ok)
	}
	if reg.Active() != 1 {
		t.Errorf("auto-retrain must not activate: active = %d", reg.Active())
	}
}
