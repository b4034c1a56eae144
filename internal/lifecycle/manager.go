// Package lifecycle wires the model registry, the feedback-driven
// retrain pipeline and the serving layer's hot-swap into one control
// loop: operator feedback accumulates (POST /v1/feedback → AddFeedback),
// a retrain produces a committed candidate generation, the candidate
// shadow-scores a deterministic sample of live traffic, and promotion
// swaps the server onto it only when the divergence gates pass — with
// rollback one POST away. The Manager is both the serve.FeedbackSink
// and the /v1/admin handler harassd mounts.
//
// Admin surface (mounted under /v1/admin, prefix stripped):
//
//	GET  /models    registry state: active/previous/entries, shadow stats
//	POST /retrain   consume buffered feedback (at least MinFeedback
//	                items, else 409), commit a candidate generation,
//	                start shadow-scoring it
//	POST /promote   gate on shadow divergence (min docs, flip rate, mean
//	                delta; ?force=1 overrides), activate in the registry
//	                and hot-swap the server
//	POST /rollback  registry rollback to the previous generation and
//	                hot-swap back
//	POST /swap      {"generation":N} activate + hot-swap a specific
//	                committed generation
//	POST /shadow    {"generation":N,"rate":0.5} start shadowing a
//	                committed generation, or {"clear":true} to stop
package lifecycle

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"harassrepro/internal/annotate"
	"harassrepro/internal/core"
	"harassrepro/internal/corpus/store"
	"harassrepro/internal/registry"
	"harassrepro/internal/serve"
)

// Config configures a Manager. Zero-valued gates pick conservative
// defaults.
type Config struct {
	// Registry is the on-disk model store. Required.
	Registry *registry.Registry
	// Seed drives retrain determinism (one split per generation).
	Seed uint64
	// MinFeedback is the buffered-feedback threshold for AutoRetrain
	// and the minimum batch POST /retrain accepts. Default 8.
	MinFeedback int
	// AutoRetrain starts a retrain in the background whenever the
	// feedback buffer reaches MinFeedback.
	AutoRetrain bool
	// ShadowRate is the live-traffic fraction a committed candidate
	// shadow-scores. Default 0.25.
	ShadowRate float64
	// MinShadowDocs is the promotion gate's minimum shadow sample.
	// Default 32.
	MinShadowDocs uint64
	// MaxFlipRate is the promotion gate's maximum label-flip fraction.
	// Default 0.2.
	MaxFlipRate float64
	// MaxMeanDelta is the promotion gate's maximum mean absolute score
	// delta. Default 0.25.
	MaxMeanDelta float64
	// ReplayStorePath, when set, names a segmented corpus store whose
	// historical documents augment every retrain's training seed
	// (registry.RetrainConfig.ReplayStore). The store is opened per
	// retrain round, so segments appended between rounds are replayed.
	ReplayStorePath string
	// ReplayLimit caps the replayed examples per round (default 256).
	ReplayLimit int
	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.MinFeedback <= 0 {
		c.MinFeedback = 8
	}
	if c.ShadowRate <= 0 {
		c.ShadowRate = 0.25
	}
	if c.MinShadowDocs == 0 {
		c.MinShadowDocs = 32
	}
	if c.MaxFlipRate <= 0 {
		c.MaxFlipRate = 0.2
	}
	if c.MaxMeanDelta <= 0 {
		c.MaxMeanDelta = 0.25
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Manager is the model-lifecycle control loop. It is safe for
// concurrent use; retrains are single-flight.
type Manager struct {
	cfg Config
	reg *registry.Registry
	mux *http.ServeMux

	srv *serve.Server // bound server (nil until Bind)

	mu         sync.Mutex
	fb         []registry.Feedback
	retraining bool
	candidate  uint64 // generation currently shadow-scoring, 0 if none
	retrains   uint64
}

// New builds a Manager over an opened registry.
func New(cfg Config) (*Manager, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("lifecycle: nil registry")
	}
	cfg.fillDefaults()
	m := &Manager{cfg: cfg, reg: cfg.Registry}
	m.mux = http.NewServeMux()
	m.mux.HandleFunc("GET /models", m.handleModels)
	m.mux.HandleFunc("POST /retrain", m.handleRetrain)
	m.mux.HandleFunc("POST /promote", m.handlePromote)
	m.mux.HandleFunc("POST /rollback", m.handleRollback)
	m.mux.HandleFunc("POST /swap", m.handleSwap)
	m.mux.HandleFunc("POST /shadow", m.handleShadow)
	return m, nil
}

// Bind attaches the server the Manager swaps and shadows.
func (m *Manager) Bind(srv *serve.Server) { m.srv = srv }

// ServeHTTP is the admin surface (mount under /v1/admin with the
// prefix stripped).
func (m *Manager) ServeHTTP(w http.ResponseWriter, r *http.Request) { m.mux.ServeHTTP(w, r) }

// model wraps a committed generation as a serving handle.
func (m *Manager) model(gen uint64) (*serve.Model, error) {
	det, err := m.reg.Load(gen)
	if err != nil {
		return nil, err
	}
	var seed uint64
	if e, ok := m.reg.Entry(gen); ok {
		seed = e.Seed
	}
	return &serve.Model{Backend: det, Generation: gen, Seed: seed, Thresholds: det}, nil
}

// AddFeedback implements serve.FeedbackSink: buffer the batch and,
// with AutoRetrain, kick a background retrain once the buffer reaches
// MinFeedback. Never blocks on training. An item naming an unknown
// task rejects the whole batch.
func (m *Manager) AddFeedback(items []serve.FeedbackItem) error {
	batch := make([]registry.Feedback, len(items))
	for i, it := range items {
		task, err := annotate.ParseTask(it.Task)
		if err != nil {
			return fmt.Errorf("lifecycle: feedback item %d: %w", i, err)
		}
		batch[i] = registry.Feedback{ID: it.ID, Platform: it.Platform, Text: it.Text, Task: task, Label: it.Label}
	}
	m.mu.Lock()
	m.fb = append(m.fb, batch...)
	n := len(m.fb)
	kick := m.cfg.AutoRetrain && n >= m.cfg.MinFeedback && !m.retraining
	if kick {
		m.retraining = true
	}
	m.mu.Unlock()
	if kick {
		go func() {
			if _, _, err := m.retrain(true); err != nil {
				m.cfg.Logf("lifecycle: auto-retrain: %v", err)
			}
		}()
	}
	return nil
}

// retrain consumes the feedback buffer, commits the candidate
// generation and starts shadow-scoring it. locked=true means the
// caller already claimed the single-flight slot.
func (m *Manager) retrain(locked bool) (uint64, registry.RetrainResult, error) {
	m.mu.Lock()
	if !locked {
		if m.retraining {
			m.mu.Unlock()
			return 0, registry.RetrainResult{}, fmt.Errorf("lifecycle: retrain already running")
		}
		m.retraining = true
	}
	fb := m.fb
	m.fb = nil
	round := m.retrains
	m.retrains++
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.retraining = false
		m.mu.Unlock()
	}()

	restore := func() {
		m.mu.Lock()
		m.fb = append(fb, m.fb...)
		m.mu.Unlock()
	}
	if len(fb) < m.cfg.MinFeedback {
		restore()
		return 0, registry.RetrainResult{}, fmt.Errorf("lifecycle: %d feedback items buffered, retrain needs at least %d", len(fb), m.cfg.MinFeedback)
	}
	base, baseGen, err := m.reg.LoadActive()
	if err != nil {
		restore()
		return 0, registry.RetrainResult{}, fmt.Errorf("lifecycle: loading active model: %w", err)
	}
	rcfg := registry.RetrainConfig{Seed: m.cfg.Seed + round, ReplayLimit: m.cfg.ReplayLimit}
	if m.cfg.ReplayStorePath != "" {
		st, err := store.Open(m.cfg.ReplayStorePath)
		if err != nil {
			restore()
			return 0, registry.RetrainResult{}, fmt.Errorf("lifecycle: opening replay store: %w", err)
		}
		defer st.Close()
		rcfg.ReplayStore = st
	}
	cand, res, err := registry.Retrain(base, fb, rcfg)
	if err != nil {
		restore()
		return 0, registry.RetrainResult{}, fmt.Errorf("lifecycle: retrain: %w", err)
	}
	note := fmt.Sprintf("base gen %d, %d feedback items, task %s", baseGen, res.Feedback, res.Task)
	if res.Replayed > 0 {
		note += fmt.Sprintf(", %d replayed from store", res.Replayed)
	}
	gen, err := m.reg.Commit(registry.Entry{
		Seed:   m.cfg.Seed + round,
		Source: "retrain",
		Note:   note,
	}, cand.Save)
	if err != nil {
		restore()
		return 0, registry.RetrainResult{}, fmt.Errorf("lifecycle: committing candidate: %w", err)
	}
	m.cfg.Logf("lifecycle: committed candidate generation %d (%d feedback items, task %s)", gen, res.Feedback, res.Task)

	if m.srv != nil {
		mdl := &serve.Model{Backend: cand, Generation: gen, Seed: m.cfg.Seed + round, Thresholds: cand}
		if err := m.srv.SetShadow(mdl, m.cfg.ShadowRate); err != nil {
			return gen, res, fmt.Errorf("lifecycle: starting shadow for generation %d: %w", gen, err)
		}
		m.mu.Lock()
		m.candidate = gen
		m.mu.Unlock()
		m.cfg.Logf("lifecycle: shadow-scoring generation %d at rate %.2f", gen, m.cfg.ShadowRate)
	}
	return gen, res, nil
}

// gate checks the shadow divergence ledger against the promotion
// thresholds; a non-nil error names the failing gate.
func (m *Manager) gate(st serve.ShadowStats, ok bool) error {
	if !ok {
		return fmt.Errorf("no shadow run active")
	}
	if st.Docs < m.cfg.MinShadowDocs {
		return fmt.Errorf("shadow sample too small: %d docs < %d", st.Docs, m.cfg.MinShadowDocs)
	}
	if flipRate := float64(st.LabelFlips) / float64(st.Docs); flipRate > m.cfg.MaxFlipRate {
		return fmt.Errorf("label-flip rate %.3f > %.3f", flipRate, m.cfg.MaxFlipRate)
	}
	if st.MeanDelta > m.cfg.MaxMeanDelta {
		return fmt.Errorf("mean score delta %.4f > %.4f", st.MeanDelta, m.cfg.MaxMeanDelta)
	}
	return nil
}

// promote activates gen in the registry and hot-swaps the server onto
// it, returning the swap latency.
func (m *Manager) promote(gen uint64) (time.Duration, error) {
	mdl, err := m.model(gen)
	if err != nil {
		return 0, fmt.Errorf("lifecycle: loading generation %d: %w", gen, err)
	}
	if err := m.reg.Activate(gen); err != nil {
		return 0, fmt.Errorf("lifecycle: activating generation %d: %w", gen, err)
	}
	if m.srv == nil {
		return 0, nil
	}
	t0 := time.Now()
	if err := m.srv.SwapModel(mdl); err != nil {
		return 0, fmt.Errorf("lifecycle: swapping to generation %d: %w", gen, err)
	}
	return time.Since(t0), nil
}

// --- admin handlers ---

type modelsView struct {
	Active    uint64             `json:"active"`
	Previous  uint64             `json:"previous,omitempty"`
	Candidate uint64             `json:"candidate,omitempty"`
	Entries   []registry.Entry   `json:"entries"`
	Shadow    *serve.ShadowStats `json:"shadow,omitempty"`
	Buffered  int                `json:"feedback_buffered"`
}

func (m *Manager) handleModels(w http.ResponseWriter, _ *http.Request) {
	m.mu.Lock()
	view := modelsView{Candidate: m.candidate, Buffered: len(m.fb)}
	m.mu.Unlock()
	view.Active = m.reg.Active()
	view.Previous = m.reg.Previous()
	view.Entries = m.reg.Entries()
	if m.srv != nil {
		if st, ok := m.srv.ShadowStats(); ok {
			view.Shadow = &st
		}
	}
	writeJSON(w, http.StatusOK, view)
}

func (m *Manager) handleRetrain(w http.ResponseWriter, _ *http.Request) {
	gen, res, err := m.retrain(false)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": gen,
		"task":       res.Task,
		"feedback":   res.Feedback,
		"replayed":   res.Replayed,
		"labelled":   res.Labelled,
		"thresholds": res.Thresholds,
	})
}

func (m *Manager) handlePromote(w http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	gen := m.candidate
	m.mu.Unlock()
	if gen == 0 {
		writeErr(w, http.StatusConflict, fmt.Errorf("no candidate generation (retrain first)"))
		return
	}
	force := r.URL.Query().Get("force") == "1"
	var st serve.ShadowStats
	var ok bool
	if m.srv != nil {
		st, ok = m.srv.ShadowStats()
	}
	if !force {
		if err := m.gate(st, ok); err != nil {
			writeErr(w, http.StatusPreconditionFailed, fmt.Errorf("promotion gate: %w", err))
			return
		}
	}
	d, err := m.promote(gen)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if m.srv != nil {
		m.srv.ClearShadow()
	}
	m.mu.Lock()
	m.candidate = 0
	m.mu.Unlock()
	m.cfg.Logf("lifecycle: promoted generation %d (swap %v, shadow docs %d, flips %d)", gen, d, st.Docs, st.LabelFlips)
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": gen,
		"swap_ns":    d.Nanoseconds(),
		"forced":     force,
		"shadow":     st,
	})
}

func (m *Manager) handleRollback(w http.ResponseWriter, _ *http.Request) {
	gen, err := m.reg.Rollback()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	mdl, err := m.model(gen)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	var d time.Duration
	if m.srv != nil {
		t0 := time.Now()
		if err := m.srv.SwapModel(mdl); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		d = time.Since(t0)
	}
	m.cfg.Logf("lifecycle: rolled back to generation %d (swap %v)", gen, d)
	writeJSON(w, http.StatusOK, map[string]any{"generation": gen, "swap_ns": d.Nanoseconds()})
}

func (m *Manager) handleSwap(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Generation uint64 `json:"generation"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if _, ok := m.reg.Entry(req.Generation); !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no committed generation %d", req.Generation))
		return
	}
	d, err := m.promote(req.Generation)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	m.cfg.Logf("lifecycle: swapped to generation %d (swap %v)", req.Generation, d)
	writeJSON(w, http.StatusOK, map[string]any{"generation": req.Generation, "swap_ns": d.Nanoseconds()})
}

func (m *Manager) handleShadow(w http.ResponseWriter, r *http.Request) {
	if m.srv == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("no server bound"))
		return
	}
	var req struct {
		Generation uint64  `json:"generation"`
		Rate       float64 `json:"rate"`
		Clear      bool    `json:"clear"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Clear {
		m.srv.ClearShadow()
		m.mu.Lock()
		m.candidate = 0
		m.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"cleared": true})
		return
	}
	mdl, err := m.model(req.Generation)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	rate := req.Rate
	if rate <= 0 {
		rate = m.cfg.ShadowRate
	}
	if err := m.srv.SetShadow(mdl, rate); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	m.mu.Lock()
	m.candidate = req.Generation
	m.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"generation": req.Generation, "rate": rate})
}

// BootModel loads or trains the serving model for harassd startup: the
// registry's active generation when one exists, otherwise the detector
// produced by train is committed and activated as generation 1.
func BootModel(reg *registry.Registry, seed uint64, train func() (*core.Detector, error)) (*serve.Model, *core.Detector, error) {
	if gen := reg.Active(); gen != 0 {
		det, err := reg.Load(gen)
		if err != nil {
			return nil, nil, err
		}
		var s uint64
		if e, ok := reg.Entry(gen); ok {
			s = e.Seed
		}
		return &serve.Model{Backend: det, Generation: gen, Seed: s, Thresholds: det}, det, nil
	}
	det, err := train()
	if err != nil {
		return nil, nil, err
	}
	gen, err := reg.Commit(registry.Entry{Seed: seed, Source: "train", Note: "boot-time training"}, det.Save)
	if err != nil {
		return nil, nil, err
	}
	if err := reg.Activate(gen); err != nil {
		return nil, nil, err
	}
	return &serve.Model{Backend: det, Generation: gen, Seed: seed, Thresholds: det}, det, nil
}

func decodeBody(r *http.Request, v any) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("reading body: %w", err)
	}
	if len(body) == 0 {
		return fmt.Errorf("empty body")
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
