package serve

// Shadow scoring: a candidate model scores a deterministic sample of
// live traffic beside the active model, without touching the serving
// path. Request handlers offer successfully scored documents to a
// bounded queue; one worker goroutine re-scores them with the
// candidate's own runner and accounts the divergence — score deltas and
// label flips — that the promotion gates read. Sampling is a hash of
// the document text, so the same traffic always shadows the same
// documents regardless of timing, and overflow is dropped (and
// counted), never blocking a request.

import (
	"context"
	"fmt"
	"sync"

	"harassrepro/internal/core"
	"harassrepro/internal/resilience"
)

// shadowQueueDepth bounds documents sampled but not yet re-scored by
// the candidate; overflow increments serve_shadow_dropped_total.
const shadowQueueDepth = 256

// ShadowStats is the divergence ledger a shadow run has accumulated,
// read by the promotion gates.
type ShadowStats struct {
	// Generation is the candidate model's generation.
	Generation uint64 `json:"generation"`
	// Docs is how many documents the candidate has re-scored.
	Docs uint64 `json:"docs"`
	// Dropped is how many sampled documents overflowed the queue.
	Dropped uint64 `json:"dropped"`
	// LabelFlips is how many re-scored documents changed decision on
	// either task (active vs candidate, each under its own thresholds).
	LabelFlips uint64 `json:"label_flips"`
	// MeanDelta and MaxDelta summarise the per-document divergence
	// (the larger of the CTH and dox absolute score deltas).
	MeanDelta float64 `json:"mean_delta"`
	MaxDelta  float64 `json:"max_delta"`
}

// shadowDoc is one document as the active model scored it, with the
// model that did (its thresholds decide the active label).
type shadowDoc struct {
	item   core.StreamDoc
	active *Model
}

// shadowState is one running shadow comparison.
type shadowState struct {
	srv      *Server
	model    *Model
	runner   *resilience.Runner[core.StreamDoc]
	permille uint64 // sample when hash(text) % 1000 < permille
	ch       chan shadowDoc
	cancel   context.CancelFunc
	done     chan struct{}

	mu       sync.Mutex
	stats    ShadowStats
	sumDelta float64
}

// SetShadow starts shadow-scoring a deterministic sample of live
// traffic on the candidate model m, replacing any previous shadow run.
// rate is the sampled fraction of successfully scored documents,
// clamped to [0,1].
func (s *Server) SetShadow(m *Model, rate float64) error {
	if m == nil || m.Backend == nil {
		return fmt.Errorf("serve: shadow: nil model")
	}
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	ctx, cancel := context.WithCancel(s.rootCtx)
	st := &shadowState{
		srv:      s,
		model:    m,
		runner:   m.Backend.Runner(core.StreamOptions{Seed: m.Seed}),
		permille: uint64(rate * 1000),
		ch:       make(chan shadowDoc, shadowQueueDepth),
		cancel:   cancel,
		done:     make(chan struct{}),
		stats:    ShadowStats{Generation: m.Generation},
	}
	go st.run(ctx)
	if old := s.shadow.Swap(st); old != nil {
		old.stop()
	}
	return nil
}

// ClearShadow stops any running shadow comparison.
func (s *Server) ClearShadow() {
	if old := s.shadow.Swap(nil); old != nil {
		old.stop()
	}
}

// ShadowStats snapshots the running shadow comparison; ok=false means
// no shadow is active.
func (s *Server) ShadowStats() (ShadowStats, bool) {
	st := s.shadow.Load()
	if st == nil {
		return ShadowStats{}, false
	}
	return st.snapshot(), true
}

func (st *shadowState) stop() {
	st.cancel()
	<-st.done
}

func (st *shadowState) snapshot() ShadowStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := st.stats
	if out.Docs > 0 {
		out.MeanDelta = st.sumDelta / float64(out.Docs)
	}
	return out
}

// offer samples one document the active model scored into the shadow
// queue. Called on request goroutines; never blocks — a full queue
// drops the document and counts it.
func (st *shadowState) offer(active *Model, item core.StreamDoc) {
	if st.permille == 0 || textHash(item.Text)%1000 >= st.permille {
		return
	}
	select {
	case st.ch <- shadowDoc{item: item, active: active}:
	default:
		st.mu.Lock()
		st.stats.Dropped++
		st.mu.Unlock()
		st.srv.m.shadowDropped()
	}
}

// textHash is FNV-1a over the document text: cheap, deterministic, and
// independent of arrival order.
func textHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// run is the shadow worker: it re-scores each sampled document with the
// candidate's runner and accounts the divergence from the scores the
// active model gave it.
func (st *shadowState) run(ctx context.Context) {
	defer close(st.done)
	for n := 0; ; n++ {
		select {
		case <-ctx.Done():
			return
		case sd := <-st.ch:
			res := st.runner.RunItem(ctx, n, core.StreamDoc{Platform: sd.item.Platform, Text: sd.item.Text})
			if res.Status != resilience.StatusQuarantined {
				st.record(sd, res.Item)
			}
		}
	}
}

// record accounts one active/candidate comparison.
func (st *shadowState) record(sd shadowDoc, cand core.StreamDoc) {
	delta := absf(sd.item.CTH - cand.CTH)
	if d := absf(sd.item.Dox - cand.Dox); d > delta {
		delta = d
	}
	flipped := decide(sd.active, sd.item.Platform, sd.item.CTH, sd.item.Dox) !=
		decide(st.model, sd.item.Platform, cand.CTH, cand.Dox)

	st.mu.Lock()
	st.stats.Docs++
	if flipped {
		st.stats.LabelFlips++
	}
	st.sumDelta += delta
	if delta > st.stats.MaxDelta {
		st.stats.MaxDelta = delta
	}
	st.mu.Unlock()
	st.srv.m.shadowScored(int64(delta*1e6+0.5), flipped)
}

// decide applies a model's per-platform thresholds (default 0.5) to a
// score pair, yielding the (cth, dox) decision bits packed as an int.
// A score flags only strictly above its threshold, the rule the
// thresholds were selected under.
func decide(m *Model, platform string, cth, dox float64) int {
	tc, td := 0.5, 0.5
	if m != nil && m.Thresholds != nil {
		if v := m.Thresholds.CTHThreshold(platform); v > 0 {
			tc = v
		}
		if v := m.Thresholds.DoxThreshold(platform); v > 0 {
			td = v
		}
	}
	out := 0
	if cth > tc {
		out |= 1
	}
	if dox > td {
		out |= 2
	}
	return out
}

// absf is math.Abs without the import.
func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
