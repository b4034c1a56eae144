// Package serve is the production scoring service behind cmd/harassd:
// a long-running HTTP surface over the detector's zero-allocation
// scoring hot path. The paper's classifiers are exactly the kind of
// moderation infrastructure platforms call as an online service (the
// Perspective-API deployment model), and this package supplies the
// serving discipline such a deployment needs.
//
// A score request never leaves its own goroutine:
//
//	decode → admit → take a scoring slot → load the model once →
//	score each document in place → release → encode
//
// What that path guarantees:
//
//   - admission control: a bounded in-flight request count and one
//     bounded count of admitted-but-unscored documents; overload is
//     answered at the door with 429 + Retry-After instead of an
//     unbounded goroutine pile-up, and a draining server answers 503;
//   - scoring concurrency is held at GOMAXPROCS by a slot semaphore, so
//     it is independent of the client count and the pooled scorer
//     scratch stays bounded however many requests are admitted;
//   - one model generation per response: the handler loads the model
//     pointer once and stamps that generation on everything it returns,
//     so a hot-swap is a pointer store and requests in flight finish on
//     the generation they loaded;
//   - per-document fault isolation comes from the resilience runner the
//     offline path uses (each stage once, panic capture on a private
//     copy, degradation, quarantine): a poison document is quarantined
//     inside its own 200 response and nothing else notices;
//   - per-request deadlines propagated via context — scoring stops at
//     the next document boundary and everything the request held is
//     returned before the 504 is written — and graceful drain: Shutdown
//     stops admitting and waits for every admitted request, bounded by
//     the caller's context.
//
// No queue holds another request's documents, so there is no shared
// failure to supervise: the scoring stages do no I/O and take no lock
// across documents, and a fault (real or injected) is confined to the
// request whose goroutine ran into it.
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"harassrepro/internal/core"
	"harassrepro/internal/obs"
	"harassrepro/internal/obs/obshttp"
	"harassrepro/internal/resilience"
)

// Backend is a model's scoring engine. *core.Detector implements it
// with the pooled zero-allocation scorers; it is an interface only so
// tests can substitute a fake with controllable latency. The server
// calls Runner once per model and then scores every document with the
// returned runner's RunItem on the request's own goroutine, so the
// runner must be safe for concurrent use (resilience runners are).
type Backend interface {
	Runner(opts core.StreamOptions) *resilience.Runner[core.StreamDoc]
}

// Thresholder exposes a model's per-platform decision thresholds, used
// by the shadow scorer to turn score divergence into label flips.
// *core.Detector satisfies it.
type Thresholder interface {
	CTHThreshold(platform string) float64
	DoxThreshold(platform string) float64
}

// Model is a versioned scoring artifact: the backend plus the registry
// identity the serve layer reports with every response. Requests score
// through an atomically swappable handle, never a bare Backend, so the
// model can change under traffic (SwapModel) while every request in
// flight still finishes on the generation it loaded.
type Model struct {
	// Backend scores the documents. Required.
	Backend Backend
	// Generation is the registry generation number (1 for an unmanaged
	// boot-time model).
	Generation uint64
	// Seed is the model's training seed, surfaced on /healthz.
	Seed uint64
	// Thresholds, if set, supplies per-platform decision thresholds
	// for shadow label-flip accounting.
	Thresholds Thresholder
}

// FeedbackItem is one operator-labelled document posted to
// POST /v1/feedback: live ground truth feeding the retrain loop.
type FeedbackItem struct {
	ID       string `json:"id,omitempty"`
	Platform string `json:"platform,omitempty"`
	Text     string `json:"text"`
	// Task names the classifier the label applies to: "cth" or "dox"
	// (default "cth"; annotate.ParseTask lists every accepted
	// spelling, and any other value is a 400).
	Task string `json:"task,omitempty"`
	// Label is the operator's call on the document.
	Label bool `json:"label"`
	// Generation optionally records which model generation produced
	// the score the operator judged.
	Generation uint64 `json:"generation,omitempty"`
}

// FeedbackSink receives accepted feedback batches. Implementations
// must not block: the handler calls it on the request path.
type FeedbackSink interface {
	AddFeedback(items []FeedbackItem) error
}

// Config configures a Server. The zero value of every limit picks a
// production-safe default.
type Config struct {
	// Backend scores the documents. Required unless Model is set, in
	// which case it is ignored in favour of Model.Backend.
	Backend Backend
	// Model is the initial versioned model handle. When nil, Backend
	// is wrapped as generation 1 with the server seed.
	Model *Model
	// Feedback, if set, enables POST /v1/feedback and receives the
	// accepted items.
	Feedback FeedbackSink
	// Admin, if set, is mounted under /v1/admin/ (stripped prefix) —
	// the model-lifecycle control surface (swap/promote/rollback).
	Admin http.Handler
	// Seed drives the detector's deterministic span sampling.
	Seed uint64
	// Annotate adds the PII and taxonomy/seed-query stages to every
	// scored document.
	Annotate bool
	// MaxInFlight bounds concurrently admitted score requests; excess
	// requests are shed with 429. Default 256.
	MaxInFlight int
	// QueueDepth bounds documents admitted but not yet scored, summed
	// over every admitted request. A request whose documents do not fit
	// is shed with 429. Default 1024.
	QueueDepth int
	// MaxBatchDocs bounds one batch request; larger batches get 413.
	// Default 4096, capped by QueueDepth (a larger batch could never be
	// admitted).
	MaxBatchDocs int
	// MaxBodyBytes bounds a request body. Default 32 MiB.
	MaxBodyBytes int64
	// MaxLineBytes bounds one JSONL line in a batch body; longer lines
	// are quarantined per corpus.EachJSONL. Default 1 MiB.
	MaxLineBytes int
	// RequestTimeout is the per-request deadline, layered onto the
	// client's own context. Default 30s; negative disables.
	RequestTimeout time.Duration
	// RetryAfter is the hint returned with 429/503 responses.
	// Default 1s.
	RetryAfter time.Duration
	// StageWrap, if set, wraps every scoring stage of every model the
	// server loads (core.StreamOptions.StageWrap): the hook the fault
	// tests inject stage panics and stalls through.
	StageWrap func(resilience.Stage[core.StreamDoc]) resilience.Stage[core.StreamDoc]
	// Metrics, if set, receives the serving instruments (request/
	// latency/queue-depth/batch-size) alongside the backend's scoring
	// and per-stage panic/failure metrics, and mounts /metrics,
	// /metrics.json and /debug/pprof/ on the server's own mux.
	Metrics *obs.Registry
}

// withDefaults fills zero-valued limits.
func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxBatchDocs <= 0 {
		c.MaxBatchDocs = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = 1 << 20
	}
	switch {
	case c.RequestTimeout < 0:
		c.RequestTimeout = 0
	case c.RequestTimeout == 0:
		c.RequestTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// batchLimit is the effective per-request document bound: MaxBatchDocs,
// capped by QueueDepth whatever the core count, because a batch larger
// than the whole document bound could never be admitted. capped reports
// which of the two settings produced the limit.
func (c Config) batchLimit() (limit int, capped bool) {
	if c.MaxBatchDocs > c.QueueDepth {
		return c.QueueDepth, true
	}
	return c.MaxBatchDocs, false
}

// scoringSlots is how many requests score at once: one per processor,
// so throughput does not depend on the client count, and never fewer
// than two, so one wedged request cannot hold the only slot.
func scoringSlots() int {
	return max(2, runtime.GOMAXPROCS(0))
}

// loaded is a Model with its stage runner built: what a score request
// loads, once, and scores all of its documents through.
type loaded struct {
	*Model
	runner *resilience.Runner[core.StreamDoc]
}

// Server is the scoring service. Create with New, optionally bind with
// Start, stop with Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux
	m   *serverMetrics

	// rootCtx is cancelled when Shutdown stops waiting, cleanly or not: it
	// ends the shadow worker, and score requests still in flight notice it
	// at their next document boundary.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	// model is the swappable handle; swapMu serialises SwapModel calls
	// so concurrent swaps apply in a total order (each one exactly once).
	model  atomic.Pointer[loaded]
	swapMu sync.Mutex
	// shadow is the optional candidate-model shadow scorer.
	shadow atomic.Pointer[shadowState]

	// seq numbers admitted documents in arrival order. It is the runner
	// index of each document, so span sampling and phase-timing sampling
	// are spread over the traffic as they are over a corpus stream (a
	// per-request position would make every single-document request
	// index 0).
	seq atomic.Uint64
	// slots is the scoring-concurrency semaphore (see scoringSlots).
	slots chan struct{}
	// queued counts admitted documents not yet scored. It only grows
	// under mu (admission), so the QueueDepth check cannot over-admit;
	// it shrinks lock-free as documents finish.
	queued atomic.Int64

	mu            sync.Mutex
	inflight      int           // admitted score requests
	draining      bool          // no new admissions
	drained       chan struct{} // closed when draining && inflight == 0
	abandonedReqs int           // requests still in flight at drain expiry
	abandonedDocs int           // their unscored documents

	web *obshttp.Server // set by Start
}

// New builds the server. It is ready to score when New returns.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	rootCtx, rootCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		rootCtx:    rootCtx,
		rootCancel: rootCancel,
		m:          newServerMetrics(cfg.Metrics),
		slots:      make(chan struct{}, scoringSlots()),
	}
	mdl := cfg.Model
	if mdl == nil {
		mdl = &Model{Backend: cfg.Backend, Generation: 1, Seed: cfg.Seed}
	}
	s.model.Store(s.load(mdl))
	s.m.setGeneration(mdl.Generation)
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// load builds m's stage runner with the server's scoring options.
func (s *Server) load(m *Model) *loaded {
	return &loaded{Model: m, runner: m.Backend.Runner(core.StreamOptions{
		Seed:      s.cfg.Seed,
		Annotate:  s.cfg.Annotate,
		StageWrap: s.cfg.StageWrap,
		Metrics:   s.cfg.Metrics,
	})}
}

// Handler returns the server's mux: the scoring endpoints plus (with
// Metrics set) /metrics, /metrics.json and /debug/pprof/.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr (":0" picks a free port) and serves the handler in
// the background with slowloris-safe timeouts until Shutdown.
func (s *Server) Start(addr string) error {
	web, err := obshttp.ServeHandler(addr, s.mux)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.web = web
	return nil
}

// Addr reports the bound address after Start.
func (s *Server) Addr() net.Addr {
	if s.web == nil {
		return nil
	}
	return s.web.Addr()
}

// Stats is a point-in-time view of the admission state.
type Stats struct {
	// InFlight is the number of admitted score requests being served.
	InFlight int
	// Queued is the number of admitted documents not yet scored.
	Queued int
	// QueueCapacity is the document bound (Config.QueueDepth).
	QueueCapacity int
	// Draining reports whether Shutdown has begun.
	Draining bool
}

// Stats returns the current admission state.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		InFlight:      s.inflight,
		Queued:        int(s.queued.Load()),
		QueueCapacity: s.cfg.QueueDepth,
		Draining:      s.draining,
	}
}

// Abandoned reports the requests (and their unscored documents) still
// in flight when Shutdown's context expired before the drain completed.
// Both are zero after a clean drain.
func (s *Server) Abandoned() (requests, docs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.abandonedReqs, s.abandonedDocs
}

// refusal is a score request answered without results: 429 (overload),
// 503 (draining or stopped) or 504 (deadline). The zero value means the
// request was not refused.
type refusal struct {
	code int
	msg  string
}

// admit reserves one request slot and docs document slots, or says why
// not: 503 once Shutdown has begun, 429 when either bound is hit.
func (s *Server) admit(docs int) refusal {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return refusal{http.StatusServiceUnavailable, "server is draining"}
	}
	if s.inflight >= s.cfg.MaxInFlight || int(s.queued.Load())+docs > s.cfg.QueueDepth {
		s.m.shedRequest()
		return refusal{http.StatusTooManyRequests, "server overloaded: retry later"}
	}
	s.inflight++
	s.m.setInFlight(s.inflight)
	s.m.setQueue(int(s.queued.Add(int64(docs))))
	return refusal{}
}

// docDone returns one scored document's slot.
func (s *Server) docDone(st resilience.Status) {
	s.m.setQueue(int(s.queued.Add(-1)))
	s.m.docScored(st)
}

// release returns an admitted request's slot together with the docs
// document slots it still holds (non-zero when it stopped early), and
// wakes a drain-waiter once the last request finishes.
func (s *Server) release(docs int) {
	if docs > 0 {
		s.m.setQueue(int(s.queued.Add(int64(-docs))))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	s.m.setInFlight(s.inflight)
	if s.inflight == 0 && s.drained != nil {
		close(s.drained)
		s.drained = nil
	}
}

// Shutdown drains the server: stop admitting (readyz flips to 503 and
// new score requests are refused), wait for every admitted request to
// finish, then stop the shadow worker and drain the HTTP listener, all
// bounded by ctx. On ctx expiry the requests still in flight are
// counted in Abandoned and told to stop through the root context: each
// answers 503 at its next document boundary. Safe to call more than
// once; returns nil when every admitted request completed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.m.setDraining(true)
	}
	var drained chan struct{}
	if s.inflight > 0 {
		if s.drained == nil {
			s.drained = make(chan struct{})
		}
		drained = s.drained
	}
	s.mu.Unlock()

	var err error
	if drained != nil {
		select {
		case <-drained:
		case <-ctx.Done():
			err = fmt.Errorf("serve: drain: %w", ctx.Err())
			s.mu.Lock()
			s.abandonedReqs, s.abandonedDocs = s.inflight, int(s.queued.Load())
			s.mu.Unlock()
		}
	}
	s.rootCancel()
	s.ClearShadow()
	if s.web != nil {
		if werr := s.web.Close(ctx); werr != nil && err == nil {
			err = fmt.Errorf("serve: http drain: %w", werr)
		}
	}
	return err
}
