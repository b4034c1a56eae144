package serve

// Serving instruments on the shared obs.Registry, alongside the
// backend's own scoring metrics. Every handle is pre-registered at
// construction so the request path stays lock-free: one counter
// increment and one histogram observation per request. Unexpected
// status codes fall back to registry registration (idempotent, locked)
// — rare by construction.
//
// Catalog:
//
//	serve_requests_total{route,code}   counter
//	serve_request_latency_ns{route}    histogram (DurationBuckets)
//	serve_shed_total                   counter   (429 responses)
//	serve_docs_total{status}           counter   (scored documents)
//	serve_batch_docs                   histogram (documents per batch)
//	serve_queue_depth                  gauge     (admitted, unscored docs)
//	serve_inflight_requests            gauge
//	serve_draining                     gauge     (0/1)
//
// Per-document faults are the runner's to count, on the same registry:
// pipeline_stage_panics_total and pipeline_stage_failures_total by
// stage; a quarantined document is
// serve_docs_total{status="quarantined"} and a deadline
// serve_requests_total{code="504"}.
//
// Model lifecycle:
//
//	serve_model_generation               gauge     (active model generation)
//	serve_model_swaps_total              counter   (completed hot-swaps)
//	serve_swap_latency_ns                histogram (build the runner, publish the handle)
//	serve_feedback_total                 counter   (accepted feedback items)
//	serve_shadow_docs_total              counter   (docs shadow-scored by a candidate)
//	serve_shadow_dropped_total           counter   (sampled docs dropped: shadow queue full)
//	serve_shadow_label_flips_total       counter   (active/candidate label disagreements)
//	serve_shadow_score_delta_micros      histogram (|active - candidate| score delta, 1e-6 units)

import (
	"strconv"
	"time"

	"harassrepro/internal/obs"
	"harassrepro/internal/resilience"
)

var (
	metricRoutes = []string{"score", "batch", "healthz", "readyz", "feedback"}
	metricCodes  = []int{200, 202, 400, 404, 408, 413, 429, 500, 503, 504}
)

// serverMetrics holds the pre-registered handles. A nil *serverMetrics
// is valid and turns every method into a no-op, so the server runs
// identically without a registry.
type serverMetrics struct {
	reg         *obs.Registry
	requests    map[string]map[int]*obs.Counter
	latency     map[string]*obs.Histogram
	shed        *obs.Counter
	docs        map[resilience.Status]*obs.Counter
	batch       *obs.Histogram
	queue       *obs.Gauge
	inflight    *obs.Gauge
	draining    *obs.Gauge
	generation  *obs.Gauge
	swaps       *obs.Counter
	swapLatency *obs.Histogram
	feedbackC   *obs.Counter
	shadowDocs  *obs.Counter
	shadowDrops *obs.Counter
	shadowFlips *obs.Counter
	shadowDelta *obs.Histogram
}

// batchBuckets is the batch-size bucket layout: 1 to 5000 documents in
// 1-2-5 steps.
func batchBuckets() []int64 {
	var out []int64
	for _, scale := range []int64{1, 10, 100, 1000} {
		out = append(out, scale, 2*scale, 5*scale)
	}
	return out
}

// deltaBuckets is the shadow score-delta layout: 1e-6 to 1.0 (score
// units are [0,1], recorded in micros) in 1-2-5 steps.
func deltaBuckets() []int64 {
	var out []int64
	for _, scale := range []int64{1, 10, 100, 1000, 10000, 100000} {
		out = append(out, scale, 2*scale, 5*scale)
	}
	return append(out, 1000000)
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	m := &serverMetrics{
		reg:         reg,
		requests:    make(map[string]map[int]*obs.Counter, len(metricRoutes)),
		latency:     make(map[string]*obs.Histogram, len(metricRoutes)),
		docs:        make(map[resilience.Status]*obs.Counter, 3),
		shed:        reg.NewCounter("serve_shed_total", "Requests shed with 429 under overload"),
		batch:       reg.NewHistogram("serve_batch_docs", "Documents per batch request", batchBuckets()),
		queue:       reg.NewGauge("serve_queue_depth", "Admitted documents not yet scored"),
		inflight:    reg.NewGauge("serve_inflight_requests", "Admitted score requests being served"),
		draining:    reg.NewGauge("serve_draining", "1 while Shutdown is draining the server"),
		generation:  reg.NewGauge("serve_model_generation", "Active model generation new requests score with"),
		swaps:       reg.NewCounter("serve_model_swaps_total", "Completed model hot-swaps"),
		swapLatency: reg.NewHistogram("serve_swap_latency_ns", "Hot-swap wall time: build the runner, publish the handle", obs.DurationBuckets()),
		feedbackC:   reg.NewCounter("serve_feedback_total", "Accepted operator feedback items"),
		shadowDocs:  reg.NewCounter("serve_shadow_docs_total", "Documents shadow-scored by a candidate model"),
		shadowDrops: reg.NewCounter("serve_shadow_dropped_total", "Sampled documents dropped because the shadow queue was full"),
		shadowFlips: reg.NewCounter("serve_shadow_label_flips_total", "Active/candidate label disagreements during shadow scoring"),
		shadowDelta: reg.NewHistogram("serve_shadow_score_delta_micros", "Absolute active-candidate score delta in 1e-6 units", deltaBuckets()),
	}
	for _, route := range metricRoutes {
		byCode := make(map[int]*obs.Counter, len(metricCodes))
		for _, code := range metricCodes {
			byCode[code] = m.requestCounter(route, code)
		}
		m.requests[route] = byCode
		m.latency[route] = reg.NewHistogram("serve_request_latency_ns",
			"Request wall time by route", obs.DurationBuckets(), obs.L("route", route))
	}
	for _, st := range []resilience.Status{resilience.StatusOK, resilience.StatusDegraded, resilience.StatusQuarantined} {
		m.docs[st] = reg.NewCounter("serve_docs_total",
			"Documents scored through the service, by outcome", obs.L("status", st.String()))
	}
	return m
}

func (m *serverMetrics) requestCounter(route string, code int) *obs.Counter {
	return m.reg.NewCounter("serve_requests_total", "HTTP requests by route and status code",
		obs.L("route", route), obs.L("code", strconv.Itoa(code)))
}

func (m *serverMetrics) observeRequest(route string, code int, d time.Duration) {
	if m == nil {
		return
	}
	if c := m.requests[route][code]; c != nil {
		c.Inc()
	} else {
		m.requestCounter(route, code).Inc()
	}
	if h := m.latency[route]; h != nil {
		h.Observe(d.Nanoseconds())
	}
}

func (m *serverMetrics) shedRequest() {
	if m != nil {
		m.shed.Inc()
	}
}

func (m *serverMetrics) docScored(st resilience.Status) {
	if m == nil {
		return
	}
	if c := m.docs[st]; c != nil {
		c.Inc()
	}
}

func (m *serverMetrics) observeBatch(n int) {
	if m != nil {
		m.batch.Observe(int64(n))
	}
}

func (m *serverMetrics) setQueue(n int) {
	if m != nil {
		m.queue.Set(float64(n))
	}
}

func (m *serverMetrics) setInFlight(n int) {
	if m != nil {
		m.inflight.Set(float64(n))
	}
}

func (m *serverMetrics) setDraining(on bool) {
	if m == nil {
		return
	}
	if on {
		m.draining.Set(1)
	} else {
		m.draining.Set(0)
	}
}

// setGeneration publishes the active model generation.
func (m *serverMetrics) setGeneration(gen uint64) {
	if m != nil {
		m.generation.Set(float64(gen))
	}
}

// swapDone accounts one completed hot-swap.
func (m *serverMetrics) swapDone(gen uint64, d time.Duration) {
	if m == nil {
		return
	}
	m.generation.Set(float64(gen))
	m.swaps.Inc()
	m.swapLatency.Observe(d.Nanoseconds())
}

// feedback accounts accepted feedback items.
func (m *serverMetrics) feedback(n int) {
	if m != nil {
		m.feedbackC.Add(uint64(n))
	}
}

// shadowScored accounts one shadow comparison: the absolute score
// delta (in 1e-6 units) and whether the candidate flipped the label.
func (m *serverMetrics) shadowScored(deltaMicros int64, flipped bool) {
	if m == nil {
		return
	}
	m.shadowDocs.Inc()
	m.shadowDelta.Observe(deltaMicros)
	if flipped {
		m.shadowFlips.Inc()
	}
}

// shadowDropped accounts a sampled document the shadow queue refused.
func (m *serverMetrics) shadowDropped() {
	if m != nil {
		m.shadowDrops.Inc()
	}
}
