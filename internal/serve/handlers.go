package serve

// HTTP surface: request parsing, admission, and response assembly for
// the scoring endpoints. Wire format notes:
//
//   POST /v1/score        {"id","platform","text"} -> ScoreResult (the
//                         X-Model-Generation header and the
//                         model_generation field name the model that
//                         scored it)
//   POST /v1/score/batch  JSONL (one document per line, lenient: bad
//                         lines are quarantined and reported, reusing
//                         corpus.EachJSONL) or a JSON array of
//                         score requests -> BatchResponse
//   POST /v1/feedback     JSON array of FeedbackItem -> 202 with the
//                         accepted count (registered only when a
//                         FeedbackSink is configured)
//   GET  /healthz         process liveness, always 200; reports the
//                         active model generation and training seed
//   GET  /readyz          200 while admitting, 503 once draining; the
//                         ready body carries generation and seed too
//
// With Config.Admin set, the model-lifecycle control surface is
// mounted under /v1/admin/ with the prefix stripped.
//
// Overload and drain semantics: 429 + Retry-After when the in-flight
// request bound or the admitted-document bound is hit, 503 +
// Retry-After once Shutdown has begun, 413 for bodies or batches over
// their limits, 504 when the per-request deadline expires before
// scoring completes. Both score routes stamp X-Model-Generation: every
// document of a response was scored by that one generation.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"harassrepro/internal/annotate"
	"harassrepro/internal/core"
	"harassrepro/internal/corpus"
	"harassrepro/internal/obs/obshttp"
	"harassrepro/internal/resilience"
)

// ScoreRequest is one document to score.
type ScoreRequest struct {
	ID       string `json:"id,omitempty"`
	Platform string `json:"platform,omitempty"`
	Text     string `json:"text"`
}

// ScoreResult is one scored document.
type ScoreResult struct {
	ID string `json:"id,omitempty"`
	// Status is "ok", "degraded" (an optional annotation stage failed;
	// Degraded names it) or "quarantined" (scoring failed permanently;
	// Error holds the cause and the scores are unset).
	Status    string   `json:"status"`
	CTH       float64  `json:"cth"`
	Dox       float64  `json:"dox"`
	PII       []string `json:"pii,omitempty"`
	Attacks   []string `json:"attacks,omitempty"`
	SeedQuery bool     `json:"seed_query"`
	Degraded  []string `json:"degraded,omitempty"`
	Error     string   `json:"error,omitempty"`
	// ModelGen is the model generation that scored (or, for a
	// quarantined document, failed to score) this document: the one the
	// response's X-Model-Generation header names.
	ModelGen uint64 `json:"model_generation,omitempty"`
}

// BatchLineError is one rejected batch input: a malformed or oversized
// JSONL line, or an array element with no text.
type BatchLineError struct {
	// Line is the 1-based JSONL line number, or the 1-based array
	// index for JSON-array bodies.
	Line    int    `json:"line"`
	Error   string `json:"error"`
	Preview string `json:"preview,omitempty"`
}

// BatchSummary aggregates a batch response.
type BatchSummary struct {
	Docs        int `json:"docs"`
	OK          int `json:"ok"`
	Degraded    int `json:"degraded"`
	Quarantined int `json:"quarantined"`
	BadLines    int `json:"bad_lines"`
}

// BatchResponse is the /v1/score/batch reply. Results preserve the
// input order of the accepted documents.
type BatchResponse struct {
	Results     []ScoreResult    `json:"results"`
	Quarantined []BatchLineError `json:"quarantined_lines,omitempty"`
	Summary     BatchSummary     `json:"summary"`
}

// errorBody is the JSON error envelope for non-2xx responses.
type errorBody struct {
	Error string `json:"error"`
}

// routes registers the scoring endpoints and, with metrics configured,
// the obshttp observability surface on the same mux.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/score", s.instrument("score", s.handleScore))
	s.mux.HandleFunc("POST /v1/score/batch", s.instrument("batch", s.handleBatch))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	if s.cfg.Feedback != nil {
		s.mux.HandleFunc("POST /v1/feedback", s.instrument("feedback", s.handleFeedback))
	}
	if s.cfg.Admin != nil {
		s.mux.Handle("/v1/admin/", http.StripPrefix("/v1/admin", s.cfg.Admin))
	}
	if s.cfg.Metrics != nil {
		h := obshttp.Handler(s.cfg.Metrics)
		s.mux.Handle("GET /metrics", h)
		s.mux.Handle("GET /metrics.json", h)
		s.mux.Handle("/debug/pprof/", h)
	}
}

// statusWriter captures the response code for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request count and latency metrics.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	if s.m == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.m.observeRequest(route, sw.code, time.Since(t0))
	}
}

// requestCtx layers the server's per-request deadline onto the
// client's own context (cancelled when the client disconnects).
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// readBody reads at most MaxBodyBytes; ok=false means the response has
// been written.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return nil, false
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds "+strconv.FormatInt(s.cfg.MaxBodyBytes, 10)+" bytes")
		return nil, false
	}
	return body, true
}

// refuse writes a refusal: 429 and 503 carry the Retry-After hint.
func (s *Server) refuse(w http.ResponseWriter, rf refusal) {
	if rf.code == http.StatusTooManyRequests || rf.code == http.StatusServiceUnavailable {
		retry := int(s.cfg.RetryAfter / time.Second)
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
	}
	writeError(w, rf.code, rf.msg)
}

// score is the whole scoring path of one request, run on the request's
// own goroutine: admit, wait for a scoring slot, load the model once,
// score each document in place, checking the deadline (and for a forced
// shutdown) between documents. Everything the request held — its
// request slot, its scoring slot, the document slots of anything left
// unscored — has been returned by the time score returns, so the handler
// writes its response, results or refusal, holding nothing.
func (s *Server) score(r *http.Request, docs []core.StreamDoc) ([]ScoreResult, uint64, refusal) {
	if rf := s.admit(len(docs)); rf.code != 0 {
		return nil, 0, rf
	}
	held := len(docs)
	defer func() { s.release(held) }()
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, 0, s.expired(held, len(docs))
	case <-s.rootCtx.Done():
		return nil, 0, s.expired(held, len(docs))
	}
	defer func() { <-s.slots }()

	mdl := s.model.Load()
	shadow := s.shadow.Load()
	first := int(s.seq.Add(uint64(len(docs)))) - len(docs)
	out := make([]ScoreResult, len(docs))
	for i := range docs {
		if ctx.Err() != nil || s.rootCtx.Err() != nil {
			return nil, 0, s.expired(held, len(docs))
		}
		res := mdl.runner.RunItem(ctx, first+i, docs[i])
		if res.Dead != nil && ctx.Err() != nil {
			// Cut short by the deadline, not failed by the document.
			return nil, 0, s.expired(held, len(docs))
		}
		held--
		s.docDone(res.Status)
		out[i] = toScoreResult(res, mdl.Generation)
		if shadow != nil && res.Status != resilience.StatusQuarantined {
			shadow.offer(mdl.Model, res.Item)
		}
	}
	return out, mdl.Generation, refusal{}
}

// expired is the refusal for a request stopped with unscored of its docs
// documents left: 504 for its own deadline (or a vanished client), 503
// when a drain that ran out of time abandoned it.
func (s *Server) expired(unscored, docs int) refusal {
	if s.rootCtx.Err() != nil {
		return refusal{http.StatusServiceUnavailable, "server stopped before scoring completed"}
	}
	return refusal{http.StatusGatewayTimeout, "deadline exceeded with " +
		strconv.Itoa(unscored) + " of " + strconv.Itoa(docs) + " documents unscored"}
}

// healthBody is the healthz/readyz 200 payload: liveness/readiness
// plus the identity of the model currently admitting traffic.
type healthBody struct {
	Status          string `json:"status"`
	ModelGeneration uint64 `json:"model_generation"`
	TrainingSeed    uint64 `json:"training_seed"`
}

func (s *Server) health(status string) healthBody {
	mdl := s.ActiveModel()
	return healthBody{Status: status, ModelGeneration: mdl.Generation, TrainingSeed: mdl.Seed}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.health("ok"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Stats().Draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, http.StatusOK, s.health("ready"))
}

// handleFeedback accepts a JSON array of operator-labelled documents
// and hands it to the configured FeedbackSink (the retrain loop).
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var items []FeedbackItem
	if err := json.Unmarshal(body, &items); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	accepted := items[:0]
	for i, it := range items {
		if _, err := annotate.ParseTask(it.Task); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("item %d: %v", i, err))
			return
		}
		if strings.TrimSpace(it.Text) == "" {
			continue
		}
		accepted = append(accepted, it)
	}
	if len(accepted) == 0 {
		writeError(w, http.StatusBadRequest, "no feedback items with text")
		return
	}
	if err := s.cfg.Feedback.AddFeedback(accepted); err != nil {
		writeError(w, http.StatusServiceUnavailable, "feedback rejected: "+err.Error())
		return
	}
	s.m.feedback(len(accepted))
	writeJSON(w, http.StatusAccepted, map[string]int{"accepted": len(accepted)})
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req ScoreRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if strings.TrimSpace(req.Text) == "" {
		writeError(w, http.StatusBadRequest, "missing text")
		return
	}
	results, gen, rf := s.score(r, []core.StreamDoc{{ID: req.ID, Platform: req.Platform, Text: req.Text}})
	if rf.code != 0 {
		s.refuse(w, rf)
		return
	}
	w.Header().Set("X-Model-Generation", strconv.FormatUint(gen, 10))
	writeJSON(w, http.StatusOK, &results[0])
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	docs, quarantined, perr := s.parseBatch(body)
	if perr != "" {
		writeError(w, http.StatusBadRequest, perr)
		return
	}
	if limit, capped := s.cfg.batchLimit(); len(docs) > limit {
		why := "max batch docs " + strconv.Itoa(s.cfg.MaxBatchDocs)
		if capped {
			why = "queue depth " + strconv.Itoa(s.cfg.QueueDepth) + " caps " + why
		}
		writeError(w, http.StatusRequestEntityTooLarge, "batch of "+strconv.Itoa(len(docs))+
			" documents exceeds limit "+strconv.Itoa(limit)+" ("+why+")")
		return
	}
	if len(docs) == 0 && len(quarantined) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	resp := BatchResponse{
		Results:     []ScoreResult{},
		Quarantined: quarantined,
		Summary:     BatchSummary{Docs: len(docs), BadLines: len(quarantined)},
	}
	if len(docs) == 0 {
		// Nothing admissible: report the quarantined lines without
		// charging the queue.
		writeJSON(w, http.StatusOK, resp)
		return
	}
	results, gen, rf := s.score(r, docs)
	if rf.code != 0 {
		s.refuse(w, rf)
		return
	}
	s.m.observeBatch(len(docs))
	resp.Results = results
	for i := range results {
		switch results[i].Status {
		case resilience.StatusOK.String():
			resp.Summary.OK++
		case resilience.StatusDegraded.String():
			resp.Summary.Degraded++
		default:
			resp.Summary.Quarantined++
		}
	}
	w.Header().Set("X-Model-Generation", strconv.FormatUint(gen, 10))
	writeJSON(w, http.StatusOK, &resp)
}

// parseBatch decodes a batch body: a JSON array of score requests when
// the payload starts with '[', otherwise lenient JSONL with per-line
// quarantine (one JSON document per line — the cmd/corpusgen
// interchange format). perr non-empty means the whole body is
// unusable.
func (s *Server) parseBatch(body []byte) (docs []core.StreamDoc, quarantined []BatchLineError, perr string) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var reqs []ScoreRequest
		if err := json.Unmarshal(body, &reqs); err != nil {
			return nil, nil, "invalid JSON array: " + err.Error()
		}
		for i, req := range reqs {
			if strings.TrimSpace(req.Text) == "" {
				quarantined = append(quarantined, BatchLineError{Line: i + 1, Error: "missing text"})
				continue
			}
			docs = append(docs, core.StreamDoc{ID: req.ID, Platform: req.Platform, Text: req.Text})
		}
		return docs, quarantined, ""
	}

	bad, err := corpus.EachJSONL(bytes.NewReader(body),
		corpus.JSONLOptions{Lenient: true, MaxLineBytes: s.cfg.MaxLineBytes},
		func(d *corpus.Document) error {
			docs = append(docs, core.StreamDoc{ID: d.ID, Platform: string(d.Platform), Text: d.Text})
			return nil
		})
	if err != nil {
		return nil, nil, "reading JSONL body: " + err.Error()
	}
	for _, le := range bad {
		quarantined = append(quarantined, BatchLineError{Line: le.Line, Error: le.Err.Error(), Preview: le.Preview})
	}
	return docs, quarantined, ""
}

// toScoreResult converts a runner result to the wire form, stamped with
// the generation that produced it.
func toScoreResult(res resilience.Result[core.StreamDoc], gen uint64) ScoreResult {
	out := ScoreResult{
		ID:        res.Item.ID,
		Status:    res.Status.String(),
		CTH:       res.Item.CTH,
		Dox:       res.Item.Dox,
		PII:       res.Item.PII,
		Attacks:   res.Item.Attacks,
		SeedQuery: res.Item.SeedQuery,
		Degraded:  res.Degraded,
		ModelGen:  gen,
	}
	if res.Dead != nil {
		out.Error = res.Dead.Err.Error()
		out.CTH, out.Dox = 0, 0
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is not actionable
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}
