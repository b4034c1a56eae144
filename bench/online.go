package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"harassrepro/bench/benchkit"
	"harassrepro/internal/core"
	"harassrepro/internal/corpus"
	"harassrepro/internal/serve"
)

// onlineKind is one of the two online workloads. Both drive a real
// harassd subprocess over HTTP with at most nproc keep-alive
// connections from this one process.
type onlineKind struct {
	name      string
	path      string
	batchDocs int      // documents per request
	annotate  bool     // harassd's default; singles turn it off
	flags     []string // extra harassd flags
	requests  int      // distinct request bodies, cycled
	// pacedRate is the open-loop arrival rate in requests/s: about 30%
	// of the closed-loop capacity measured on the 2-core reference box
	// when this benchmark was defined (8,700 singles/s, 115 batches/s),
	// then frozen. A fixed rate is what makes the latency figures
	// comparable between commits; a third of capacity keeps queueing,
	// which amplifies every drift of the sandbox's speed, a small part
	// of what is measured.
	pacedRate float64
}

var (
	singles = onlineKind{
		name: "online-singles", path: "/v1/score", batchDocs: 1, annotate: false,
		flags: []string{"-no-annotate"}, requests: 20000, pacedRate: 2400,
	}
	batch = onlineKind{
		name: "online-batch", path: "/v1/score/batch", batchDocs: 64, annotate: true,
		requests: 192, pacedRate: 36,
	}
)

// An end-to-end run spends all its measured seconds in saturation; a
// traced run shares them between saturation, the paced open loop and
// the layer replay.
const (
	tracedSatShare, tracedPacedShare = 0.25, 0.25
	tracedSatSlices                  = 4 // alternately untraced and traced
	replayShare                      = 0.5

	onlineSetupReps     = 3
	warmup, smokeWarmup = time.Second, 200 * time.Millisecond
	modelGeneration     = 1 // an unmanaged boot-time model is generation 1
	// failedLatencyMS stands in for the latency of a failed request:
	// the client timeout, so a failure misses any latency limit.
	failedLatencyMS = 30000.0
	lateThreshold   = time.Millisecond

	replayChunkDocs     = 1024
	maxReplayRequests   = 8192
	doubleCountLimitPct = 10.0
)

// want is the reference answer for one document.
type want struct {
	id                 string
	cth, dox           float64
	exactCTH, exactDox bool // at or under the span length: the score is order-independent
	pii, attacks       []string
	seedQuery          bool
}

// onlineRequest is one prepared request body and what must come back.
type onlineRequest struct {
	body []byte
	docs []core.StreamDoc
	want []want
}

// prepareRequests turns the shuffled corpus into request bodies and
// scores the same documents in-process for reference.
func prepareRequests(ctx context.Context, kind onlineKind, in *inputs, m *models, seed uint64, count int) ([]onlineRequest, error) {
	order := shuffledOrder(len(in.docs), seed)
	if need := count * kind.batchDocs; need > len(order) {
		count = len(order) / kind.batchDocs
	}
	if count == 0 {
		return nil, fmt.Errorf("corpus of %d documents is too small for %d-document requests", len(in.docs), kind.batchDocs)
	}
	reqs := make([]onlineRequest, count)
	var all []core.StreamDoc
	for r := range reqs {
		picked := make([]corpus.Document, kind.batchDocs)
		for j := range picked {
			picked[j] = in.docs[order[r*kind.batchDocs+j]]
		}
		req := &reqs[r]
		for i := range picked {
			req.docs = append(req.docs, core.StreamDoc{ID: picked[i].ID, Platform: string(picked[i].Platform), Text: picked[i].Text})
		}
		if kind.batchDocs == 1 {
			body, err := json.Marshal(serve.ScoreRequest{ID: picked[0].ID, Platform: string(picked[0].Platform), Text: picked[0].Text})
			if err != nil {
				return nil, err
			}
			req.body = body
		} else {
			var buf bytes.Buffer
			if err := corpus.WriteJSONL(&buf, picked, false); err != nil {
				return nil, err
			}
			req.body = buf.Bytes()
		}
		all = append(all, req.docs...)
	}
	// One reference pass over every document. ScoreBatch is the same
	// engine harassd serves; what the comparison checks is the serving
	// path around it — ids, order, generation, nothing lost or mixed.
	res, sum, err := m.det.ScoreBatch(ctx, all, core.StreamOptions{Seed: trainSeed, Annotate: kind.annotate})
	if err != nil {
		return nil, err
	}
	if sum.Succeeded != len(all) {
		return nil, fmt.Errorf("reference scoring: %d of %d documents succeeded", sum.Succeeded, len(all))
	}
	for r := range reqs {
		for j := range reqs[r].docs {
			it := res[r*kind.batchDocs+j].Item
			tokens := len(m.sess.Tokenize(it.Text))
			reqs[r].want = append(reqs[r].want, want{
				id: it.ID, cth: it.CTH, dox: it.Dox,
				exactCTH: tokens <= m.cthLen, exactDox: tokens <= m.doxLen,
				pii: it.PII, attacks: it.Attacks, seedQuery: it.SeedQuery,
			})
		}
	}
	return reqs, nil
}

// checkResult compares one served result with its reference.
func checkResult(got *serve.ScoreResult, w *want, annotate bool) error {
	switch {
	case got.ID != w.id:
		return fmt.Errorf("id %q, want %q", got.ID, w.id)
	case got.Status != "ok":
		return fmt.Errorf("%s: status %q", w.id, got.Status)
	case got.ModelGen != modelGeneration:
		return fmt.Errorf("%s: model generation %d", w.id, got.ModelGen)
	case w.exactCTH && got.CTH != w.cth:
		return fmt.Errorf("%s: cth %v, want %v", w.id, got.CTH, w.cth)
	case w.exactDox && got.Dox != w.dox:
		return fmt.Errorf("%s: dox %v, want %v", w.id, got.Dox, w.dox)
	case got.CTH < 0 || got.CTH > 1 || got.Dox < 0 || got.Dox > 1:
		return fmt.Errorf("%s: score outside [0,1]: cth %v dox %v", w.id, got.CTH, got.Dox)
	}
	if annotate && (!slices.Equal(got.PII, w.pii) || !slices.Equal(got.Attacks, w.attacks) || got.SeedQuery != w.seedQuery) {
		return fmt.Errorf("%s: annotations %v %v %v, want %v %v %v", w.id, got.PII, got.Attacks, got.SeedQuery, w.pii, w.attacks, w.seedQuery)
	}
	return nil
}

// checkResponse verifies a whole HTTP reply: status, generation stamp,
// count, order, and every document against its reference.
func checkResponse(kind onlineKind, status int, header http.Header, body []byte, req *onlineRequest) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.120s", status, body)
	}
	if kind.batchDocs == 1 {
		if g := header.Get("X-Model-Generation"); g != fmt.Sprint(modelGeneration) {
			return fmt.Errorf("X-Model-Generation %q", g)
		}
		var got serve.ScoreResult
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		return checkResult(&got, &req.want[0], kind.annotate)
	}
	var got serve.BatchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got.Results) != len(req.want) || got.Summary.OK != len(req.want) || len(got.Quarantined) != 0 {
		return fmt.Errorf("batch answered %d results (%d ok, %d quarantined lines), want %d", len(got.Results), got.Summary.OK, len(got.Quarantined), len(req.want))
	}
	for i := range got.Results {
		if err := checkResult(&got.Results[i], &req.want[i], kind.annotate); err != nil {
			return err
		}
	}
	return nil
}

// loadgen is the single-process load generator: one http.Client whose
// transport holds at most conns connections, and one reusable read
// buffer per worker.
type loadgen struct {
	kind     onlineKind
	client   *http.Client
	url      string
	reqs     []onlineRequest
	bufs     []bytes.Buffer
	firstErr atomic.Pointer[error]
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: time.Duration(failedLatencyMS) * time.Millisecond,
		Transport: &http.Transport{
			MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
			DisableCompression: true,
		},
	}
}

// do sends request i (cycling through the prepared bodies) and
// verifies the reply. It returns the documents answered.
func (lg *loadgen) do(worker, i int) (int, bool) {
	req := &lg.reqs[i%len(lg.reqs)]
	resp, err := lg.client.Post(lg.url, "application/json", bytes.NewReader(req.body))
	if err == nil {
		buf := &lg.bufs[worker]
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err == nil {
			err = checkResponse(lg.kind, resp.StatusCode, resp.Header, buf.Bytes(), req)
		}
	}
	if err != nil {
		lg.firstErr.CompareAndSwap(nil, &err)
		return 0, false
	}
	return len(req.docs), true
}

// pacedStats summarises an open-loop phase.
type pacedStats struct {
	p50, p90     float64       // ms, from the due instant
	tail         benchkit.Tail // p99, or the highest level with ten samples beyond it
	failed       int64
	lateP99MS    float64
	lateShare    float64
	fromSendP50  float64
	achievedRate float64
}

func summarisePaced(samples []benchkit.Sample) pacedStats {
	var st pacedStats
	fromDue := make([]float64, len(samples))
	fromSend := make([]float64, len(samples))
	late := make([]float64, len(samples))
	var lateN int
	for i, s := range samples {
		fromDue[i] = float64(s.FromDue()) / float64(time.Millisecond)
		fromSend[i] = float64(s.FromSend()) / float64(time.Millisecond)
		if !s.OK {
			// A failed or refused request misses any latency limit.
			st.failed++
			fromDue[i] = failedLatencyMS
		}
		late[i] = float64(s.Late()) / float64(time.Millisecond)
		if s.Late() > lateThreshold {
			lateN++
		}
	}
	slices.Sort(fromDue)
	slices.Sort(late)
	st.p50 = benchkit.Percentile(fromDue, 50)
	st.p90 = benchkit.Percentile(fromDue, 90)
	st.tail = benchkit.TailPercentile(fromDue, 99, 10)
	st.lateP99MS = benchkit.Percentile(late, 99)
	st.fromSendP50 = benchkit.Median(fromSend)
	if n := len(samples); n > 0 {
		st.lateShare = float64(lateN) / float64(n)
		st.achievedRate = float64(n) / samples[n-1].Done.Seconds()
	}
	return st
}

func runOnline(ctx context.Context, rc *runConfig, kind onlineKind) (*outcome, error) {
	o := newOutcome()
	if rc.smoke {
		kind.requests = min(kind.requests, 400/kind.batchDocs+4)
		// A smoke run checks the harness on whatever machine runs the
		// tests, next to other packages' tests: keep the rate trivial.
		kind.pacedRate = max(kind.pacedRate/10, 20) // still a few requests in a quarter second
	}
	if err := buildHarassd(rc); err != nil {
		return nil, err
	}
	in := generateInputs(rc)
	o.docs, o.textBytes = len(in.docs), in.textBytes
	m, err := trainModels(rc)
	if err != nil {
		return nil, err
	}
	reqs, err := prepareRequests(ctx, kind, in, m, rc.seed, kind.requests)
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	client := newHTTPClient(conns)
	defer client.CloseIdleConnections()

	// Set-up: harassd exec → first 200 from /readyz, its start-up
	// training included. The last start is the one measured against.
	var setups []float64
	var srv *server
	reps := onlineSetupReps
	if rc.trace || rc.smoke {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			client.CloseIdleConnections()
		}
		if srv, err = startHarassd(rc, client, kind.flags...); err != nil {
			return nil, err
		}
		setups = append(setups, srv.setup.Seconds())
	}
	o.set("setup_s", benchkit.Median(setups))

	lg := &loadgen{kind: kind, client: client, url: srv.base + kind.path, reqs: reqs, bufs: make([]bytes.Buffer, conns)}
	clock := benchkit.WallClock{}
	w := warmup
	if rc.smoke {
		w = smokeWarmup
	}
	benchkit.ClosedLoop(clock, w, conns, lg.do)
	if e := lg.firstErr.Load(); e != nil {
		return nil, fmt.Errorf("warm-up request failed: %w\n%s", *e, srv.logText())
	}

	if rc.trace {
		err = onlineTraced(ctx, rc, kind, o, srv, lg, m, conns)
	} else {
		err = onlineEndToEnd(rc, o, srv, lg, conns)
	}
	if err != nil {
		return nil, err
	}
	if e := lg.firstErr.Load(); e != nil {
		o.notes["first_failure"] = (*e).Error()
	}

	o.set("peak_rss_mb", srv.peakRSSMB())
	if err := srv.scrape(client, o); err != nil {
		return nil, err
	}
	// A dirty drain is a failed run: count the stop as an operation.
	o.attempted++
	if err := srv.stop(); err != nil {
		o.fail(1, "%v", err)
	}
	return o, nil
}

// satResult is one closed-loop phase: capacity, what it cost the
// server and the co-located generator in CPU, and how long each caller
// waited for each reply.
type satResult struct {
	benchkit.ClosedLoopResult
	srvCPU, genCPU float64
	latencyMS      []float64
}

// satPhase runs nproc callers that each wait for their reply.
func satPhase(o *outcome, srv *server, d time.Duration, conns int, op func(int, int) (int, bool)) satResult {
	perWorker := make([][]float64, conns)
	timed := func(w, i int) (int, bool) {
		t0 := time.Now()
		n, ok := op(w, i)
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		if !ok {
			ms = failedLatencyMS // a failed request misses any latency limit
		}
		perWorker[w] = append(perWorker[w], ms)
		return n, ok
	}
	s0, g0 := srv.cpu(), selfCPU()
	res := satResult{ClosedLoopResult: benchkit.ClosedLoop(benchkit.WallClock{}, d, conns, timed)}
	res.srvCPU, res.genCPU = srv.cpu()-s0, selfCPU()-g0
	res.latencyMS = slices.Concat(perWorker...)
	o.attempted += res.Ops
	o.fail(res.Failed, "saturation phase: %d of %d requests failed", res.Failed, res.Ops)
	return res
}

// reportSat sets the end-to-end figures from closed-loop phases.
func reportSat(o *outcome, conns int, docs int64, elapsed time.Duration, srvCPU float64, latencyMS []float64) {
	slices.Sort(latencyMS)
	tail := benchkit.TailPercentile(latencyMS, 99, 10)
	o.set("docs_per_s", float64(docs)/elapsed.Seconds())
	o.set("cpu_us_per_doc", srvCPU/float64(docs)*1e6)
	o.set("p50_ms", benchkit.Percentile(latencyMS, 50))
	o.set("p90_ms", benchkit.Percentile(latencyMS, 90))
	o.set("lat.p99_ms", tail.Value)
	o.notes["throughput"] = fmt.Sprintf("closed loop, %d callers that wait for their reply: %d requests, %d documents in %.2f s; latency is each caller's wait, p%.2f is %.3f ms with %d samples beyond it",
		conns, tail.N, docs, elapsed.Seconds(), tail.Percentile, tail.Value, tail.Beyond)
}

// onlineEndToEnd is the whole of an end-to-end run: saturation for all
// the measured seconds. Latency under a fixed arrival rate is the
// traced run's business (pacedPhase): on the shared 2-core sandbox it
// swings by ±30% with the neighbours, too much to put a bound on.
func onlineEndToEnd(rc *runConfig, o *outcome, srv *server, lg *loadgen, conns int) error {
	sat := satPhase(o, srv, rc.window(1), conns, lg.do)
	if sat.Units == 0 {
		return fmt.Errorf("saturation phase answered no documents:\n%s", srv.logText())
	}
	reportSat(o, conns, sat.Units, sat.Elapsed, sat.srvCPU, sat.latencyMS)
	return nil
}

// pacedPhase runs the open loop at the workload's frozen rate and
// reports latency from the due instant, with how late the generator ran.
func pacedPhase(o *outcome, kind onlineKind, d time.Duration, conns int, op func(int, int) (int, bool)) pacedStats {
	samples := benchkit.OpenLoop(benchkit.WallClock{}, kind.pacedRate, d, conns,
		func(w, i int) bool { _, ok := op(w, i); return ok })
	st := summarisePaced(samples)
	o.attempted += int64(len(samples))
	o.fail(st.failed, "paced phase: %d of %d requests failed", st.failed, len(samples))
	o.set("paced.p50_ms", st.p50)
	o.set("paced.p90_ms", st.p90)
	o.set("paced.p99_ms", st.tail.Value)
	o.set("loadgen.late_p99_ms", st.lateP99MS)
	o.set("loadgen.late_share", st.lateShare)
	o.set("loadgen.from_send_p50_ms", st.fromSendP50)
	o.notes["paced"] = fmt.Sprintf("open loop at %g req/s of %d documents on %d connections, timed from the due instant: %d samples; p%.2f is %.3f ms with %d samples beyond it; %.2f%% sent more than %v late; achieved %.1f req/s",
		kind.pacedRate, kind.batchDocs, conns, st.tail.N, st.tail.Percentile, st.tail.Value, st.tail.Beyond, 100*st.lateShare, lateThreshold, st.achievedRate)
	return st
}

// onlineTraced is the traced run: saturation slices with and without a
// span per request (the difference is the tracing overhead), the paced
// open loop, then the layer replay.
func onlineTraced(ctx context.Context, rc *runConfig, kind onlineKind, o *outcome, srv *server, lg *loadgen, m *models, conns int) error {
	tr := benchkit.NewTrace()
	var reqID atomic.Int64
	traced := func(w, i int) (int, bool) {
		start := tr.Since()
		n, ok := lg.do(w, i)
		tr.Add("request", 0, int(reqID.Add(1)), start, tr.Since())
		return n, ok
	}
	var units [2]int64
	var elapsed [2]time.Duration
	var srvCPU, genCPU float64
	var latencyMS []float64
	slice := rc.window(tracedSatShare) / tracedSatSlices
	for s := 0; s < tracedSatSlices; s++ {
		op, which := lg.do, 0
		if s%2 == 1 {
			op, which = traced, 1
		}
		sat := satPhase(o, srv, slice, conns, op)
		units[which] += sat.Units
		elapsed[which] += sat.Elapsed
		srvCPU += sat.srvCPU
		genCPU += sat.genCPU
		latencyMS = append(latencyMS, sat.latencyMS...)
	}
	if units[0] == 0 || units[1] == 0 {
		return fmt.Errorf("saturation phase answered no documents:\n%s", srv.logText())
	}
	plain := float64(units[0]) / elapsed[0].Seconds()
	withSpans := float64(units[1]) / elapsed[1].Seconds()
	o.set("trace.overhead_pct", 100*(plain-withSpans)/plain)
	docs := units[0] + units[1]
	o.set("serve.cpu_s_per_kdoc", srvCPU/float64(docs)*1000)
	o.set("loadgen.cpu_s_per_kdoc", genCPU/float64(docs)*1000)
	// The end-to-end figures of these shorter slices go to the report
	// file for reference; a traced run's result line carries the
	// per-layer metrics only.
	reportSat(o, conns, docs, elapsed[0]+elapsed[1], srvCPU, latencyMS)

	st := pacedPhase(o, kind, rc.window(tracedPacedShare), conns, traced)
	if err := layerReplay(ctx, rc, kind, o, lg, m, tr, st.p50); err != nil {
		return err
	}
	return rc.writeTrace(o, kind.name, tr)
}
