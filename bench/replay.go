package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"harassrepro/bench/benchkit"
	"harassrepro/internal/core"
	"harassrepro/internal/corpus"
	"harassrepro/internal/obs"
	"harassrepro/internal/serve"
)

// replayed is one request's cost at every depth of the online path.
type replayed struct {
	roundtrip, handler, decode, encode, scoreBatch time.Duration
	stages                                         stageCost
}

// layerReplay pushes the same request bodies, one at a time, through
// each depth of the online path — real harassd over one connection, the
// in-process serve handler with harassd's configuration, ScoreBatch at
// one worker, then every stage function alone — and lays the measured
// durations out as nested spans (addWaterfall), so a layer's self time
// is its span minus its children's. The depths are interleaved a chunk
// of requests at a time: the sandbox's speed drifts by tens of percent
// over a run, and a parent measured a few seconds before its children
// would not add up.
func layerReplay(ctx context.Context, rc *runConfig, kind onlineKind, o *outcome, lg *loadgen, m *models, tr *benchkit.Trace, pacedP50MS float64) error {
	// The serve handler in this process, configured as harassd
	// configures it, called without a network.
	inproc := serve.New(serve.Config{
		Model:       &serve.Model{Backend: m.det, Generation: modelGeneration, Seed: trainSeed, Thresholds: m.det},
		Seed:        trainSeed,
		Annotate:    kind.annotate,
		MaxInFlight: 256, QueueDepth: 1024, MaxBatchDocs: 4096,
		MaxBodyBytes: 32 << 20, MaxLineBytes: 1 << 20, RequestTimeout: 30 * time.Second,
		Metrics: obs.NewRegistry(),
	})
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		inproc.Shutdown(sctx)
	}()
	h := inproc.Handler()
	kit, err := newStageKit(m)
	if err != nil {
		return err
	}

	// A chunk holds enough documents that ScoreBatch's runner start-up
	// is spread thin (a server shard keeps its runner alive between
	// requests).
	perChunk := max(1, replayChunkDocs/kind.batchDocs)
	var reps []replayed
	var runnerSelf, batchAllocs []float64
	var handlerMallocs uint64
	var total stageCost
	var sbTotal, decodeTotal, sumRoot time.Duration
	var sbDocs int
	var bodyBytes int64
	budget := rc.window(replayShare)
	for t0 := time.Now(); len(reps) < maxReplayRequests && (len(reps) == 0 || time.Since(t0) < budget); {
		lo := len(reps)
		chunk := make([]replayed, perChunk)
		reqAt := func(i int) *onlineRequest { return &lg.reqs[(lo+i)%len(lg.reqs)] }

		// Depth 0: unloaded round trips to the real server.
		for i := range chunk {
			r0 := time.Now()
			_, ok := lg.do(0, lo+i)
			chunk[i].roundtrip = time.Since(r0)
			o.attempted++
			if !ok {
				o.fail(1, "replay request %d failed", lo+i)
			}
		}

		// Depth 1: the handler; then request decode and response encode
		// alone, on the bytes the handler saw and produced.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		encoded := make([][]byte, perChunk)
		for i := range chunk {
			req := reqAt(i)
			hr := httptest.NewRequest(http.MethodPost, kind.path, bytes.NewReader(req.body))
			rec := httptest.NewRecorder()
			r0 := time.Now()
			h.ServeHTTP(rec, hr)
			chunk[i].handler = time.Since(r0)
			o.attempted++
			if err := checkResponse(kind, rec.Code, rec.Header(), rec.Body.Bytes(), req); err != nil {
				o.fail(1, "in-process handler: %v", err)
			}
			encoded[i] = rec.Body.Bytes()
		}
		runtime.ReadMemStats(&after)
		handlerMallocs += after.Mallocs - before.Mallocs
		for i := range chunk {
			req := reqAt(i)
			bodyBytes += int64(len(req.body))
			r0 := time.Now()
			if kind.batchDocs == 1 {
				var sr serve.ScoreRequest
				if err := json.Unmarshal(req.body, &sr); err != nil {
					return err
				}
			} else if _, _, err := corpus.ReadJSONLOpts(bytes.NewReader(req.body), corpus.JSONLOptions{Lenient: true, MaxLineBytes: 1 << 20}); err != nil {
				return err
			}
			chunk[i].decode = time.Since(r0)
			decodeTotal += chunk[i].decode

			var v any = new(serve.BatchResponse)
			if kind.batchDocs == 1 {
				v = new(serve.ScoreResult)
			}
			if err := json.Unmarshal(encoded[i], v); err != nil {
				return err
			}
			r0 = time.Now()
			if err := json.NewEncoder(io.Discard).Encode(v); err != nil {
				return err
			}
			chunk[i].encode = time.Since(r0)
		}

		// Depth 2: ScoreBatch over the chunk's documents at one worker
		// (a request's documents go to one shard, whose runner has one).
		var docs []core.StreamDoc
		for i := range chunk {
			docs = append(docs, reqAt(i).docs...)
		}
		d, allocs, composed, err := scoreBatchCost(ctx, m.det, docs, kind.annotate)
		if err != nil {
			return err
		}
		batchAllocs = append(batchAllocs, allocs)
		sbTotal += d
		sbDocs += len(docs)

		// Depth 3: the stage functions alone. Their scores must equal
		// the composed path's: the replay runs the computation it
		// claims to.
		var chunkStages stageCost
		idx := 0
		for i := range chunk {
			for _, doc := range reqAt(i).docs {
				cth, dox := kit.doc(idx, doc.Text, kind.annotate, &chunk[i].stages)
				o.attempted++
				if it := composed[idx].Item; cth != it.CTH || dox != it.Dox {
					o.fail(1, "stage replay of %s scored cth %v dox %v, composed path %v %v", it.ID, cth, dox, it.CTH, it.Dox)
				}
				idx++
			}
			chunkStages.add(chunk[i].stages)
		}
		total.add(chunkStages)
		stageSum := chunkStages.scoring() + chunkStages.annotate()
		runnerSelf = append(runnerSelf, float64((d-stageSum).Nanoseconds())/float64(len(docs)))
		// The batch's time is shared out by what each request's
		// documents cost in the stages, not by their count.
		for i := range chunk {
			own := chunk[i].stages.scoring() + chunk[i].stages.annotate()
			chunk[i].scoreBatch = time.Duration(float64(d) * float64(own) / float64(stageSum))
		}
		reps = append(reps, chunk...)
		sumRoot += addWaterfall(tr, len(reps)/perChunk, chunk)
	}

	var roundtrip, handler, decode, encode, httpSelf, serveSelf []time.Duration
	for _, r := range reps {
		roundtrip, handler = append(roundtrip, r.roundtrip), append(handler, r.handler)
		decode, encode = append(decode, r.decode), append(encode, r.encode)
		httpSelf = append(httpSelf, max(0, r.roundtrip-r.handler))
		serveSelf = append(serveSelf, max(0, r.handler-r.decode-r.scoreBatch-r.encode))
	}

	o.set("http.roundtrip_us", medianIn(roundtrip, time.Microsecond))
	o.set("http.self_us", medianIn(httpSelf, time.Microsecond))
	o.set("serve.handler_us", medianIn(handler, time.Microsecond))
	o.set("serve.self_us", medianIn(serveSelf, time.Microsecond))
	o.set("serve.decode_us", medianIn(decode, time.Microsecond))
	o.set("serve.encode_us", medianIn(encode, time.Microsecond))
	o.set("serve.allocs_per_req", float64(handlerMallocs)/float64(len(reps)))
	if kind.batchDocs > 1 {
		o.set("corpus.jsonl_decode_mb_per_s", float64(bodyBytes)/1e6/decodeTotal.Seconds())
		o.set("corpus.jsonl_decode_us", float64(decodeTotal.Microseconds())/float64(sbDocs))
	}
	o.set("core.score_batch_ns_per_doc", float64(sbTotal.Nanoseconds())/float64(sbDocs))
	o.set("core.allocs_per_doc", benchkit.Median(batchAllocs))
	o.set("resilience.self_ns_per_doc", max(0, benchkit.Median(runnerSelf)))
	total.report(o, kind.annotate)

	// Self times must add up to the round trips they decompose. A sum
	// above them means a child was measured longer than its parent —
	// double counting — and beyond 10% the waterfall is not to be
	// trusted: the run fails.
	var sumSelf time.Duration
	for name, d := range tr.SelfTimes() {
		if name != "request" {
			sumSelf += d
		}
	}
	excess := 100 * float64(sumSelf-sumRoot) / float64(sumRoot)
	o.set("waterfall.double_count_pct", excess)
	o.attempted++
	if excess > doubleCountLimitPct && !rc.smoke { // a smoke run's timings mean nothing
		o.fail(1, "waterfall: layer self times exceed the round trips by %.1f%%", excess)
	}
	// What the unloaded layers do not explain of a paced request's
	// median: waiting and contention under the paced load.
	if pacedP50MS > 0 {
		o.set("waterfall.online_residual_pct", 100*(pacedP50MS-medianIn(roundtrip, time.Millisecond))/pacedP50MS)
	}
	o.notes["replay"] = fmt.Sprintf("%d requests (%d documents) replayed single-threaded through 4 depths, %d requests at a time", len(reps), sbDocs, perChunk)
	return nil
}

// addWaterfall records one chunk of the replay as a nested span tree —
// each depth's time summed over the chunk's requests, children laid
// end to end inside their parent — and returns the root's duration.
// Summing first matters: two runs of the same request differ by a few
// percent either way, and clipping every request's children to its
// parent would count only the excesses.
func addWaterfall(tr *benchkit.Trace, chunkNo int, chunk []replayed) time.Duration {
	var sum replayed
	for _, r := range chunk {
		sum.roundtrip += r.roundtrip
		sum.handler += r.handler
		sum.decode += r.decode
		sum.encode += r.encode
		sum.scoreBatch += r.scoreBatch
		sum.stages.add(r.stages)
	}
	req := -chunkNo // replayed chunks are numbered below zero, live requests above
	at := tr.Since()
	root := tr.Add("http", 0, req, at, at+sum.roundtrip)
	in := at + max(0, (sum.roundtrip-sum.handler)/2)
	sv := tr.Add("serve", root, req, in, in+sum.handler)
	c := in
	tr.Add("serve.decode", sv, req, c, c+sum.decode)
	c += sum.decode
	sb := tr.Add("core.score_batch", sv, req, c, c+sum.scoreBatch)
	s := c
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"tokenize", sum.stages.tokenize}, {"features", sum.stages.features}, {"model", sum.stages.model},
		{"pii", sum.stages.pii}, {"taxonomy", sum.stages.taxonomy}, {"query", sum.stages.query},
	} {
		if st.d > 0 {
			tr.Add(st.name, sb, req, s, s+st.d)
			s += st.d
		}
	}
	c += sum.scoreBatch
	tr.Add("serve.encode", sv, req, c, c+sum.encode)
	return sum.roundtrip
}
