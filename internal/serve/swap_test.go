package serve

// Hot-swap certification, run under -race by check.sh: a seeded swap
// storm between two model generations under concurrent load and planned
// stage panics loses zero requests, and every response, single or batch, is
// scored wholly by a single generation — every (CTH, Dox) pair equals
// that generation's pure golden function, and the X-Model-Generation
// header and every model_generation field name it. A response mixing
// generations would match neither golden pair.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harassrepro/internal/core"
	"harassrepro/internal/obs"
	"harassrepro/internal/resilience"
)

// genScore is the deterministic per-generation golden function: two
// generations score the same text differently, so which model scored a
// document is recoverable from the response alone.
func genScore(gen uint64, text string) (cth, dox float64) {
	h := 14695981039346656037 + gen*0x9e3779b97f4a7c15
	for i := 0; i < len(text); i++ {
		h ^= uint64(text[i])
		h *= 1099511628211 + gen
	}
	return float64(h%1000) / 1000, float64(h%97) / 97
}

// genBackend scores every document with genScore(gen, text): one fake
// versioned model artifact per generation.
type genBackend struct {
	gen   uint64
	delay time.Duration
}

func (g *genBackend) Runner(opts core.StreamOptions) *resilience.Runner[core.StreamDoc] {
	return stageRunner(opts, resilience.Stage[core.StreamDoc]{
		Name: "gen-score",
		Fn: func(ctx context.Context, _ int, sd *core.StreamDoc) error {
			if err := pause(ctx, g.delay); err != nil {
				return err
			}
			sd.CTH, sd.Dox = genScore(g.gen, sd.Text)
			return nil
		},
	})
}

func TestHotSwapStormNoLossNoTornReads(t *testing.T) {
	before := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	m1 := &Model{Backend: &genBackend{gen: 1}, Generation: 1, Seed: 101}
	m2 := &Model{Backend: &genBackend{gen: 2}, Generation: 2, Seed: 202}
	plan := panicPlan{seed: 13, rate: 0.2}
	s := New(Config{
		Model:          m1,
		QueueDepth:     96,
		RequestTimeout: 10 * time.Second,
		StageWrap:      plan.stageWrap,
		Metrics:        reg,
	})
	ts := newHTTPFront(t, s)

	// Swap storm: alternate the two generations for the whole load run.
	stopSwaps := make(chan struct{})
	swapsDone := make(chan struct{})
	go func() {
		defer close(swapsDone)
		models := [2]*Model{m2, m1}
		for i := 0; ; i++ {
			select {
			case <-stopSwaps:
				return
			default:
			}
			if err := s.SwapModel(models[i%2]); err != nil {
				t.Errorf("swap %d: %v", i, err)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	const clients, perClient, batchEvery, batchDocs = 8, 40, 4, 6
	var (
		sent    atomic.Int64
		okCount atomic.Int64
		genSeen [3]atomic.Int64
		mu      sync.Mutex
		bad     []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		bad = append(bad, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	post := func(client, n int) {
		texts := stormTexts("swap-storm", client, n, batchEvery, batchDocs)
		sent.Add(1)
		results, hdr, err := scoreOver(ts, fmt.Sprintf("c%d-%d", client, n), texts)
		if err != nil {
			fail("req %d-%d: %v", client, n, err)
			return
		}
		// One generation per response: the header names it, every
		// document carries it, and every score pair is that generation's
		// golden pair — a document half-scored by each model, or a batch
		// that straddled a swap, could not pass.
		gen, err := strconv.ParseUint(hdr.Get("X-Model-Generation"), 10, 64)
		if err != nil || (gen != 1 && gen != 2) {
			fail("req %d-%d: X-Model-Generation %q", client, n, hdr.Get("X-Model-Generation"))
			return
		}
		for i, res := range results {
			if res.ModelGen != gen {
				fail("req %d-%d doc %d: model_generation %d under header %d", client, n, i, res.ModelGen, gen)
				return
			}
			if plan.hits("gen-score", texts[i]) {
				if res.Status != "quarantined" || !strings.Contains(res.Error, planned) {
					fail("req %d-%d doc %d: %s %q, want quarantined by its planned panic", client, n, i, res.Status, res.Error)
					return
				}
				continue
			}
			if c, d := genScore(gen, texts[i]); res.Status != "ok" || res.CTH != c || res.Dox != d {
				fail("req %d-%d doc %d: %s (%v,%v) != generation %d golden (%v,%v)", client, n, i, res.Status, res.CTH, res.Dox, gen, c, d)
				return
			}
		}
		genSeen[gen].Add(1)
		okCount.Add(1)
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for n := 0; n < perClient; n++ {
				post(client, n)
			}
		}(c)
	}
	wg.Wait()
	close(stopSwaps)
	<-swapsDone
	for _, b := range bad {
		t.Error(b)
	}

	// Zero lost requests: exactly one good answer each.
	if okCount.Load() != sent.Load() {
		t.Errorf("good answers = %d, want %d", okCount.Load(), sent.Load())
	}
	// The storm actually interleaved: both generations served traffic
	// and the panic plan fired.
	if genSeen[1].Load() == 0 || genSeen[2].Load() == 0 {
		t.Errorf("generation mix = gen1:%d gen2:%d, want both > 0", genSeen[1].Load(), genSeen[2].Load())
	}
	if panics := counterSum(reg.Snapshot(), "pipeline_stage_panics_total"); panics == 0 {
		t.Error("panic plan never fired during the storm")
	}

	// A request admitted after SwapModel returns scores on the new model.
	if err := s.SwapModel(m2); err != nil {
		t.Fatalf("final swap: %v", err)
	}
	if got := s.ActiveModel().Generation; got != 2 {
		t.Fatalf("ActiveModel().Generation = %d, want 2", got)
	}
	for i := 0; i < 10; i++ {
		text := fmt.Sprintf("post-storm convergence probe %d", i)
		code, body, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score", fmt.Sprintf(`{"text":%q}`, text))
		if code != http.StatusOK {
			t.Fatalf("post-storm score = %d body %s", code, body)
		}
		var res ScoreResult
		if err := json.Unmarshal([]byte(body), &res); err != nil {
			t.Fatal(err)
		}
		if c2, d2 := genScore(2, text); res.ModelGen != 2 || (res.Status == "ok" && (res.CTH != c2 || res.Dox != d2)) {
			t.Errorf("post-storm response = gen %d %s (%v,%v), want gen 2 (%v,%v)", res.ModelGen, res.Status, res.CTH, res.Dox, c2, d2)
		}
	}

	// Swap accounting: the gauge names the active generation and every
	// completed storm swap was counted exactly once.
	snap := reg.Snapshot()
	if gen := counterValue(snap, "serve_model_generation"); gen != 2 {
		t.Errorf("serve_model_generation = %v, want 2", gen)
	}
	if swaps := counterValue(snap, "serve_model_swaps_total"); swaps < 3 {
		t.Errorf("serve_model_swaps_total = %v, want a storm (>= 3)", swaps)
	}

	// Queue accounting converged.
	if st := s.Stats(); st.Queued != 0 || st.InFlight != 0 {
		t.Errorf("post-storm stats = %+v, want drained", st)
	}

	shutdownServer(t, s, ts)
	waitForGoroutines(t, before)
}

func TestSwapModelIdempotentUnderConcurrency(t *testing.T) {
	reg := obs.NewRegistry()
	m1 := &Model{Backend: &genBackend{gen: 1}, Generation: 1}
	m2 := &Model{Backend: &genBackend{gen: 2}, Generation: 2}
	s := New(Config{Model: m1, Metrics: reg})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.SwapModel(m2); err != nil {
				t.Errorf("SwapModel: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := s.ActiveModel().Generation; got != 2 {
		t.Fatalf("generation = %d, want 2", got)
	}
	// Four racing swaps to the same generation apply exactly once.
	if swaps := counterValue(reg.Snapshot(), "serve_model_swaps_total"); swaps != 1 {
		t.Errorf("serve_model_swaps_total = %v, want 1", swaps)
	}
	if err := s.SwapModel(nil); err == nil {
		t.Error("SwapModel(nil) accepted")
	}
}

// fixedThresholds is a Thresholder with one global threshold pair.
type fixedThresholds struct{ cth, dox float64 }

func (f fixedThresholds) CTHThreshold(string) float64 { return f.cth }
func (f fixedThresholds) DoxThreshold(string) float64 { return f.dox }

func TestShadowDecisionFlagsStrictlyAboveThreshold(t *testing.T) {
	c, d := genScore(1, "shadow sample 3")
	if c <= 0 || d <= 0 || c >= 1 || d >= 1 {
		t.Fatalf("genScore = %v, %v; want both inside (0, 1)", c, d)
	}
	m := &Model{Thresholds: fixedThresholds{c, d}}
	if got := decide(m, "boards", c, d); got != 0 {
		t.Errorf("scores equal to their thresholds decide %02b, want 00 (flag only above)", got)
	}
	if got := decide(m, "boards", math.Nextafter(c, 1), math.Nextafter(d, 1)); got != 3 {
		t.Errorf("scores just above their thresholds decide %02b, want 11", got)
	}
}

func TestShadowScoringDivergenceAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	m1 := &Model{Backend: &genBackend{gen: 1}, Generation: 1, Thresholds: fixedThresholds{0.5, 0.5}}
	m2 := &Model{Backend: &genBackend{gen: 2}, Generation: 2, Thresholds: fixedThresholds{0.5, 0.5}}
	s := New(Config{Model: m1, Metrics: reg})
	ts := newHTTPFront(t, s)
	defer shutdownServer(t, s, ts)

	if err := s.SetShadow(nil, 1); err == nil {
		t.Fatal("SetShadow(nil) accepted")
	}
	if err := s.SetShadow(m2, 1.0); err != nil {
		t.Fatal(err)
	}

	const docs = 40
	flips, maxDelta := 0, 0.0
	for i := 0; i < docs; i++ {
		text := fmt.Sprintf("shadow sample %d", i)
		code, body, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score", fmt.Sprintf(`{"text":%q}`, text))
		if code != http.StatusOK {
			t.Fatalf("doc %d: status %d body %s", i, code, body)
		}
		// Expected divergence from the pure golden functions.
		c1, d1 := genScore(1, text)
		c2, d2 := genScore(2, text)
		if (c1 > 0.5) != (c2 > 0.5) || (d1 > 0.5) != (d2 > 0.5) {
			flips++
		}
		delta := c1 - c2
		if delta < 0 {
			delta = -delta
		}
		if dd := d1 - d2; dd > delta {
			delta = dd
		} else if -dd > delta {
			delta = -dd
		}
		if delta > maxDelta {
			maxDelta = delta
		}
	}
	// Rate 1.0 samples everything; wait for the async worker to drain.
	var st ShadowStats
	waitFor(t, 5*time.Second, func() bool {
		var ok bool
		st, ok = s.ShadowStats()
		return ok && st.Docs+st.Dropped >= docs
	})
	if st.Generation != 2 {
		t.Errorf("shadow generation = %d, want 2", st.Generation)
	}
	if st.Docs == 0 {
		t.Fatalf("shadow scored nothing: %+v", st)
	}
	if st.MeanDelta <= 0 || st.MaxDelta <= 0 || st.MaxDelta > maxDelta+1e-9 {
		t.Errorf("deltas = mean %v max %v (offline max %v), want positive and bounded", st.MeanDelta, st.MaxDelta, maxDelta)
	}
	if flips > 0 && st.Dropped == 0 && int(st.LabelFlips) > flips {
		t.Errorf("label flips = %d, offline bound %d", st.LabelFlips, flips)
	}
	snap := reg.Snapshot()
	if got := counterValue(snap, "serve_shadow_docs_total"); got != float64(st.Docs) {
		t.Errorf("serve_shadow_docs_total = %v, stats %d", got, st.Docs)
	}

	s.ClearShadow()
	if _, ok := s.ShadowStats(); ok {
		t.Error("ShadowStats still active after ClearShadow")
	}
}

// captureSink records feedback batches.
type captureSink struct {
	mu    sync.Mutex
	items []FeedbackItem
}

func (c *captureSink) AddFeedback(items []FeedbackItem) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items = append(c.items, items...)
	return nil
}

func TestFeedbackEndpoint(t *testing.T) {
	sink := &captureSink{}
	reg := obs.NewRegistry()
	s := New(Config{Backend: &genBackend{gen: 1}, Feedback: sink, Metrics: reg})
	ts := newHTTPFront(t, s)
	defer shutdownServer(t, s, ts)

	code, body, _ := postJSON(t, ts.Client(), ts.URL+"/v1/feedback",
		`[{"platform":"boards","text":"go after this user","task":"cth","label":true,"generation":1},
		  {"text":"   ","label":false},
		  {"platform":"video","text":"benign clip comment","label":false}]`)
	if code != http.StatusAccepted {
		t.Fatalf("status = %d body %s, want 202", code, body)
	}
	if !strings.Contains(body, `"accepted":2`) {
		t.Errorf("body = %s, want accepted:2 (blank text dropped)", body)
	}
	sink.mu.Lock()
	n := len(sink.items)
	first := FeedbackItem{}
	if n > 0 {
		first = sink.items[0]
	}
	sink.mu.Unlock()
	if n != 2 || first.Platform != "boards" || !first.Label || first.Generation != 1 {
		t.Errorf("sink got %d items, first %+v", n, first)
	}
	if got := counterValue(reg.Snapshot(), "serve_feedback_total"); got != 2 {
		t.Errorf("serve_feedback_total = %v, want 2", got)
	}

	for _, bad := range []string{`not json`, `[]`, `[{"text":""}]`, `[{"text":"x","task":"Dox"}]`} {
		code, _, _ := postJSON(t, ts.Client(), ts.URL+"/v1/feedback", bad)
		if code != http.StatusBadRequest {
			t.Errorf("feedback %q = %d, want 400", bad, code)
		}
	}
	code, body, _ = postJSON(t, ts.Client(), ts.URL+"/v1/feedback", `[{"text":"a","task":"dox"},{"text":"b","task":"doxx"}]`)
	if code != http.StatusBadRequest || !strings.Contains(body, "item 1") || !strings.Contains(body, "doxx") {
		t.Errorf("unknown task = %d %s, want 400 naming item 1 and its value", code, body)
	}
	sink.mu.Lock()
	n = len(sink.items)
	sink.mu.Unlock()
	if n != 2 {
		t.Errorf("sink holds %d items after rejected batches, want 2", n)
	}
}

func TestHealthzReportsModelIdentity(t *testing.T) {
	m := &Model{Backend: &genBackend{gen: 3}, Generation: 3, Seed: 77}
	s := New(Config{Model: m})
	ts := newHTTPFront(t, s)
	defer shutdownServer(t, s, ts)

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var hb healthBody
		derr := json.NewDecoder(resp.Body).Decode(&hb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || derr != nil {
			t.Fatalf("%s = %d (%v)", path, resp.StatusCode, derr)
		}
		if hb.ModelGeneration != 3 || hb.TrainingSeed != 77 {
			t.Errorf("%s body = %+v, want generation 3 seed 77", path, hb)
		}
	}
}
