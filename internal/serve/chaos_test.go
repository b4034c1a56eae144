package serve

// Fault certification for the synchronous scoring path, run under -race
// by check.sh: under a seeded per-document panic plan every request is
// answered exactly once, every document the plan spares is scored
// bit-identically to a fault-free run, and a fault's blast radius is the
// document that ran into it.

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harassrepro/internal/core"
	"harassrepro/internal/obs"
	"harassrepro/internal/resilience"
)

// goldenScore is the deterministic text-derived score the fault tests
// compare against: a faulted run must produce exactly these values for
// every OK document.
func goldenScore(text string) (cth, dox float64) {
	h := 0
	for _, r := range text {
		h = h*31 + int(r)
	}
	if h < 0 {
		h = -h
	}
	return float64(h%1000) / 1000, float64(h%97) / 97
}

// goldenBackend scores every document as a pure function of its text.
type goldenBackend struct {
	delay time.Duration
}

func (g *goldenBackend) Runner(opts core.StreamOptions) *resilience.Runner[core.StreamDoc] {
	return stageRunner(opts, resilience.Stage[core.StreamDoc]{
		Name: "golden-score",
		Fn: func(ctx context.Context, _ int, sd *core.StreamDoc) error {
			if err := pause(ctx, g.delay); err != nil {
				return err
			}
			sd.CTH, sd.Dox = goldenScore(sd.Text)
			return nil
		},
	})
}

// panicPlan makes a wrapped stage panic, after doing its work, on the
// documents whose (seed, stage, text) hash falls under rate. It keys on
// the text, not the runner index: the server numbers documents in
// arrival order, which concurrent clients do not fix, and the text lets
// each client tell which of its documents the plan hits.
type panicPlan struct {
	seed uint64
	rate float64
}

func (p panicPlan) hits(stage, text string) bool {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%s", p.seed, stage, text)
	return float64(h.Sum64()%10000) < p.rate*10000
}

// planned is the message of every panic the plan injects.
const planned = "planned panic"

// stageWrap adapts the plan to Config.StageWrap.
func (p panicPlan) stageWrap(st resilience.Stage[core.StreamDoc]) resilience.Stage[core.StreamDoc] {
	inner := st.Fn
	st.Fn = func(ctx context.Context, index int, sd *core.StreamDoc) error {
		err := inner(ctx, index, sd)
		if p.hits(st.Name, sd.Text) {
			panic(planned)
		}
		return err
	}
	return st
}

// counterSum adds up every series of one counter family.
func counterSum(snap obs.Snapshot, name string) float64 {
	var sum float64
	for _, m := range snap.Metrics {
		if m.Name == name && m.Value != nil {
			sum += float64(*m.Value)
		}
	}
	return sum
}

// counterValue returns a counter's (or gauge's) value in snap, or 0
// when it is absent.
func counterValue(snap obs.Snapshot, name string, labels ...obs.Label) float64 {
	for _, m := range snap.Metrics {
		if m.Name == name && slices.Equal(m.Labels, labels) && m.Value != nil {
			return float64(*m.Value)
		}
	}
	return 0
}

// scoreOver posts texts as one request — /v1/score for a single document,
// a JSONL /v1/score/batch otherwise — and returns one decoded result per
// text with the response header. Anything but a complete 200 is an error.
func scoreOver(ts *httptest.Server, id string, texts []string) ([]ScoreResult, http.Header, error) {
	url, body := ts.URL+"/v1/score", fmt.Sprintf(`{"id":%q,"text":%q}`, id, texts[0])
	if len(texts) > 1 {
		url, body = ts.URL+"/v1/score/batch", ""
		for i, text := range texts {
			body += fmt.Sprintf("{\"id\":\"%s-%d\",\"text\":%q}\n", id, i, text)
		}
	}
	resp, err := ts.Client().Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, nil, fmt.Errorf("transport error %w", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d body %s", resp.StatusCode, raw)
	}
	results := make([]ScoreResult, 1)
	if len(texts) == 1 {
		err = json.Unmarshal(raw, &results[0])
	} else {
		var br BatchResponse
		err = json.Unmarshal(raw, &br)
		results = br.Results
	}
	if err != nil || len(results) != len(texts) {
		return nil, nil, fmt.Errorf("%d results for %d documents (%v): %s", len(results), len(texts), err, raw)
	}
	return results, resp.Header, nil
}

// stormTexts is request n of a client in the load tests: every
// batchEvery-th request is a batch of batchDocs documents.
func stormTexts(label string, client, n, batchEvery, batchDocs int) []string {
	if n%batchEvery != batchEvery-1 {
		return []string{fmt.Sprintf("%s doc %d-%d", label, client, n)}
	}
	texts := make([]string, batchDocs)
	for i := range texts {
		texts[i] = fmt.Sprintf("%s doc %d-%d-%d", label, client, n, i)
	}
	return texts
}

func TestChaosCertificationNoLossNoDoubleScore(t *testing.T) {
	before := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	plan := panicPlan{seed: 7, rate: 0.08}
	s := New(Config{
		Backend:        &goldenBackend{},
		QueueDepth:     96,
		RequestTimeout: 10 * time.Second,
		StageWrap:      plan.stageWrap,
		Metrics:        reg,
	})
	ts := newHTTPFront(t, s)

	const clients, perClient, batchEvery, batchDocs = 8, 40, 5, 4
	var (
		sentDocs    atomic.Int64
		okDocs      atomic.Int64
		quarantined atomic.Int64
		mu          sync.Mutex
		bad         []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		bad = append(bad, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	// check verifies one answered document against the plan and the
	// fault-free run: exactly the planned documents are quarantined, and
	// say why.
	check := func(res ScoreResult, text string) {
		hit := plan.hits("golden-score", text)
		switch {
		case res.Status == "ok" && !hit:
			if c, d := goldenScore(text); res.CTH != c || res.Dox != d {
				fail("%s: scores (%v,%v) != golden (%v,%v)", res.ID, res.CTH, res.Dox, c, d)
				return
			}
			okDocs.Add(1)
		case res.Status == "quarantined" && hit:
			if !strings.Contains(res.Error, planned) {
				fail("%s: quarantined by something other than the plan: %s", res.ID, res.Error)
				return
			}
			quarantined.Add(1)
		default:
			fail("%s: status %q, planned panic %v", res.ID, res.Status, hit)
		}
	}
	post := func(client, n int) {
		texts := stormTexts("fault", client, n, batchEvery, batchDocs)
		sentDocs.Add(int64(len(texts)))
		// No shedding is configured to bite and nothing is shared that
		// could be lost: every answer is a 200.
		results, _, err := scoreOver(ts, fmt.Sprintf("c%d-%d", client, n), texts)
		if err != nil {
			fail("req %d-%d: %v", client, n, err)
			return
		}
		for i := range results {
			check(results[i], texts[i])
		}
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
	for _, b := range bad {
		t.Error(b)
	}

	// Exactly one terminal answer per document, here and in the metrics:
	// a double count would overshoot, a lost document failed above.
	if got := okDocs.Load() + quarantined.Load(); got != sentDocs.Load() {
		t.Errorf("answered documents = %d (ok %d + quarantined %d), want %d", got, okDocs.Load(), quarantined.Load(), sentDocs.Load())
	}
	snap := reg.Snapshot()
	if got := counterSum(snap, "serve_docs_total"); int64(got) != sentDocs.Load() {
		t.Errorf("serve_docs_total = %v, want %d", got, sentDocs.Load())
	}
	if got := counterValue(snap, "serve_docs_total", obs.L("status", "quarantined")); int64(got) != quarantined.Load() {
		t.Errorf("serve_docs_total{quarantined} = %v, clients saw %d", got, quarantined.Load())
	}

	// The plan actually bit, and each planned document panicked once.
	if panics := counterSum(snap, "pipeline_stage_panics_total"); quarantined.Load() == 0 || int64(panics) != quarantined.Load() {
		t.Errorf("%v stage panics for %d quarantined documents, want as many and more than 0", panics, quarantined.Load())
	}
	for _, m := range snap.Metrics {
		if m.Name == "serve_requests_total" && m.Value != nil && *m.Value != 0 && !strings.Contains(labelsOf(m), "code=200") {
			t.Errorf("serve_requests_total{%s} = %v, want only 200s", labelsOf(m), float64(*m.Value))
		}
	}

	// Queue accounting converged.
	if st := s.Stats(); st.Queued != 0 || st.InFlight != 0 {
		t.Errorf("post-load stats = %+v, want drained", st)
	}
	if agg := counterValue(snap, "serve_queue_depth"); agg != 0 {
		t.Errorf("serve_queue_depth at quiescence = %v, want 0", agg)
	}

	shutdownServer(t, s, ts)
	waitForGoroutines(t, before)
}

// labelsOf renders a metric's labels for messages and matching.
func labelsOf(m obs.Metric) string {
	var parts []string
	for _, l := range m.Labels {
		parts = append(parts, l.Name+"="+l.Value)
	}
	return strings.Join(parts, ",")
}

// A stall is a stage that outlives the request deadline. It ends as its
// own request's 504 and, while it lasts, delays nobody else: the scoring
// stages share no queue and no lock across requests.
func TestInjectedStallEndsAt504AndDelaysNobody(t *testing.T) {
	const deadline = 750 * time.Millisecond
	entered := make(chan struct{}, 1)
	s := New(Config{
		Backend:        &goldenBackend{},
		RequestTimeout: deadline,
		StageWrap: func(st resilience.Stage[core.StreamDoc]) resilience.Stage[core.StreamDoc] {
			healthy := st.Fn
			st.Fn = func(ctx context.Context, index int, sd *core.StreamDoc) error {
				if strings.Contains(sd.Text, "wedge") {
					entered <- struct{}{}
					if err := pause(ctx, time.Hour); err != nil {
						return err
					}
				}
				return healthy(ctx, index, sd)
			}
			return st
		},
	})
	ts := newHTTPFront(t, s)
	defer shutdownServer(t, s, ts)

	wedged := make(chan int, 1)
	start := time.Now()
	go func() {
		code, _, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score", `{"text":"wedge this request"}`)
		wedged <- code
	}()
	<-entered

	// Healthy neighbours, while the stall holds its slot.
	for i := 0; i < 20; i++ {
		text := fmt.Sprintf("healthy neighbour %d", i)
		t0 := time.Now()
		code, body, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score", fmt.Sprintf(`{"text":%q}`, text))
		if code != http.StatusOK {
			t.Fatalf("neighbour %d: status %d body %s", i, code, body)
		}
		if took := time.Since(t0); took > deadline/3 {
			t.Errorf("neighbour %d took %v beside a stalled request", i, took)
		}
		var res ScoreResult
		if err := json.Unmarshal([]byte(body), &res); err != nil {
			t.Fatal(err)
		}
		if c, d := goldenScore(text); res.CTH != c || res.Dox != d {
			t.Errorf("neighbour %d: scores %+v, want (%v,%v)", i, res, c, d)
		}
	}
	select {
	case code := <-wedged:
		t.Fatalf("stalled request already answered %d after %v: the neighbours did not run beside it", code, time.Since(start))
	default:
	}
	if st := s.Stats(); st.InFlight != 1 || st.Queued != 1 {
		t.Errorf("stats during the stall = %+v, want exactly the stalled request", st)
	}

	if code := <-wedged; code != http.StatusGatewayTimeout {
		t.Errorf("stalled request = %d, want 504", code)
	}
	if took := time.Since(start); took < deadline {
		t.Errorf("stalled request answered after %v, before its %v deadline", took, deadline)
	}
	if st := s.Stats(); st.InFlight != 0 || st.Queued != 0 || len(s.slots) != 0 {
		t.Errorf("after the 504: stats %+v, %d scoring slots held; want everything returned", st, len(s.slots))
	}
}

func TestStatsQueueAccountingMatchesAdmission(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{
		Backend:        &goldenBackend{delay: 50 * time.Millisecond},
		QueueDepth:     8,
		MaxInFlight:    32,
		RequestTimeout: 10 * time.Second,
		Metrics:        reg,
	})
	ts := newHTTPFront(t, s)
	defer shutdownServer(t, s, ts)

	if st := s.Stats(); st.QueueCapacity != 8 {
		t.Fatalf("stats = %+v, want capacity 8", st)
	}

	done := make(chan int, 6)
	for i := 0; i < 6; i++ {
		go func(i int) {
			code, _, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score", fmt.Sprintf(`{"text":"slow %d"}`, i))
			done <- code
		}(i)
	}
	// While work is admitted, the gauge is what Stats reports and both
	// respect the bound the 429 decision is taken against.
	waitFor(t, 2*time.Second, func() bool { return s.Stats().Queued == 6 })
	if st := s.Stats(); st.InFlight != 6 || st.Queued > st.QueueCapacity {
		t.Errorf("stats under load = %+v", st)
	}
	if agg := counterValue(reg.Snapshot(), "serve_queue_depth"); agg < 1 || agg > 6 {
		t.Errorf("serve_queue_depth under load = %v, want within 1..6", agg)
	}
	// A batch that does not fit beside them is shed; one that fits is not.
	code, body, hdr := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", batchBody(8, "too many"))
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Errorf("batch over the remaining depth: status %d (Retry-After %q) body %s", code, hdr.Get("Retry-After"), body)
	}
	for i := 0; i < 6; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("request %d = %d, want 200", i, code)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return s.Stats().Queued == 0 })
	if agg := counterValue(reg.Snapshot(), "serve_queue_depth"); agg != 0 {
		t.Errorf("serve_queue_depth at quiescence = %v", agg)
	}
}

// newHTTPFront wraps a server in an httptest front end without
// registering cleanup (tests that assert goroutine counts manage
// shutdown themselves).
func newHTTPFront(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	return httptest.NewServer(s.Handler())
}

// shutdownServer is the common deferred teardown.
func shutdownServer(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown = %v", err)
	}
	ts.Close()
}

// waitForGoroutines asserts the goroutine count settles back near the
// baseline: no leaked handler, shadow or HTTP goroutines.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: before=%d after=%d\n%s", before, now, buf[:n])
		}
		time.Sleep(25 * time.Millisecond)
	}
}
