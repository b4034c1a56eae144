package serve

// httptest-driven tests over a fake backend with controllable latency:
// the fake is one stage on the real resilience.Runner, so admission,
// deadlines and drain are exercised against the same per-document
// machinery production uses, without paying for classifier training.
// The overload test asserts no goroutine leak; the drain test (run
// under -race by check.sh) asserts every accepted request completes
// during Shutdown.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harassrepro/internal/detector"
	"harassrepro/internal/obs"
	"harassrepro/internal/resilience"
)

// stageRunner builds a one-stage runner the way a detector builds its
// own: the server's metrics and stage wrap applied.
func stageRunner(opts detector.StreamOptions, stage resilience.Stage[detector.StreamDoc]) *resilience.Runner[detector.StreamDoc] {
	if opts.StageWrap != nil {
		stage = opts.StageWrap(stage)
	}
	return resilience.NewRunner(resilience.Config[detector.StreamDoc]{
		Describe: func(sd *detector.StreamDoc) string { return sd.ID },
		Metrics:  opts.Metrics,
	}, stage)
}

// pause sleeps d unless ctx ends first.
func pause(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// fakeBackend scores every document with a fixed latency and counts the
// documents it was asked to score.
type fakeBackend struct {
	delay time.Duration
	calls atomic.Int64
}

func (f *fakeBackend) Runner(opts detector.StreamOptions) *resilience.Runner[detector.StreamDoc] {
	return stageRunner(opts, resilience.Stage[detector.StreamDoc]{
		Name: "fake-score",
		Fn: func(ctx context.Context, _ int, sd *detector.StreamDoc) error {
			f.calls.Add(1)
			if err := pause(ctx, f.delay); err != nil {
				return err
			}
			if strings.Contains(sd.Text, "poison") {
				return fmt.Errorf("poison document")
			}
			sd.CTH, sd.Dox = 0.75, 0.25
			return nil
		},
	})
}

// newTestServer builds a server over a fake backend and an httptest
// front end. Cleanup shuts both down.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Backend == nil {
		cfg.Backend = &fakeBackend{}
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // second shutdown in some tests
		ts.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, client *http.Client, url, body string) (int, string, http.Header) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, string(b), resp.Header
}

func TestScoreSingleDocument(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 1})
	code, body, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score", `{"id":"doc-1","text":"hello world"}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	var res ScoreResult
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.ID != "doc-1" || res.Status != "ok" || res.CTH != 0.75 || res.Dox != 0.25 {
		t.Fatalf("result = %+v", res)
	}

	// Missing text is a client error, not a quarantine.
	code, body, _ = postJSON(t, ts.Client(), ts.URL+"/v1/score", `{"text":"  "}`)
	if code != http.StatusBadRequest {
		t.Fatalf("blank text: status = %d, body %s", code, body)
	}
	// A poison document is quarantined in-band.
	code, body, _ = postJSON(t, ts.Client(), ts.URL+"/v1/score", `{"text":"poison pill"}`)
	if code != http.StatusOK {
		t.Fatalf("poison: status = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != "quarantined" || res.Error == "" {
		t.Fatalf("poison result = %+v", res)
	}
}

func TestOverloadShedsWith429AndNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	s := New(Config{
		Backend:        &fakeBackend{delay: 30 * time.Millisecond},
		MaxInFlight:    4,
		QueueDepth:     4,
		RequestTimeout: 10 * time.Second,
		Metrics:        reg,
	})
	ts := httptest.NewServer(s.Handler())

	const clients = 64
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		byCode  = map[int]int{}
		noRetry int
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/score", "application/json",
				strings.NewReader(`{"text":"load test document"}`))
			if err != nil {
				t.Errorf("request failed: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			mu.Lock()
			byCode[resp.StatusCode]++
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				noRetry++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()

	if byCode[http.StatusOK]+byCode[http.StatusTooManyRequests] != clients {
		t.Fatalf("unexpected status codes: %v", byCode)
	}
	if byCode[http.StatusOK] == 0 {
		t.Error("no request succeeded under overload")
	}
	if byCode[http.StatusTooManyRequests] == 0 {
		t.Errorf("no request was shed (codes %v): admission bound not enforced", byCode)
	}
	if noRetry != 0 {
		t.Errorf("%d of the 429 responses lacked Retry-After", noRetry)
	}

	shed := counterValue(reg.Snapshot(), "serve_shed_total")
	if int(shed) != byCode[http.StatusTooManyRequests] {
		t.Errorf("serve_shed_total = %v, want %d", shed, byCode[http.StatusTooManyRequests])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	ts.Close()

	waitForGoroutines(t, before)
}

func TestGracefulDrainCompletesAcceptedRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Backend:        &fakeBackend{delay: 80 * time.Millisecond},
		MaxInFlight:    16,
		QueueDepth:     16,
		RequestTimeout: 10 * time.Second,
	})

	const accepted = 6
	codes := make(chan int, accepted)
	for i := 0; i < accepted; i++ {
		go func() {
			resp, err := ts.Client().Post(ts.URL+"/v1/score", "application/json",
				strings.NewReader(`{"text":"in flight during drain"}`))
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	// Wait until every request is admitted, so Shutdown races real
	// in-flight work.
	waitFor(t, time.Second, func() bool { return s.Stats().InFlight == accepted })

	shutErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutErr <- s.Shutdown(ctx)
	}()
	waitFor(t, time.Second, func() bool { return s.Stats().Draining })

	// A request arriving mid-drain is refused with 503 + Retry-After.
	resp, err := ts.Client().Post(ts.URL+"/v1/score", "application/json",
		strings.NewReader(`{"text":"late arrival"}`))
	if err != nil {
		t.Fatalf("mid-drain request: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("mid-drain status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("mid-drain 503 lacks Retry-After")
	}

	// Every accepted request completes with a real scored response.
	for i := 0; i < accepted; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("accepted request %d finished with %d, want 200", i, code)
		}
	}
	if err := <-shutErr; err != nil {
		t.Errorf("Shutdown = %v, want clean drain", err)
	}
	if got := s.Stats(); got.InFlight != 0 || got.Queued != 0 {
		t.Errorf("post-drain stats = %+v", got)
	}
}

// A drain that runs out of time counts what it abandons and tells it to
// stop: each abandoned request answers 503 at its next document
// boundary instead of scoring on for nobody.
func TestDrainExpiryCountsAndStopsAbandonedRequests(t *testing.T) {
	fake := &fakeBackend{delay: 60 * time.Millisecond}
	s := New(Config{Backend: fake, RequestTimeout: 10 * time.Second})
	ts := newHTTPFront(t, s)
	defer ts.Close()

	type answer struct {
		code int
		hdr  http.Header
	}
	answers := make(chan answer, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, _, hdr := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", batchBody(20, "abandoned doc"))
			answers <- answer{code, hdr}
		}()
	}
	waitFor(t, 2*time.Second, func() bool { return fake.calls.Load() >= 2 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want the drain deadline", err)
	}
	reqs, docs := s.Abandoned()
	if reqs != 2 || docs < 30 || docs > 40 {
		t.Errorf("Abandoned() = %d requests, %d documents; want 2 requests and most of their 40 documents", reqs, docs)
	}
	for i := 0; i < 2; i++ {
		a := <-answers
		if a.code != http.StatusServiceUnavailable || a.hdr.Get("Retry-After") == "" {
			t.Errorf("abandoned request answered %d (Retry-After %q), want 503 with a hint", a.code, a.hdr.Get("Retry-After"))
		}
	}
	if calls := fake.calls.Load(); calls > 8 {
		t.Errorf("abandoned requests scored %d documents after being told to stop", calls)
	}
	if st := s.Stats(); st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("stats after the abandoned requests returned = %+v", st)
	}
}

func TestBatchLenientJSONLReportsQuarantinedLines(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := strings.Join([]string{
		`{"id":"a","text":"first good line"}`,
		`{broken json`,
		`{"id":"b","platform":"gab","text":"second good line"}`,
		``,
		`{"id":"no-text"}`,
		`{"text":"third good line"}`,
	}, "\n")
	resp, err := ts.Client().Post(ts.URL+"/v1/score/batch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("results = %+v", br.Results)
	}
	// Input order preserved; the line-6 document got a line-derived ID.
	if br.Results[0].ID != "a" || br.Results[1].ID != "b" || br.Results[2].ID != "jsonl-00000006" {
		t.Errorf("result IDs = %q %q %q", br.Results[0].ID, br.Results[1].ID, br.Results[2].ID)
	}
	for i, r := range br.Results {
		if r.Status != "ok" || r.CTH != 0.75 {
			t.Errorf("result %d = %+v", i, r)
		}
	}
	if len(br.Quarantined) != 2 || br.Quarantined[0].Line != 2 || br.Quarantined[1].Line != 5 {
		t.Fatalf("quarantined = %+v, want lines 2 and 5", br.Quarantined)
	}
	if br.Quarantined[0].Preview == "" || !strings.Contains(br.Quarantined[1].Error, "missing text") {
		t.Errorf("quarantined detail = %+v", br.Quarantined)
	}
	want := BatchSummary{Docs: 3, OK: 3, BadLines: 2}
	if br.Summary != want {
		t.Errorf("summary = %+v, want %+v", br.Summary, want)
	}
}

func TestBatchJSONArray(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `[{"id":"x","text":"one"},{"id":"empty"},{"id":"y","text":"two"}]`
	code, out, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", body)
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, out)
	}
	var br BatchResponse
	if err := json.Unmarshal([]byte(out), &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 || br.Results[0].ID != "x" || br.Results[1].ID != "y" {
		t.Fatalf("results = %+v", br.Results)
	}
	if len(br.Quarantined) != 1 || br.Quarantined[0].Line != 2 {
		t.Fatalf("quarantined = %+v, want array index 2", br.Quarantined)
	}
}

func TestBatchLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchDocs: 2})
	var sb bytes.Buffer
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&sb, "{\"text\":\"doc %d\"}\n", i)
	}
	code, body, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", sb.String())
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status = %d, body %s", code, body)
	}
	code, body, _ = postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", "")
	if code != http.StatusBadRequest {
		t.Fatalf("empty batch: status = %d, body %s", code, body)
	}
	// All-bad batch still reports its quarantined lines with 200.
	code, body, _ = postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", "{bad\n")
	if code != http.StatusOK || !strings.Contains(body, "quarantined_lines") {
		t.Fatalf("all-bad batch: status = %d, body %s", code, body)
	}
}

func TestHealthzReadyzAndDrainTransition(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	// Liveness stays green through drain; readiness flips.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-drain /healthz = %d, want 200", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain /readyz = %d, want 503", resp.StatusCode)
	}
	code, _, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score", `{"text":"too late"}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-drain score = %d, want 503", code)
	}
}

// A request that hits its deadline stops scoring at the next document
// boundary and has given back every slot it held by the time its 504 is
// written: nothing is scored for nobody.
func TestRequestDeadlineReturns504AndHoldsNothing(t *testing.T) {
	fake := &fakeBackend{delay: 40 * time.Millisecond}
	s, ts := newTestServer(t, Config{Backend: fake, RequestTimeout: 100 * time.Millisecond})

	code, body, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", batchBody(10, "slow doc"))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("batch: status = %d, body %s", code, body)
	}
	if !strings.Contains(body, "of 10 documents unscored") {
		t.Errorf("504 body = %s, want the unscored count", body)
	}
	// postJSON returned, so the 504 has been written.
	if st := s.Stats(); st.Queued != 0 || st.InFlight != 0 {
		t.Errorf("stats after the 504 = %+v, want nothing held", st)
	}
	if got := len(s.slots); got != 0 {
		t.Errorf("%d scoring slots still held after the 504", got)
	}
	calls := fake.calls.Load()
	if calls == 0 || calls >= 10 {
		t.Errorf("fake scored %d of 10 documents, want some but not all", calls)
	}
	time.Sleep(3 * fake.delay)
	if again := fake.calls.Load(); again != calls {
		t.Errorf("fake kept scoring after the 504: %d -> %d calls", calls, again)
	}

	_, slow := newTestServer(t, Config{Backend: &fakeBackend{delay: 300 * time.Millisecond}, RequestTimeout: 30 * time.Millisecond})
	code, body, _ = postJSON(t, slow.Client(), slow.URL+"/v1/score", `{"text":"slower than the deadline"}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("single: status = %d, body %s", code, body)
	}
}

// batchBody builds a JSONL body of n documents.
func batchBody(n int, text string) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "{\"id\":\"d%d\",\"text\":\"%s %d\"}\n", i, text, i)
	}
	return sb.String()
}

// The batch limit is min(MaxBatchDocs, QueueDepth) whatever the core
// count, a batch of exactly the limit is admitted on an idle server,
// and the 413 names the limit and the setting that produced it.
func TestBatchLimitFollowsQueueDepth(t *testing.T) {
	for _, tc := range []struct {
		queueDepth, maxBatchDocs int
		limit                    int
		why                      string
	}{
		{0, 0, 1024, "queue depth 1024 caps max batch docs 4096"}, // the shipped defaults
		{8, 4, 4, "max batch docs 4"},
		{8, 8, 8, "max batch docs 8"},
		{8, 4096, 8, "queue depth 8 caps max batch docs 4096"},
		{1, 0, 1, "queue depth 1 caps max batch docs 4096"},
		{2048, 16, 16, "max batch docs 16"},
	} {
		t.Run(fmt.Sprintf("depth=%d,batch=%d", tc.queueDepth, tc.maxBatchDocs), func(t *testing.T) {
			s, ts := newTestServer(t, Config{QueueDepth: tc.queueDepth, MaxBatchDocs: tc.maxBatchDocs})
			code, body, _ := postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", batchBody(tc.limit, "fits"))
			if code != http.StatusOK {
				t.Fatalf("batch of exactly %d: status = %d, body %.200s", tc.limit, code, body)
			}
			var br BatchResponse
			if err := json.Unmarshal([]byte(body), &br); err != nil {
				t.Fatal(err)
			}
			if br.Summary.OK != tc.limit {
				t.Errorf("batch of exactly %d: summary = %+v", tc.limit, br.Summary)
			}
			code, body, _ = postJSON(t, ts.Client(), ts.URL+"/v1/score/batch", batchBody(tc.limit+1, "over"))
			if code != http.StatusRequestEntityTooLarge {
				t.Fatalf("batch of %d: status = %d, body %.200s", tc.limit+1, code, body)
			}
			want := fmt.Sprintf("exceeds limit %d (%s)", tc.limit, tc.why)
			if !strings.Contains(body, want) {
				t.Errorf("413 body = %s, want it to say %q", body, want)
			}
			if st := s.Stats(); st.Queued != 0 || st.InFlight != 0 {
				t.Errorf("stats = %+v, want idle", st)
			}
		})
	}
}

func TestMetricsServedOnSameMux(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Metrics: reg})
	postJSON(t, ts.Client(), ts.URL+"/v1/score", `{"text":"observable"}`)
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`serve_requests_total{route="score",code="200"} 1`,
		"serve_queue_depth",
		"serve_request_latency_ns",
		"serve_docs_total",
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// waitFor polls cond until true or the deadline elapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
