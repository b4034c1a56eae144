package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"harassrepro/internal/obs"
	"harassrepro/internal/serve"
)

// The binary under test is built once per test process, into a
// directory TestMain removes.
var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// buildHarassd returns the path of the binary under test, building it
// on first use.
func buildHarassd(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	buildOnce.Do(func() {
		if buildDir, buildErr = os.MkdirTemp("", "harassd-test-"); buildErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", filepath.Join(buildDir, "harassd"), ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building harassd: %v", buildErr)
	}
	return filepath.Join(buildDir, "harassd")
}

// daemon is one live harassd process. stderr may be read once exited
// has delivered.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan error
}

// startHarassd runs the binary on a free port with the given flags and
// returns once /readyz first answers 200.
func startHarassd(t *testing.T, bin string, flags ...string) *daemon {
	t.Helper()
	// The address must be known before the process logs it, so pick a
	// free port here and hand it over.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{addr: l.Addr().String(), exited: make(chan error, 1)}
	l.Close()
	d.cmd = exec.Command(bin, append([]string{"-addr", d.addr, "-scale", "quick"}, flags...)...)
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	t.Cleanup(func() { d.cmd.Process.Kill() })

	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			t.Fatalf("harassd exited before it was ready: %v\n%s", err, d.stderr.String())
		default:
		}
		resp, err := http.Get("http://" + d.addr + "/readyz")
		if err != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return d
		}
	}
	d.cmd.Process.Kill()
	<-d.exited // stderr is complete once Wait has returned
	t.Fatalf("harassd never became ready\n%s", d.stderr.String())
	return nil
}

// drain sends SIGTERM and requires exit 0 with the clean-drain line.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			t.Fatalf("harassd did not exit 0 after SIGTERM: %v\n%s", err, d.stderr.String())
		}
	case <-time.After(time.Minute):
		d.cmd.Process.Kill()
		<-d.exited
		t.Fatalf("harassd did not exit after SIGTERM\n%s", d.stderr.String())
	}
	if !strings.Contains(d.stderr.String(), "drained cleanly") {
		t.Fatalf("no clean drain in stderr:\n%s", d.stderr.String())
	}
}

// do sends one request (a GET when body is empty) and returns the
// status, headers and body. It is safe to call from any goroutine.
func (d *daemon) do(path, body string) (int, http.Header, []byte, error) {
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = liveClient.Get("http://" + d.addr + path)
	} else {
		resp, err = liveClient.Post("http://"+d.addr+path, "application/json", strings.NewReader(body))
	}
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s: reading the response: %w", path, err)
	}
	return resp.StatusCode, resp.Header, raw, nil
}

// liveClient bounds every request, so a wedged server fails a test
// rather than hanging it, and keeps an idle connection for each of up
// to 64 load clients instead of net/http's two, so the load tests
// measure scoring rather than TCP connection churn.
var liveClient = &http.Client{
	Timeout:   time.Minute,
	Transport: &http.Transport{MaxIdleConnsPerHost: 64},
}

// post sends one request body and returns the status, headers and body.
func (d *daemon) post(t *testing.T, path, body string) (int, http.Header, []byte) {
	t.Helper()
	code, hdr, raw, err := d.do(path, body)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return code, hdr, raw
}

// get fetches path and requires a 200.
func (d *daemon) get(t *testing.T, path string) []byte {
	t.Helper()
	code, _, raw, err := d.do(path, "")
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v, body %s", path, code, err, raw)
	}
	return raw
}

// metrics scrapes /metrics.json.
func (d *daemon) metrics(t *testing.T) obs.Snapshot {
	t.Helper()
	var snap obs.Snapshot
	if err := json.Unmarshal(d.get(t, "/metrics.json"), &snap); err != nil {
		t.Fatalf("decoding /metrics.json: %v", err)
	}
	return snap
}

// awaitInFlight polls the in-flight gauge until n requests are admitted.
func (d *daemon) awaitInFlight(t *testing.T, n float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for counterValue(d.metrics(t), "serve_inflight_requests") != n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %v requests in flight", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSIGTERMRightAfterReadyDrains signals the service the instant
// /readyz first answers 200. The signal handler used to be installed
// after the listener was up, so a supervisor that stopped the process
// that early killed it without a drain. That window was microseconds
// wide: against the old ordering this test fails only occasionally, and
// it pins the contract (exit 0, "drained cleanly") rather than the race.
func TestSIGTERMRightAfterReadyDrains(t *testing.T) {
	bin := buildHarassd(t)
	for round := 0; round < 3; round++ {
		startHarassd(t, bin).drain(t)
	}
}

// -max-inflight and -queue-depth reach the admission check: with both at
// one, a second request arriving while the first is being scored is shed
// at the door. The first is held open by the size of its document: 4 MB
// of text takes the tokenizer, both classifiers, PII extraction and the
// taxonomy about 0.7 s on two cores.
func TestAdmissionFlagsShedSecondConcurrentRequest(t *testing.T) {
	d := startHarassd(t, buildHarassd(t), "-max-inflight", "1", "-queue-depth", "1")
	held := func(id string) string {
		text := strings.Repeat("keep reporting her account everyone go flag it now ", 80000)
		return fmt.Sprintf(`{"id":%q,"text":%q}`, id, text)
	}

	first := make(chan int, 1)
	go func() {
		code, _, _ := d.post(t, "/v1/score", held("held"))
		first <- code
	}()
	d.awaitInFlight(t, 1)
	code, hdr, body := d.post(t, "/v1/score", `{"id":"shed","text":"arrives second"}`)
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Errorf("second concurrent request: status %d, Retry-After %q, body %s", code, hdr.Get("Retry-After"), body)
	}
	if code := <-first; code != http.StatusOK {
		t.Errorf("the admitted request finished with %d, want 200", code)
	}
	// A batch can never exceed the document bound, whatever -max-batch-docs says.
	code, _, body = d.post(t, "/v1/score/batch", "{\"text\":\"one\"}\n{\"text\":\"two\"}\n")
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "queue depth 1 caps max batch docs 4096") {
		t.Errorf("two-document batch at -queue-depth 1: status %d body %s", code, body)
	}
	if shed := counterValue(d.metrics(t), "serve_shed_total"); shed != 1 {
		t.Errorf("serve_shed_total = %v, want 1", shed)
	}

	// SIGTERM while a request is being scored: the drain waits for it.
	go func() {
		code, _, _ := d.post(t, "/v1/score", held("draining"))
		first <- code
	}()
	d.awaitInFlight(t, 1)
	d.drain(t)
	if code := <-first; code != http.StatusOK {
		t.Errorf("the request in flight at SIGTERM finished with %d, want 200", code)
	}
}

// Removed flags are gone, not ignored: the shard fleet's -shards and
// the fault-injection plan's -chaos.
func TestShardsFlagIsNotDefined(t *testing.T) {
	bin := buildHarassd(t)
	for _, args := range [][]string{{"-shards", "4"}, {"-chaos", "seed=7,panic=0.02"}} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("harassd %v: %v, want exit status 2\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "flag provided but not defined: "+args[0]) {
			t.Errorf("harassd %v said:\n%s", args, out)
		}
	}
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

// refTexts are the documents the live tests score. Each is far shorter
// than either span length, so scoring makes no random draw and a score
// depends only on the model generation and the text.
var refTexts = []string{
	"we should mass report his channel until it gets banned",
	"dropping her address 99 cedar lane and her email jane.roe@example.com",
	"anyone up for ranked tonight, the patch notes are out",
	"everyone go spam his twitch chat right now",
	"found his phone number 555-0147, do what you want with it",
	"the weather in the city has been unusually warm this week",
	"raid her stream at 8pm, bring everyone from the server",
	"post his workplace and boss's email so people can complain",
	"just finished reading a great book about distributed systems",
	"keep reporting her videos until the account is gone",
}

var refPlatforms = []string{"boards", "discord", "telegram", "gab", "pastes"}

// scoreBody is the /v1/score body for refTexts[i%len(refTexts)],
// suffixed when suffix is non-empty.
func scoreBody(i int, suffix string) string {
	return fmt.Sprintf(`{"id":"doc-%d","platform":%q,"text":%q}`,
		i, refPlatforms[i%len(refPlatforms)], refTexts[i%len(refTexts)]+suffix)
}

// startRegistry starts harassd -registry on a fresh registry, whose
// boot commits generation 1, then commits generation 2 from 16
// feedback items and clears the shadow run the retrain starts, so
// generation 1 serves and generation 2 waits.
func startRegistry(t *testing.T) *daemon {
	t.Helper()
	d := startHarassd(t, buildHarassd(t), "-registry", filepath.Join(t.TempDir(), "registry"))
	items := make([]string, 16)
	for i := range items {
		items[i] = fmt.Sprintf(`{"id":"fb-%d","platform":"boards","text":"keep reporting account %d until it is gone","task":"cth","label":true}`, i, i)
	}
	if code, _, body := d.post(t, "/v1/feedback", "["+strings.Join(items, ",")+"]"); code != http.StatusAccepted {
		t.Fatalf("feedback: status %d body %s", code, body)
	}
	var retrain struct{ Generation uint64 }
	code, _, body := d.post(t, "/v1/admin/retrain", "{}")
	if code != http.StatusOK || json.Unmarshal(body, &retrain) != nil || retrain.Generation != 2 {
		t.Fatalf("retrain did not commit generation 2: status %d body %s", code, body)
	}
	if code, _, body := d.post(t, "/v1/admin/shadow", `{"clear":true}`); code != http.StatusOK {
		t.Fatalf("clearing the shadow: status %d body %s", code, body)
	}
	return d
}

// swap makes gen the serving generation over /v1/admin/swap. The reply
// must name gen and time the swap.
func (d *daemon) swap(gen uint64) error {
	code, _, body, err := d.do("/v1/admin/swap", fmt.Sprintf(`{"generation":%d}`, gen))
	if err != nil {
		return fmt.Errorf("swap to %d: %w", gen, err)
	}
	var reply struct {
		Generation uint64 `json:"generation"`
		SwapNs     int64  `json:"swap_ns"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &reply) != nil || reply.Generation != gen || reply.SwapNs <= 0 {
		return fmt.Errorf("swap to %d: status %d body %s", gen, code, body)
	}
	return nil
}

// scorePair is one document's two classifier scores.
type scorePair struct{ cth, dox float64 }

// checkScored decodes a 200 from /v1/score (docs == 1) or
// /v1/score/batch and requires one generation throughout: the header
// names it, every document carries it, and every score pair is that
// generation's reference for the document's text.
func checkScored(code int, hdr http.Header, body []byte, texts []int, ref map[uint64][]scorePair) (uint64, error) {
	if code != http.StatusOK {
		return 0, fmt.Errorf("status %d body %s", code, body)
	}
	gen, err := strconv.ParseUint(hdr.Get("X-Model-Generation"), 10, 64)
	if err != nil || ref[gen] == nil {
		return 0, fmt.Errorf("X-Model-Generation %q", hdr.Get("X-Model-Generation"))
	}
	var results []serve.ScoreResult
	if len(texts) == 1 {
		results = make([]serve.ScoreResult, 1)
		err = json.Unmarshal(body, &results[0])
	} else {
		var br serve.BatchResponse
		err = json.Unmarshal(body, &br)
		results = br.Results
	}
	if err != nil || len(results) != len(texts) {
		return 0, fmt.Errorf("%d results for %d documents (%v): %s", len(results), len(texts), err, body)
	}
	for i, res := range results {
		want := ref[gen][texts[i]%len(refTexts)]
		if res.ModelGen != gen || res.Status != "ok" || res.CTH != want.cth || res.Dox != want.dox {
			return 0, fmt.Errorf("document %d: %s generation %d (%v,%v) under header %d, whose reference is (%v,%v)",
				i, res.Status, res.ModelGen, res.CTH, res.Dox, gen, want.cth, want.dox)
		}
	}
	return gen, nil
}

// swapPacer ties a swap storm to the load's progress rather than to a
// clock: the swapper swaps once per k completed responses, and request
// i is not sent before i/k-1 swaps have landed. So every swap lands
// while requests are still in flight, however fast the load runs.
type swapPacer struct {
	k                  int
	mu                 sync.Mutex
	cond               *sync.Cond
	completed, swapped int
	done               bool
}

func newSwapPacer(k int) *swapPacer {
	p := &swapPacer{k: k}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// update applies f under the lock and wakes every waiter.
func (p *swapPacer) update(f func()) {
	p.mu.Lock()
	f()
	p.mu.Unlock()
	p.cond.Broadcast()
}

// admit blocks request i until its swaps have landed.
func (p *swapPacer) admit(i int) {
	p.mu.Lock()
	for p.swapped < i/p.k-1 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// due blocks until the next swap is due (true) or the load is over.
func (p *swapPacer) due() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.done && p.completed < p.k*(p.swapped+1) {
		p.cond.Wait()
	}
	return !p.done
}

// A live harassd -registry is swapped between two generations after
// every 16th completed response while 8 clients send 320 single and
// 16-document batch requests. Nothing is lost, both generations serve,
// every client sees the generation change, and no response mixes
// generations: its header, every model_generation and every score pair
// agree with one generation's reference scores.
func TestLiveSwapStorm(t *testing.T) {
	d := startRegistry(t)

	// Reference scores: every text once on each generation.
	ref := map[uint64][]scorePair{}
	for _, gen := range []uint64{2, 1} {
		if err := d.swap(gen); err != nil {
			t.Fatal(err)
		}
		pairs := make([]scorePair, len(refTexts))
		for i := range refTexts {
			code, hdr, body := d.post(t, "/v1/score", scoreBody(i, ""))
			var res serve.ScoreResult
			if code != http.StatusOK || hdr.Get("X-Model-Generation") != strconv.FormatUint(gen, 10) ||
				json.Unmarshal(body, &res) != nil || res.Status != "ok" {
				t.Fatalf("reference score of text %d on generation %d: status %d header %q body %s",
					i, gen, code, hdr.Get("X-Model-Generation"), body)
			}
			pairs[i] = scorePair{res.CTH, res.Dox}
		}
		ref[gen] = pairs
	}
	if slices.Equal(ref[1], ref[2]) {
		t.Fatal("both generations score every reference text alike: a mixed response would pass unseen")
	}

	const clients, requests, batchEvery, batchDocs, swapEvery = 8, 320, 4, 16, 16
	pacer := newSwapPacer(swapEvery)
	var (
		mu      sync.Mutex
		errs    []string
		served  = map[uint64]int{}
		changes = make([]int, clients)
		issued  atomic.Int64
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		errs = append(errs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	swapperDone := make(chan struct{})
	go func() {
		defer close(swapperDone)
		for gen := uint64(2); pacer.due(); gen = 3 - gen {
			if err := d.swap(gen); err != nil {
				fail("%v", err)
			}
			pacer.update(func() { pacer.swapped++ })
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var last uint64
			for {
				i := int(issued.Add(1)) - 1
				if i >= requests {
					return
				}
				pacer.admit(i)
				path, body, texts := "/v1/score", scoreBody(i, ""), []int{i}
				if i%batchEvery == batchEvery-1 {
					var lines []string
					texts = texts[:0]
					for j := 0; j < batchDocs; j++ {
						lines = append(lines, scoreBody(i*batchDocs+j, ""))
						texts = append(texts, i*batchDocs+j)
					}
					path, body = "/v1/score/batch", strings.Join(lines, "\n")+"\n"
				}
				code, hdr, raw, err := d.do(path, body)
				pacer.update(func() { pacer.completed++ })
				if err != nil {
					fail("request %d: %v", i, err)
					continue
				}
				gen, err := checkScored(code, hdr, raw, texts, ref)
				if err != nil {
					fail("request %d: %v", i, err)
					continue
				}
				mu.Lock()
				served[gen]++
				if last != 0 && gen != last {
					changes[c]++
				}
				mu.Unlock()
				last = gen
			}
		}(c)
	}
	wg.Wait()
	pacer.update(func() { pacer.done = true })
	<-swapperDone

	for _, e := range errs {
		t.Error(e)
	}
	if n := served[1] + served[2]; n != requests {
		t.Errorf("%d of %d requests answered 200 by one generation", n, requests)
	}
	if served[1] == 0 || served[2] == 0 {
		t.Errorf("responses per generation %v, want both", served)
	}
	for c, n := range changes {
		if n == 0 {
			t.Errorf("client %d never saw the generation change", c)
		}
	}
	t.Logf("%d swaps; responses per generation %v; generation changes per client %v", pacer.swapped, served, changes)
	d.drain(t)
}

// Shadow scoring costs at most 10% of throughput. One -registry server
// serves generation 2 while 64 clients send single requests without a
// break. The responses are cut into phases of 500; the shadow is
// switched between phases, alternately on (generation 1 shadowing 25%
// of traffic) and off, and the phase after each switch is not measured:
// it absorbs the switch, which loads generation 1 from the registry.
// Each measured on phase's throughput is divided by the mean of the
// measured off phases beside it, and the median of those ratios must
// reach 0.90.
//
// Wall-clock throughput on a shared 2-core VM drifts by up to 2x within
// a second, so three long phases a side read anywhere from 0.71 to 1.26
// for one build; many short bracketed phases cancel the drift. The test
// measures 40 on phases, then more until the median's distribution-free
// 95% interval (order statistics n/2 ± 0.98√n) lies on one side of
// 0.90, or 200 have run.
func TestShadowOverheadGate(t *testing.T) {
	d := startRegistry(t)
	if err := d.swap(2); err != nil {
		t.Fatal(err)
	}

	const clients, perPhase, minOn, maxOn = 64, 500, 40, 200
	var completed, failed atomic.Int64
	// Each client sends the end time of every perPhase-th response; the
	// buffer lets the clients run on while the test goroutine is busy
	// switching the shadow, which takes well under a phase.
	phaseEnds := make(chan time.Time, 64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Distinct texts, so the hash sample takes its share.
				code, _, _, err := d.do("/v1/score", scoreBody(i, fmt.Sprintf(" (%d-%d)", c, i)))
				if err != nil || code != http.StatusOK {
					failed.Add(1)
				}
				if completed.Add(1)%perPhase == 0 {
					select {
					case phaseEnds <- time.Now():
					case <-stop:
						return
					}
				}
			}
		}(c)
	}
	stopLoad := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopLoad()

	last := time.Now()
	phase := func() float64 {
		end := <-phaseEnds
		rps := perPhase / end.Sub(last).Seconds()
		last = end
		return rps
	}
	shadow := func(body string) {
		t.Helper()
		if code, _, raw := d.post(t, "/v1/admin/shadow", body); code != http.StatusOK {
			t.Fatalf("POST /v1/admin/shadow %s: status %d body %s", body, code, raw)
		}
		phase() // the switch's phase, not measured
	}

	phase() // warm-up, not measured
	lastOff := phase()
	var ratios, sorted []float64
	var shadowed, dropped uint64
	var median, lo, hi float64
	for {
		shadow(`{"generation":1,"rate":0.25}`)
		on := phase()
		var models struct {
			Shadow *serve.ShadowStats `json:"shadow"`
		}
		if err := json.Unmarshal(d.get(t, "/v1/admin/models"), &models); err != nil || models.Shadow == nil || models.Shadow.Docs == 0 {
			t.Fatalf("on phase %d re-scored nothing: %+v (%v)", len(ratios)+1, models.Shadow, err)
		}
		shadowed += models.Shadow.Docs
		dropped += models.Shadow.Dropped
		shadow(`{"clear":true}`)
		off := phase()
		ratios = append(ratios, on/((lastOff+off)/2))
		lastOff = off

		n := len(ratios)
		if n < minOn {
			continue
		}
		sorted = slices.Clone(ratios)
		slices.Sort(sorted)
		h := 0.98 * math.Sqrt(float64(n))
		median = (sorted[(n-1)/2] + sorted[n/2]) / 2
		lo, hi = sorted[int(float64(n)/2-h)-1], sorted[int(math.Ceil(float64(n)/2+h))-1]
		if lo >= 0.90 || hi < 0.90 || n == maxOn {
			break
		}
	}
	stopLoad()
	if n := failed.Load(); n > 0 {
		t.Errorf("%d of %d requests failed", n, completed.Load())
	}
	n := len(sorted)
	t.Logf("shadow-on/off throughput: median %.3f of %d bracketed phases (95%% interval %.3f-%.3f, quartiles %.3f, %.3f); %d documents shadowed, %d dropped",
		median, n, lo, hi, sorted[n/4], sorted[3*n/4], shadowed, dropped)
	if median < 0.90 {
		t.Errorf("shadow-on throughput is %.3f of shadow-off, want at least 0.90", median)
	}
	d.drain(t)
}

// The endpoints over the binary: a single score, a batch with one
// broken line, liveness, and the Prometheus metrics.
func TestEndpointSmoke(t *testing.T) {
	d := startHarassd(t, buildHarassd(t))

	var res serve.ScoreResult
	code, _, body := d.post(t, "/v1/score", `{"id":"s","platform":"discord","text":"everyone mass report his channel"}`)
	if code != http.StatusOK || json.Unmarshal(body, &res) != nil || res.Status != "ok" {
		t.Errorf("single score: status %d body %s", code, body)
	}

	var batch serve.BatchResponse
	code, _, body = d.post(t, "/v1/score/batch",
		`{"id":"b1","platform":"gab","text":"dropping her address 99 cedar lane"}`+"\nnot json\n")
	if code != http.StatusOK || json.Unmarshal(body, &batch) != nil ||
		batch.Summary.BadLines != 1 || batch.Summary.OK != 1 || len(batch.Quarantined) != 1 {
		t.Errorf("batch with one broken line: status %d body %s", code, body)
	}

	if body := d.get(t, "/healthz"); !strings.Contains(string(body), "ok") {
		t.Errorf("/healthz body %s", body)
	}
	metrics := string(d.get(t, "/metrics"))
	for _, name := range []string{"serve_requests_total", "serve_queue_depth"} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics lists no %s", name)
		}
	}
	d.drain(t)
}
