// Command loadgen drives a running harassd with concurrent scoring
// clients and reports throughput and latency percentiles as JSON — the
// load half of scripts/bench_serve.sh.
//
// Each client loops for -duration POSTing single-document score
// requests (and, every -batch-every requests when set, a JSONL batch of
// -batch-docs documents) drawn from a built-in rotation of harassing,
// doxing and benign texts. 429 and 503 responses are counted as shed,
// not errors — shedding under overload and refusing during a drain are
// the service behaving as designed — and the client honours their
// Retry-After hint, backing off (capped by -max-backoff) before its next
// request. After the run the server's /metrics.json is scraped
// (best-effort) so the summary reports the faults the server absorbed:
// stage panics it captured, documents it quarantined and requests it
// answered 504.
//
// Every single-document 200 carries the X-Model-Generation header;
// loadgen tracks the generations it was served by and counts
// transitions (a hot-swap under load shows up as one transition per
// client that straddled it), logging each transition to stderr and
// listing the generation set in the summary. With -feedback-every N
// each client also POSTs a labelled feedback batch to /v1/feedback
// every N requests — the live-annotation traffic that feeds the
// retrain loop.
//
// -requests N bounds the whole run to a fixed request budget shared
// across clients (whichever of the budget and -duration is hit first
// ends the run) so certification scripts can assert exact accounting
// over a known request count.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:8712 [-clients 64] [-duration 10s]
//	        [-requests 0] [-batch-every 0] [-batch-docs 16]
//	        [-feedback-every 0] [-feedback-docs 8] [-max-backoff 5s]
//	        [-fail-on-errors] [-out FILE]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sampleTexts rotates through the content classes the detector
// distinguishes so scoring work resembles real traffic rather than one
// cached document.
var sampleTexts = []string{
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

var samplePlatforms = []string{"boards", "discord", "telegram", "gab", "pastes"}

// result is one request's outcome.
type result struct {
	code    int
	err     bool
	latency time.Duration
}

// harassingText reports whether sampleTexts[i] is one of the
// incitement/doxing rotations (the labels feedback batches carry).
func harassingText(i int) bool {
	switch i % len(sampleTexts) {
	case 2, 5, 8:
		return false
	}
	return true
}

// report is the JSON document loadgen emits.
type report struct {
	Addr          string  `json:"addr"`
	Clients       int     `json:"clients"`
	DurationSec   float64 `json:"duration_sec"`
	Requests      int     `json:"requests"`
	OK            int     `json:"ok"`
	Shed429       int     `json:"shed_429"`
	Shed503       int     `json:"shed_503"`
	BackoffWaits  int     `json:"backoff_waits"`
	Errors        int     `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"latency_p50_ms"`
	P95Ms         float64 `json:"latency_p95_ms"`
	P99Ms         float64 `json:"latency_p99_ms"`
	// Model lifecycle: the generations that served this run's single
	// 200s (X-Model-Generation) and how many times a client observed
	// the generation change mid-run — a hot-swap under load.
	FeedbackAccepted      int      `json:"feedback_accepted"`
	ModelGenerations      []uint64 `json:"model_generations,omitempty"`
	GenerationTransitions int      `json:"generation_transitions"`
	// Fault counters scraped from the server's /metrics.json after the
	// run (zero when the server exposes no metrics).
	StagePanics     int `json:"stage_panics"`
	QuarantinedDocs int `json:"quarantined_docs"`
	Timeouts504     int `json:"timeouts_504"`
}

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8712", "harassd address (host:port)")
		clients      = flag.Int("clients", 64, "concurrent clients")
		duration     = flag.Duration("duration", 10*time.Second, "load duration")
		requests     = flag.Int("requests", 0, "total request budget across all clients (0 = -duration bound only)")
		batchEvery   = flag.Int("batch-every", 0, "send a batch request every N requests per client (0 = singles only)")
		batchDocs    = flag.Int("batch-docs", 16, "documents per batch request")
		fbEvery      = flag.Int("feedback-every", 0, "POST a labelled feedback batch every N requests per client (0 = none)")
		fbDocs       = flag.Int("feedback-docs", 8, "labelled documents per feedback batch")
		maxBackoff   = flag.Duration("max-backoff", 5*time.Second, "cap on the Retry-After backoff honoured after 429/503")
		failOnErrors = flag.Bool("fail-on-errors", false, "exit non-zero if any request errored (shed 429/503 are not errors)")
		out          = flag.String("out", "", "write the JSON report to this file as well as stdout")
	)
	flag.Parse()

	base := "http://" + strings.TrimPrefix(*addr, "http://")
	httpc := &http.Client{Timeout: 1 * time.Minute}

	var (
		mu          sync.Mutex
		results     []result
		backoffs    int
		transitions int
		gens        = make(map[uint64]bool)
	)
	deadline := time.Now().Add(*duration)
	var issued atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			local := make([]result, 0, 1024)
			waits := 0
			myTransitions := 0
			myGens := make(map[uint64]bool)
			lastGen := uint64(0)
			for n := 0; time.Now().Before(deadline); n++ {
				if *requests > 0 && issued.Add(1) > int64(*requests) {
					break
				}
				var body []byte
				url := base + "/v1/score"
				single := true
				switch {
				case *fbEvery > 0 && n%*fbEvery == *fbEvery-1:
					url = base + "/v1/feedback"
					body = feedbackBody(client, n, *fbDocs)
					single = false
				case *batchEvery > 0 && n%*batchEvery == *batchEvery-1:
					url = base + "/v1/score/batch"
					body = batchBody(client, n, *batchDocs)
					single = false
				default:
					body = singleBody(client, n)
				}
				t0 := time.Now()
				resp, err := httpc.Post(url, "application/json", bytes.NewReader(body))
				lat := time.Since(t0)
				if err != nil {
					local = append(local, result{err: true, latency: lat})
					continue
				}
				retryAfter := resp.Header.Get("Retry-After")
				if single && resp.StatusCode == http.StatusOK {
					if g, perr := strconv.ParseUint(resp.Header.Get("X-Model-Generation"), 10, 64); perr == nil && g > 0 {
						myGens[g] = true
						if lastGen != 0 && g != lastGen {
							myTransitions++
							fmt.Fprintf(os.Stderr, "loadgen: client %d: model generation %d -> %d\n", client, lastGen, g)
						}
						lastGen = g
					}
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				local = append(local, result{code: resp.StatusCode, latency: lat})
				if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
					if d := backoffFor(retryAfter, *maxBackoff); d > 0 {
						// Honour the server's hint, but never sleep past
						// the run deadline.
						if remain := time.Until(deadline); d > remain {
							d = remain
						}
						if d > 0 {
							waits++
							time.Sleep(d)
						}
					}
				}
			}
			mu.Lock()
			results = append(results, local...)
			backoffs += waits
			transitions += myTransitions
			for g := range myGens {
				gens[g] = true
			}
			mu.Unlock()
		}(c)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	rep := summarize(results, *addr, *clients, elapsed)
	rep.BackoffWaits = backoffs
	rep.GenerationTransitions = transitions
	for g := range gens {
		rep.ModelGenerations = append(rep.ModelGenerations, g)
	}
	sort.Slice(rep.ModelGenerations, func(i, j int) bool { return rep.ModelGenerations[i] < rep.ModelGenerations[j] })
	if len(rep.ModelGenerations) > 1 {
		fmt.Fprintf(os.Stderr, "loadgen: served by model generations %v (%d transitions observed)\n",
			rep.ModelGenerations, transitions)
	}
	scrapeFaults(httpc, base, &rep)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
	if *out != "" {
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
	}
	if rep.Requests == 0 || rep.OK == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: no successful requests")
		os.Exit(1)
	}
	if *failOnErrors && rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d requests errored\n", rep.Errors)
		os.Exit(1)
	}
}

// backoffFor converts a Retry-After header (delta-seconds form) into a
// sleep, capped by max. A missing or unparseable header falls back to
// a short fixed pause so a misconfigured server still gets relief.
func backoffFor(header string, max time.Duration) time.Duration {
	d := 100 * time.Millisecond
	if secs, err := strconv.Atoi(strings.TrimSpace(header)); err == nil && secs >= 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > max {
		d = max
	}
	return d
}

// metricsSnapshot mirrors the /metrics.json wire shape (obs.Snapshot).
// Value is left raw: the registry encodes NaN/Inf gauges as strings,
// and one odd value must not abort the whole scrape.
type metricsSnapshot struct {
	Metrics []struct {
		Name   string `json:"name"`
		Labels []struct {
			Name  string `json:"name"`
			Value string `json:"value"`
		} `json:"labels"`
		Value json.RawMessage `json:"value"`
	} `json:"metrics"`
}

// scrapeFaults reads the server's fault counters after the run.
// Best-effort: a failed scrape leaves the fields zero.
func scrapeFaults(httpc *http.Client, base string, rep *report) {
	resp, err := httpc.Get(base + "/metrics.json")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var snap metricsSnapshot
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&snap); err != nil {
		return
	}
	for _, m := range snap.Metrics {
		var v float64
		if m.Value == nil || json.Unmarshal(m.Value, &v) != nil {
			continue
		}
		labelled := func(name, value string) bool {
			for _, l := range m.Labels {
				if l.Name == name && l.Value == value {
					return true
				}
			}
			return false
		}
		switch {
		case m.Name == "pipeline_stage_panics_total": // summed across stages
			rep.StagePanics += int(v)
		case m.Name == "serve_docs_total" && labelled("status", "quarantined"):
			rep.QuarantinedDocs += int(v)
		case m.Name == "serve_requests_total" && labelled("code", "504"): // summed across routes
			rep.Timeouts504 += int(v)
		}
	}
}

func singleBody(client, n int) []byte {
	doc := map[string]string{
		"id":       fmt.Sprintf("load-%d-%d", client, n),
		"platform": samplePlatforms[(client+n)%len(samplePlatforms)],
		"text":     sampleTexts[(client*7+n)%len(sampleTexts)],
	}
	b, _ := json.Marshal(doc)
	return b
}

func batchBody(client, n, docs int) []byte {
	var buf bytes.Buffer
	for i := 0; i < docs; i++ {
		buf.Write(singleBody(client, n*docs+i))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// feedbackBody builds one /v1/feedback batch: the sample rotation with
// its ground-truth labels, the live-annotation stream a deployment
// would feed back from its moderators.
func feedbackBody(client, n, docs int) []byte {
	type item struct {
		ID       string `json:"id"`
		Platform string `json:"platform"`
		Text     string `json:"text"`
		Task     string `json:"task"`
		Label    bool   `json:"label"`
	}
	items := make([]item, 0, docs)
	for i := 0; i < docs; i++ {
		k := client*13 + n*docs + i
		items = append(items, item{
			ID:       fmt.Sprintf("fb-%d-%d-%d", client, n, i),
			Platform: samplePlatforms[k%len(samplePlatforms)],
			Text:     fmt.Sprintf("%s (report %d)", sampleTexts[k%len(sampleTexts)], k),
			Task:     "cth",
			Label:    harassingText(k),
		})
	}
	b, _ := json.Marshal(items)
	return b
}

func summarize(results []result, addr string, clients int, elapsed time.Duration) report {
	rep := report{
		Addr:        addr,
		Clients:     clients,
		DurationSec: elapsed.Seconds(),
		Requests:    len(results),
	}
	lats := make([]time.Duration, 0, len(results))
	for _, r := range results {
		switch {
		case r.err:
			rep.Errors++
		case r.code == http.StatusOK:
			rep.OK++
			lats = append(lats, r.latency)
		case r.code == http.StatusAccepted:
			// Feedback batches: accepted live annotations, not scores.
			rep.FeedbackAccepted++
		case r.code == http.StatusTooManyRequests:
			rep.Shed429++
		case r.code == http.StatusServiceUnavailable:
			rep.Shed503++
		default:
			rep.Errors++
		}
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.OK) / elapsed.Seconds()
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pct := func(p float64) float64 {
			idx := int(p * float64(len(lats)-1))
			return float64(lats[idx].Microseconds()) / 1000
		}
		rep.P50Ms, rep.P95Ms, rep.P99Ms = pct(0.50), pct(0.95), pct(0.99)
	}
	return rep
}
