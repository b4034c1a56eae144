// Command harassd is the production scoring service: the paper's
// filtering classifiers (call-to-harassment, doxing), PII extraction
// and attack-taxonomy coding served over HTTP, the way platforms
// consume moderation classifiers as an online endpoint.
//
// Endpoints:
//
//	POST /v1/score        score one document: {"id","platform","text"}
//	POST /v1/score/batch  JSONL (lenient; bad lines quarantined and
//	                      reported per line) or a JSON array
//	POST /v1/feedback     operator-labelled documents feeding the
//	                      retrain loop (with -registry)
//	GET  /v1/admin/*      model lifecycle control: GET models, POST
//	                      retrain/promote/rollback/swap/shadow (with
//	                      -registry)
//	GET  /healthz         process liveness + active model generation
//	GET  /readyz          admission readiness (503 while draining)
//	GET  /metrics         Prometheus text format (same mux)
//	GET  /metrics.json    JSON metrics snapshot
//	GET  /debug/pprof/*   live profiling
//
// A request is scored on its own goroutine — admit, load the model
// pointer once, score each document in place — by at most GOMAXPROCS
// requests at a time, whatever the client count. Overload is shed at
// the door with 429 + Retry-After (bounded in-flight requests and one
// bounded count of admitted-but-unscored documents, never an unbounded
// goroutine pile-up), a request that outlives -request-timeout gets
// 504 and gives back everything it held, and a document whose scoring
// stage fails or panics is quarantined inside its own 200 response.
// SIGINT/SIGTERM triggers a graceful drain: stop admitting, finish
// every accepted request, then exit 0. If -drain-timeout
// expires first, the abandoned in-flight requests are counted, logged,
// and the process exits non-zero.
//
// With -models the classifiers are loaded from a directory written by
// `harassrepro -save-models`; otherwise they are trained at startup by
// running the pipeline at -scale.
//
// With -registry the detector becomes a versioned, hot-swappable
// artifact: the directory holds committed model generations
// (gen-XXXXXXXX dirs under a fsync'd MANIFEST), the active generation
// is served on boot (training only when the registry is empty), and
// the feedback/retrain/shadow/promote lifecycle is exposed on
// /v1/feedback and /v1/admin. -auto-retrain retrains in the background
// once enough feedback buffers; -shadow-rate sets the live-traffic
// fraction a committed candidate shadow-scores before promotion.
// -replay-store points retrains at a segmented corpus store (corpusgen
// -store) so each round's training set also replays historical
// documents at store scan speed; -replay-limit caps how many.
//
// Usage:
//
//	harassd [-addr :8712] [-models DIR] [-scale quick|default] [-seed N]
//	        [-registry DIR] [-shadow-rate F] [-auto-retrain]
//	        [-replay-store DIR] [-replay-limit N]
//	        [-workers N] [-max-inflight N] [-queue-depth N]
//	        [-max-batch-docs N] [-request-timeout D] [-drain-timeout D]
//	        [-no-annotate] [-metrics]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"harassrepro/internal/core"
	"harassrepro/internal/detector"
	"harassrepro/internal/lifecycle"
	"harassrepro/internal/obs"
	"harassrepro/internal/registry"
	"harassrepro/internal/serve"
	"harassrepro/internal/taxonomy"
)

// fail prints a one-line diagnostic and exits non-zero.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "harassd: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		addr           = flag.String("addr", ":8712", "listen address (\":0\" picks a free port)")
		models         = flag.String("models", "", "load pretrained classifiers from this directory (see harassrepro -save-models) instead of training")
		scale          = flag.String("scale", "quick", "training corpus scale when -models is unset: quick or default")
		registryDir    = flag.String("registry", "", "versioned model registry directory: serve the active generation and enable /v1/feedback + /v1/admin")
		shadowRate     = flag.Float64("shadow-rate", 0.25, "live-traffic fraction a retrained candidate shadow-scores (with -registry)")
		autoRetrain    = flag.Bool("auto-retrain", false, "retrain in the background once enough feedback buffers (with -registry)")
		replayStore    = flag.String("replay-store", "", "segmented corpus store whose historical documents augment every retrain (with -registry)")
		replayLimit    = flag.Int("replay-limit", 0, "cap on replayed store documents per retrain (0 = default 256)")
		seed           = flag.Uint64("seed", 1, "training and span-sampling seed")
		workers        = flag.Int("workers", 0, "training worker pool size when -models is unset (0 = GOMAXPROCS)")
		maxInFlight    = flag.Int("max-inflight", 256, "maximum concurrently admitted score requests")
		queueDepth     = flag.Int("queue-depth", 1024, "maximum admitted-but-unscored documents across all requests")
		maxBatchDocs   = flag.Int("max-batch-docs", 4096, "maximum documents in one batch request (capped by -queue-depth)")
		maxBodyBytes   = flag.Int64("max-body-bytes", 32<<20, "maximum request body size")
		maxLineBytes   = flag.Int("max-line-bytes", 1<<20, "maximum JSONL line length in a batch body")
		requestTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request scoring deadline")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound after SIGINT/SIGTERM")
		noAnnotate     = flag.Bool("no-annotate", false, "skip the PII and taxonomy annotation stages")
		metrics        = flag.Bool("metrics", false, "print a JSON metrics snapshot to stderr on exit")
	)
	flag.Parse()

	if *replayStore != "" && *registryDir == "" {
		fail("-replay-store requires -registry")
	}

	reg := obs.NewRegistry()

	// buildDetector loads (-models) or trains (-scale) the classifiers;
	// with -registry it only runs when the registry has no committed
	// generation yet.
	buildDetector := func() (*detector.Detector, error) {
		if *models != "" {
			d, err := detector.Load(*models)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "harassd: loaded classifiers from %s\n", *models)
			return d, nil
		}
		var cfg core.Config
		switch *scale {
		case "quick":
			cfg = core.QuickConfig(*seed)
		case "default":
			cfg = core.DefaultConfig(*seed)
		default:
			return nil, fmt.Errorf("unknown scale %q (want quick or default)", *scale)
		}
		fmt.Fprintf(os.Stderr, "harassd: training filtering classifiers (seed %d, scale %s)...\n", *seed, *scale)
		t0 := time.Now()
		p, err := core.RunWithOptions(cfg, core.Options{Workers: *workers})
		if err != nil {
			return nil, fmt.Errorf("training: %w", err)
		}
		fmt.Fprintf(os.Stderr, "harassd: classifiers ready in %v\n", time.Since(t0).Round(time.Millisecond))
		return p.Detector(), nil
	}

	var mdl *serve.Model
	var mgr *lifecycle.Manager
	if *registryDir != "" {
		mreg, err := registry.OpenOrCreate(*registryDir)
		if err != nil {
			fail("%v", err)
		}
		if rec := mreg.Recovery(); len(rec.Quarantined) > 0 || len(rec.Orphans) > 0 {
			fmt.Fprintf(os.Stderr, "harassd: registry recovery: quarantined generations %v, swept orphans %v\n",
				rec.Quarantined, rec.Orphans)
		}
		mdl, _, err = lifecycle.BootModel(mreg, *seed, buildDetector)
		if err != nil {
			fail("%v", err)
		}
		mgr, err = lifecycle.New(lifecycle.Config{
			Registry:        mreg,
			Seed:            *seed,
			AutoRetrain:     *autoRetrain,
			ShadowRate:      *shadowRate,
			ReplayStorePath: *replayStore,
			ReplayLimit:     *replayLimit,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "harassd: "+format+"\n", args...)
			},
		})
		if err != nil {
			fail("%v", err)
		}
	} else {
		det, err := buildDetector()
		if err != nil {
			fail("%v", err)
		}
		mdl = &serve.Model{Backend: det, Generation: 1, Seed: *seed, Thresholds: det}
	}

	cfg := serve.Config{
		Model:          mdl,
		Seed:           *seed,
		Annotate:       !*noAnnotate,
		MaxInFlight:    *maxInFlight,
		QueueDepth:     *queueDepth,
		MaxBatchDocs:   *maxBatchDocs,
		MaxBodyBytes:   *maxBodyBytes,
		MaxLineBytes:   *maxLineBytes,
		RequestTimeout: *requestTimeout,
		Metrics:        reg,
	}
	if mgr != nil {
		cfg.Feedback = mgr
		cfg.Admin = mgr
	}
	if cfg.Annotate {
		// Compile the attack-cue rules now, not under the first request.
		taxonomy.Shared()
	}
	srv := serve.New(cfg)
	if mgr != nil {
		mgr.Bind(srv)
	}
	// The handler must be in place before /readyz can answer 200: a
	// SIGTERM sent the moment the service looks ready still drains.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := srv.Start(*addr); err != nil {
		fail("%v", err)
	}
	fmt.Fprintf(os.Stderr, "harassd: serving model generation %d (seed %d)\n", mdl.Generation, mdl.Seed)
	fmt.Fprintf(os.Stderr, "harassd: listening on http://%s\n", srv.Addr())

	<-ctx.Done()
	stop() // restore default signal handling: a second signal kills hard

	fmt.Fprintf(os.Stderr, "harassd: draining (bound %v)...\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	err := srv.Shutdown(dctx)
	if *metrics {
		fmt.Fprintln(os.Stderr, "metrics snapshot:")
		if werr := reg.WriteJSON(os.Stderr); werr != nil {
			fail("writing metrics: %v", werr)
		}
	}
	if err != nil {
		// The drain bound expired: report exactly what was abandoned so
		// operators can audit the loss, and exit non-zero.
		reqs, docs := srv.Abandoned()
		fail("drain: %v (abandoned %d in-flight requests, %d unscored documents)", err, reqs, docs)
	}
	fmt.Fprintln(os.Stderr, "harassd: drained cleanly")
}
