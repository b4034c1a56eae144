// Command bench is the repo's one benchmark: five workloads over the
// online (harassd), offline (store re-score), store and paper paths,
// measured end to end, plus a traced run that replays the same inputs
// through each layer to say where the time goes. BENCHMARK.json at the
// repo root declares the workloads and metrics; README.md explains
// every one of them.
//
//	bash bench/run.sh --workload online-singles --seed 7 --seconds 16 --trace 0
//	bash bench/run.sh -workload all -trace 1 -out result.json
//	bash bench/aa.sh 10
//
// A single-workload run prints every metric it measured by name and
// unit, then — as the last line of standard output — one JSON object
// with exactly the keys correct, attempted, failed and metrics: the
// end-to-end metrics with -trace 0, the per-layer metrics with
// -trace 1. It exits non-zero when any output failed verification.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"harassrepro/bench/benchkit"
)

// trainSeed is the seed the scoring classifiers are trained at, in the
// benchmark's reference detector and in harassd alike. The workload
// seed defaults to something else so scored documents are held out.
const trainSeed = 1

// runConfig is everything one workload run needs.
type runConfig struct {
	root    string // repository checkout (holds BENCHMARK.json, cmd/harassd)
	spec    *benchkit.Spec
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	harassd string // harassd binary, built before any clock starts
	tmp     string // scratch directory, removed on every exit path
	// modelsDir, if set, holds classifiers already trained at
	// trainSeed; the smoke test trains once for all five workloads.
	modelsDir string
}

// window is a share of the run's measured seconds.
func (rc *runConfig) window(share float64) time.Duration {
	return time.Duration(share * rc.seconds * float64(time.Second))
}

// writeTrace writes a traced run's spans to
// <root>/.bench_build/trace-<workload>.json, beside the build outputs
// and out of version control's way.
func (rc *runConfig) writeTrace(o *outcome, workload string, tr *benchkit.Trace) error {
	dir := filepath.Join(rc.root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	o.notes["trace"] = fmt.Sprintf("%d spans in %s", tr.Len(), path)
	return nil
}

// outcome is what a workload measured.
type outcome struct {
	metrics           map[string]float64
	attempted, failed int64
	docs              int   // documents in the workload's input
	textBytes         int64 // their text, so docs/s converts to MB/s
	notes             map[string]string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, notes: map[string]string{}}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// fail counts n failed operations and remembers the first reason.
func (o *outcome) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.failed += n
	if _, seen := o.notes["first_failure"]; !seen {
		o.notes["first_failure"] = fmt.Sprintf(format, args...)
	}
}

var workloads = map[string]func(context.Context, *runConfig) (*outcome, error){
	"online-singles":     func(ctx context.Context, rc *runConfig) (*outcome, error) { return runOnline(ctx, rc, singles) },
	"online-batch":       func(ctx context.Context, rc *runConfig) (*outcome, error) { return runOnline(ctx, rc, batch) },
	"offline-rescore":    runOffline,
	"store-ingest-query": runStore,
	"paper-repro":        runPaper,
}

// report is the -out file: every run with where it was made, ending
// with the claim, which a benchmark-defining change leaves null.
type report struct {
	Machine benchkit.Machine `json:"machine"`
	Runs    []runReport      `json:"runs"`
	Claim   *string          `json:"claim"`
}

type runReport struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Docs      int                `json:"docs"`
	TextBytes int64              `json:"text_bytes"`
	Notes     map[string]string  `json:"notes,omitempty"`
	All       map[string]float64 `json:"measured"`
	Line      benchkit.Line      `json:"result"`
}

// cleanups run on every exit path: normal return, fatal error, signal.
var (
	cleanupMu sync.Mutex
	cleanups  []func()
)

func addCleanup(fn func()) {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	cleanups = append(cleanups, fn)
}

func runCleanups() {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
	cleanups = nil
}

func fatal(err error) {
	runCleanups()
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name from BENCHMARK.json, or all")
		seed     = flag.Uint64("seed", 7, "workload seed: corpus, shuffle and query choice (the classifier always trains at seed 1)")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (0 = run_seconds from BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run reporting the per-layer metrics")
		out      = flag.String("out", "", "also write the full JSON report (machine, every measured value, notes) here")
		smoke    = flag.Bool("smoke", false, "tiny corpus and ~1 s windows: checks the harness, measures nothing")
		aa       = flag.Int("aa", 0, "run two sets of N runs per workload (seeds seed..seed+N-1) of this same tree and compare them against the bounds")
		harassd  = flag.String("harassd", "", "prebuilt harassd binary (default: go build ./cmd/harassd into the scratch directory)")
		rootFlag = flag.String("root", "", "repository checkout (default: nearest parent of the working directory holding BENCHMARK.json)")
	)
	flag.Parse()
	if *workload == "none" {
		// Start-up probe: the process was executed only to time how
		// long the linked library takes to initialise.
		return
	}

	root, err := findRoot(*rootFlag)
	if err != nil {
		fatal(err)
	}
	spec, err := benchkit.LoadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
		if *smoke {
			*seconds = 1
		}
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}

	// A signal must not leave harassd or scratch directories behind.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		fatal(errors.New("interrupted"))
	}()

	names := []string{*workload}
	if *workload == "all" || *aa > 0 {
		names = nil
		for _, w := range spec.Workloads {
			if *workload == "all" || *workload == w.Name {
				names = append(names, w.Name)
			}
		}
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok || !spec.Workload(n) {
			fatal(fmt.Errorf("unknown workload %q (BENCHMARK.json declares %v)", n, workloadNames(spec)))
		}
	}

	if *aa > 0 {
		ok, err := runAA(root, spec, names, *seed, *aa, childFlags(*seconds, *smoke, *harassd))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	rep := report{Machine: benchkit.Fingerprint(root)}
	if len(names) == 1 {
		tmp, err := os.MkdirTemp("", "hbench-*")
		if err != nil {
			fatal(err)
		}
		addCleanup(func() { os.RemoveAll(tmp) })
		rr, err := runWorkload(context.Background(), &runConfig{
			root: root, spec: spec, seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke,
			harassd: *harassd, tmp: tmp,
		}, names[0])
		if err != nil {
			fatal(err)
		}
		runCleanups()
		rep.Runs = append(rep.Runs, *rr)
		if err := writeReport(*out, rep); err != nil {
			fatal(err)
		}
		printMeasured(spec, rr)
		line, _ := json.Marshal(rr.Line)
		fmt.Println(string(line))
		if !rr.Line.Correct {
			os.Exit(1)
		}
		return
	}

	// Several workloads: each runs in its own process so one workload's
	// memory high-water mark and page cache do not leak into the next.
	allCorrect := true
	for _, n := range names {
		for t := 0; t <= *trace; t++ {
			rr, err := runChild(root, n, *seed, t, childFlags(*seconds, *smoke, *harassd))
			if err != nil {
				fatal(err)
			}
			rep.Runs = append(rep.Runs, *rr)
			printMeasured(spec, rr)
			allCorrect = allCorrect && rr.Line.Correct
		}
	}
	if err := writeReport(*out, rep); err != nil {
		fatal(err)
	}
	summary, _ := json.Marshal(rep)
	fmt.Println(string(summary))
	if !allCorrect {
		os.Exit(1)
	}
}

func workloadNames(spec *benchkit.Spec) []string {
	var out []string
	for _, w := range spec.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// findRoot locates the repository checkout: the benchmark reads
// BENCHMARK.json from it and builds cmd/harassd in it.
func findRoot(explicit string) (string, error) {
	if explicit != "" {
		return filepath.Abs(explicit)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or any parent; pass -root")
		}
		dir = parent
	}
}

// runWorkload runs one workload as configured and turns what it
// measured into a report and the result line.
func runWorkload(ctx context.Context, rc *runConfig, name string) (*runReport, error) {
	spec, trace := rc.spec, rc.trace
	o, err := workloads[name](ctx, rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	o.set("env.nproc", float64(runtime.NumCPU()))
	o.set("env.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	o.set("input.docs", float64(o.docs))
	o.set("input.text_bytes", float64(o.textBytes))
	if o.attempted > 0 {
		o.set("run.fail_share", float64(o.failed)/float64(o.attempted))
	}

	declared, required := spec.EndToEnd, true
	if trace {
		declared, required = spec.PerLayer, false
	}
	selected, err := benchkit.Select(o.metrics, declared, required)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &runReport{
		Workload: name, Seed: rc.seed, Seconds: rc.seconds, Trace: trace,
		Docs: o.docs, TextBytes: o.textBytes, Notes: o.notes, All: o.metrics,
		Line: benchkit.Line{
			Correct:   o.failed == 0 && o.attempted > 0,
			Attempted: o.attempted,
			Failed:    o.failed,
			Metrics:   selected,
		},
	}, nil
}

// printMeasured lists every declared metric the run measured, by name
// with its unit, then the notes (flush policy, percentile levels and
// sample counts).
func printMeasured(spec *benchkit.Spec, rr *runReport) {
	fmt.Printf("# %s seed=%d seconds=%g trace=%v docs=%d text_bytes=%d\n",
		rr.Workload, rr.Seed, rr.Seconds, rr.Trace, rr.Docs, rr.TextBytes)
	for _, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
		if v, ok := rr.All[m.Name]; ok {
			fmt.Printf("%-36s %16.6g %s\n", m.Name, v, m.Unit)
		}
	}
	notes := make([]string, 0, len(rr.Notes))
	for k := range rr.Notes {
		notes = append(notes, k)
	}
	slices.Sort(notes)
	for _, k := range notes {
		fmt.Printf("# %s: %s\n", k, rr.Notes[k])
	}
	fmt.Printf("# attempted=%d failed=%d correct=%v\n", rr.Line.Attempted, rr.Line.Failed, rr.Line.Correct)
}

func writeReport(path string, rep report) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// childFlags are the flags a re-executed run inherits.
func childFlags(seconds float64, smoke bool, harassd string) []string {
	args := []string{"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
	if smoke {
		args = append(args, "-smoke")
	}
	if harassd != "" {
		args = append(args, "-harassd", harassd)
	}
	return args
}

// runChild re-executes this binary for one workload run and reads its
// report back.
func runChild(root, name string, seed uint64, trace int, extra []string) (*runReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp("", "hbench-report-*.json")
	if err != nil {
		return nil, err
	}
	f.Close()
	defer os.Remove(f.Name())
	args := append([]string{
		"-root", root, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-trace", strconv.Itoa(trace), "-out", f.Name(),
	}, extra...)
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	data, err := os.ReadFile(f.Name())
	var rep report
	if err != nil || json.Unmarshal(data, &rep) != nil || len(rep.Runs) != 1 {
		return nil, fmt.Errorf("%s (seed %d, trace %d) produced no report: %v\n%s", name, seed, trace, runErr, stdout.Bytes())
	}
	return &rep.Runs[0], nil
}
