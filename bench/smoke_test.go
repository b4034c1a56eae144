package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	harassrepro "harassrepro"
	"harassrepro/bench/benchkit"
)

// processStart re-executes the running binary as a no-op to time
// package initialisation; under go test that binary is this one.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-workload" && os.Args[2] == "none" {
		return
	}
	os.Exit(m.Run())
}

// TestSmokeAllWorkloads runs all five workloads in -smoke mode, each as
// a traced run (which measures the end-to-end figures too, over shorter
// windows), and checks what comes out against BENCHMARK.json: every
// declared end-to-end metric from every workload, every per-layer
// metric from the workloads that execute that layer and from no other,
// nothing undeclared, every output verified.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns harassd and trains a classifier")
	}
	start := time.Now()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := benchkit.LoadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	t.Cleanup(runCleanups)

	harassd := filepath.Join(tmp, "harassd")
	build := exec.Command("go", "build", "-o", harassd, "./cmd/harassd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/harassd: %v\n%s", err, out)
	}
	study, err := harassrepro.Run(harassrepro.QuickConfig(trainSeed))
	if err != nil {
		t.Fatal(err)
	}
	modelsDir := filepath.Join(tmp, "models")
	if err := study.SaveModels(modelsDir); err != nil {
		t.Fatal(err)
	}

	// Sentinels: a metric of each layer, and the workloads that run it.
	onlyOn := map[string][]string{
		"http.roundtrip_us":              {"online-singles", "online-batch"},
		"serve.self_us":                  {"online-singles", "online-batch"},
		"loadgen.late_share":             {"online-singles", "online-batch"},
		"trace.overhead_pct":             {"online-singles", "online-batch"},
		"waterfall.online_residual_pct":  {"online-singles", "online-batch"},
		"taxonomy.ns_per_doc":            {"online-batch"},
		"pii.clean_share":                {"online-batch"},
		"query.ns_per_doc":               {"online-batch"},
		"tokenize.ns_per_doc":            {"online-singles", "online-batch", "offline-rescore"},
		"resilience.self_ns_per_doc":     {"online-singles", "online-batch", "offline-rescore"},
		"corpus.jsonl_decode_mb_per_s":   {"online-batch", "store-ingest-query"},
		"quality.f1_cth":                 {"offline-rescore"},
		"sink.encode_ns_per_doc":         {"offline-rescore"},
		"waterfall.offline_residual_pct": {"offline-rescore"},
		"store.scan_mb_per_s":            {"offline-rescore", "store-ingest-query"},
		"store.commit_ms_p50":            {"store-ingest-query"},
		"store.disk_bytes_per_text_byte": {"store-ingest-query"},
		"store.query_not_us":             {"store-ingest-query"},
		"graph.hits":                     {"paper-repro"},
		"core.slowest_experiment_s":      {"paper-repro"},
	}

	declared := map[string]bool{}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, m := range append(append([]benchkit.MetricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		declared[m.Name] = true
		if !nameRE.MatchString(m.Name) {
			t.Errorf("declared metric name %q", m.Name)
		}
	}
	measuredBy := map[string][]string{}

	for _, w := range spec.Workloads {
		rc := &runConfig{
			root: root, spec: spec, seed: 7, seconds: 1, trace: true, smoke: true,
			harassd: harassd, tmp: filepath.Join(tmp, w.Name), modelsDir: modelsDir,
		}
		if err := os.MkdirAll(rc.tmp, 0o755); err != nil {
			t.Fatal(err)
		}
		rr, err := runWorkload(context.Background(), rc, w.Name)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rr.Line.Correct || rr.Line.Attempted < 1 || rr.Line.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %s", w.Name, rr.Line.Correct, rr.Line.Attempted, rr.Line.Failed, rr.Notes["first_failure"])
		}
		// The traced result line: exactly the per-layer metrics.
		if len(rr.Line.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s: traced line has %d metrics, BENCHMARK.json declares %d per-layer", w.Name, len(rr.Line.Metrics), len(spec.PerLayer))
		}
		for _, m := range spec.PerLayer {
			if v, ok := rr.Line.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s missing from the traced line or in unit %q, want %q", w.Name, m.Name, v.Unit, m.Unit)
			}
		}
		// The end-to-end line: every metric, measured and never zero.
		e2e, err := benchkit.Select(rr.All, spec.EndToEnd, true)
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		for name, v := range e2e {
			if !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, name, v.Value)
			}
		}
		for name := range rr.All {
			if !declared[name] {
				t.Errorf("%s measured %q, which BENCHMARK.json does not declare", w.Name, name)
			}
			measuredBy[name] = append(measuredBy[name], w.Name)
		}
		line, err := json.Marshal(rr.Line)
		if err != nil {
			t.Errorf("%s: result line does not encode: %v", w.Name, err)
		}
		var back benchkit.Line
		if err := json.Unmarshal(line, &back); err != nil || back.Attempted != rr.Line.Attempted {
			t.Errorf("%s: result line does not round-trip: %v", w.Name, err)
		}
		// The traced run leaves its spans behind.
		data, err := os.ReadFile(filepath.Join(root, ".bench_build", "trace-"+w.Name+".json"))
		var tr struct {
			Spans []benchkit.Span `json:"spans"`
		}
		if err != nil || json.Unmarshal(data, &tr) != nil || len(tr.Spans) == 0 {
			t.Errorf("%s: no readable trace file with spans (%v)", w.Name, err)
		}
	}

	for _, m := range spec.PerLayer {
		if len(measuredBy[m.Name]) == 0 {
			t.Errorf("per-layer metric %s is declared but no workload measures it", m.Name)
		}
	}
	for name, want := range onlyOn {
		got := measuredBy[name]
		if len(got) != len(want) {
			t.Errorf("%s measured by %v, want exactly %v", name, got, want)
			continue
		}
		for i := range want { // both in BENCHMARK.json workload order
			if got[i] != want[i] {
				t.Errorf("%s measured by %v, want exactly %v", name, got, want)
				break
			}
		}
	}
	t.Logf("five traced smoke runs in %.1f s", time.Since(start).Seconds())
}

// A directory that holds only BENCHMARK.json and the benchmark's own
// files has nothing to measure: the run must fail, quickly, printing no
// result.
func TestRefusesToRunWithoutTheRepository(t *testing.T) {
	dir := t.TempDir()
	if _, err := findRoot(""); err != nil {
		t.Fatalf("inside the repository findRoot failed: %v", err)
	}
	cwd, _ := os.Getwd()
	defer os.Chdir(cwd)
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	if root, err := findRoot(""); err == nil {
		t.Errorf("findRoot in an empty directory = %q, want an error", root)
	}
}
