package benchkit

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestSelect(t *testing.T) {
	declared := []MetricSpec{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "count"}}
	got, err := Select(map[string]float64{"a": 1.5, "extra": 9}, declared, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["a"] != (Value{1.5, "ms"}) || got["b"] != (Value{0, "count"}) {
		t.Errorf("Select = %v, want a measured, b reading 0, nothing undeclared", got)
	}
	if _, err := Select(map[string]float64{"a": 1.5}, declared, true); err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Errorf("a missing required metric gave %v, want an error naming it", err)
	}
}

// The result line has exactly the four keys of the contract.
func TestLineKeys(t *testing.T) {
	data, err := json.Marshal(Line{Correct: true, Attempted: 3, Metrics: map[string]Value{"x": {1, "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line %s, want exactly correct, attempted, failed, metrics", data)
	}
}

func TestFingerprint(t *testing.T) {
	m := Fingerprint(t.TempDir())
	if m.NProc < 1 || m.GOMAXPROCS < 1 || m.GoVersion == "" {
		t.Errorf("fingerprint %+v lacks the basics", m)
	}
	if m.Commit != "unknown" {
		t.Errorf("commit %q for a directory that is no repository, want unknown", m.Commit)
	}
	if got := cpuModel("processor\t: 0\nmodel name\t: Example CPU @ 2.00GHz\nflags\t: fpu\n"); got != "Example CPU @ 2.00GHz" {
		t.Errorf("cpuModel = %q", got)
	}
}

// BENCHMARK.json must stay inside the limits its consumers enforce.
func TestBenchmarkJSONWithinContract(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	if _, err := os.Stat(path); err != nil {
		t.Skipf("no %s: not running inside the repository", path)
	}
	spec, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("%d top-level keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(keys))
	}
	if len(raw) > 64<<10 {
		t.Errorf("%d bytes, limit 64 KiB", len(raw))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	for _, w := range spec.Workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s with unit s, better lower")
	}
	for _, m := range append(append([]MetricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		check("per-layer metric", m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", spec.RunSeconds)
	}
	if n := len(spec.Command); n < 1 || n > 32 {
		t.Errorf("command of %d strings", n)
	}
	for _, p := range spec.Paths {
		if _, err := os.Stat(filepath.Join("..", "..", p)); err != nil {
			t.Errorf("path %q: %v", p, err)
		}
	}
}
