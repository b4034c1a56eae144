package benchkit

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Value is one measured metric. The value keeps every digit measured.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the result object a run prints as the last line of standard
// output: exactly these four keys.
type Line struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Select builds the result line for the declared metrics. A missing
// end-to-end metric is an error (every workload reports every one); a
// missing per-layer metric is a layer the workload does not execute
// and reads 0.
func Select(all map[string]float64, declared []MetricSpec, required bool) (map[string]Value, error) {
	out := make(map[string]Value, len(declared))
	for _, m := range declared {
		v, ok := all[m.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %q was not measured", m.Name)
		}
		out[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	return out, nil
}

// Machine identifies where and on what tree a result was produced, so
// two results are only compared when these match.
type Machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// Fingerprint reads the machine and tree identity. Fields that cannot
// be read say "unknown"; root is the repository checkout.
func Fingerprint(root string) Machine {
	m := Machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		m.CPUModel = cpuModel(string(b))
	}
	// A driver checkout is not a git repository; the commit is then
	// unknown rather than an error.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			m.Commit = string(bytes.TrimSpace(out))
		}
	}
	return m
}

func cpuModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
