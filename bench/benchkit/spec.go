// Package benchkit holds the measurement helpers of the repo's
// benchmark (../): the BENCHMARK.json schema, the result line, machine
// fingerprint, percentiles with an explicit sample-count rule, a
// constant-rate open-loop scheduler that times from the due instant,
// /proc readers and in-memory span recording with self-time
// computation. Nothing here knows about the system under test.
package benchkit

import (
	"encoding/json"
	"fmt"
	"os"
)

// MetricSpec is one metric declared in BENCHMARK.json. Bound is set
// only for end-to-end metrics.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// WorkloadSpec names one workload and why it exists.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec is BENCHMARK.json: the contract between the benchmark and
// whoever runs it.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`
}

// LoadSpec reads and sanity-checks BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 || s.RunSeconds <= 0 {
		return nil, fmt.Errorf("%s: workloads, end_to_end, per_layer and run_seconds are all required", path)
	}
	return &s, nil
}

// Workload reports whether name is a declared workload.
func (s *Spec) Workload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
