// Package obs is the observability core for the streaming measurement
// pipeline: allocation-free counters, gauges and fixed-bucket
// histograms behind a snapshot-on-read registry, plus Prometheus/JSON
// encoders (encode.go).
//
// The paper's measurement system is judged by what it can account
// for — per-platform volumes, filter hit rates, queue health — and a
// production deployment of the reproduction needs the same
// introspection without perturbing the hot path it observes. Every
// mutation here is a single atomic operation on a pre-registered
// handle: registration (NewCounter, NewHistogram, ...) allocates and
// takes a lock exactly once, after which Inc/Add/Set/Observe are
// lock-free and allocation-free and safe for any number of concurrent
// writers. Snapshot reads the atomics into plain values without
// stopping writers; totals read after all writers have finished are
// exact (the race tests pin this).
//
// The package depends only on the standard library; it must never grow
// a dependency on the pipeline packages it observes.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. {Name: "stage", Value: "score-cth"}.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing uint64. The zero value is
// usable, but counters obtained from a Registry are what Snapshot and
// the encoders see.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down (stored as IEEE bits in a
// uint64). NaN and infinities are representable; the encoders render
// them per Prometheus conventions.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram over int64 observations
// (typically nanoseconds or byte sizes). Bounds are inclusive upper
// bounds in strictly increasing order; one implicit overflow bucket
// (+Inf) follows the last bound. Observe is lock-free: one atomic add
// into the bucket and one into the running sum.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.counts[bucketIndex(h.bounds, v)].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// bucketIndex returns the index of the bucket v falls into: the first
// bound >= v, or len(bounds) for the overflow bucket. bounds must be
// strictly increasing. Linear scan: bucket lists are short (tens of
// entries) and the loop is branch-predictable, which beats binary
// search at this size; the fuzz target holds it equal to the
// sort.Search reference on arbitrary bounds.
func bucketIndex(bounds []int64, v int64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

// DurationBuckets is the default latency bucket layout in nanoseconds:
// 1µs to 10s in 1-2-5 steps — wide enough for a regex stage and a
// retried remote call alike.
func DurationBuckets() []int64 {
	var out []int64
	for _, scale := range []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9} {
		out = append(out, scale, 2*scale, 5*scale)
	}
	return append(out, 1e10)
}

// metric is one registered instrument.
type metric struct {
	name   string
	help   string
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

func (m *metric) kind() string {
	switch {
	case m.c != nil:
		return "counter"
	case m.g != nil:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds registered metrics. Registration is idempotent: asking
// for the same (name, labels) again returns the same instrument, so
// independent subsystems can share a registry without coordination.
// Asking for the same key as a different kind panics — that is a
// programming error, not a runtime condition.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*metric
	order []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*metric{}}
}

// key builds the registration key. Label order is significant by
// design: callers register each metric from one place.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	for _, l := range labels {
		sb.WriteByte(0xff)
		sb.WriteString(l.Name)
		sb.WriteByte(0xfe)
		sb.WriteString(l.Value)
	}
	return sb.String()
}

func (r *Registry) register(name, help string, labels []Label, build func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(name, labels)
	if m, ok := r.byKey[k]; ok {
		return m
	}
	m := build()
	m.name, m.help = name, help
	m.labels = append([]Label(nil), labels...)
	r.byKey[k] = m
	r.order = append(r.order, m)
	return m
}

// NewCounter registers (or returns the existing) counter.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	m := r.register(name, help, labels, func() *metric { return &metric{c: &Counter{}} })
	if m.c == nil {
		panic(fmt.Sprintf("obs: %s already registered as a %s", name, m.kind()))
	}
	return m.c
}

// NewGauge registers (or returns the existing) gauge.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	m := r.register(name, help, labels, func() *metric { return &metric{g: &Gauge{}} })
	if m.g == nil {
		panic(fmt.Sprintf("obs: %s already registered as a %s", name, m.kind()))
	}
	return m.g
}

// NewHistogram registers (or returns the existing) histogram with the
// given inclusive upper bounds, which must be strictly increasing and
// non-empty. A re-registration ignores the passed bounds and returns
// the original instrument.
func (r *Registry) NewHistogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	m := r.register(name, help, labels, func() *metric {
		if len(bounds) == 0 {
			panic("obs: histogram " + name + " needs at least one bucket bound")
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %s bounds not strictly increasing at %d", name, i))
			}
		}
		h := &Histogram{bounds: append([]int64(nil), bounds...)}
		h.counts = make([]atomic.Uint64, len(h.bounds)+1)
		return &metric{h: h}
	})
	if m.h == nil {
		panic(fmt.Sprintf("obs: %s already registered as a %s", name, m.kind()))
	}
	return m.h
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// LE is the inclusive upper bound as a decimal string, or "+Inf"
	// for the overflow bucket.
	LE string `json:"le"`
	// Count is the cumulative count of observations <= LE.
	Count uint64 `json:"count"`
}

// Metric is one instrument's state in a snapshot.
type Metric struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Help    string   `json:"help,omitempty"`
	Labels  []Label  `json:"labels,omitempty"`
	Value   *Float   `json:"value,omitempty"` // counter, gauge
	Count   uint64   `json:"count,omitempty"` // histogram
	Sum     int64    `json:"sum,omitempty"`   // histogram
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time read of a registry, sorted by metric name
// then labels for deterministic output.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot reads every registered instrument. Writers are not stopped:
// values read while writers are active may lag each other by in-flight
// operations, but a snapshot taken after all writers finished is exact.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.order...)
	r.mu.Unlock()

	out := Snapshot{Metrics: make([]Metric, 0, len(metrics))}
	for _, m := range metrics {
		ms := Metric{Name: m.name, Kind: m.kind(), Help: m.help, Labels: m.labels}
		switch {
		case m.c != nil:
			v := Float(m.c.Value())
			ms.Value = &v
		case m.g != nil:
			v := Float(m.g.Value())
			ms.Value = &v
		case m.h != nil:
			var cum uint64
			for i := range m.h.counts {
				cum += m.h.counts[i].Load()
				le := "+Inf"
				if i < len(m.h.bounds) {
					le = fmt.Sprintf("%d", m.h.bounds[i])
				}
				ms.Buckets = append(ms.Buckets, Bucket{LE: le, Count: cum})
			}
			ms.Count = cum
			ms.Sum = m.h.Sum()
		}
		out.Metrics = append(out.Metrics, ms)
	}
	sort.SliceStable(out.Metrics, func(i, j int) bool {
		a, b := out.Metrics[i], out.Metrics[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return labelString(a.Labels) < labelString(b.Labels)
	})
	return out
}

func labelString(labels []Label) string {
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(l.Name)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
		sb.WriteByte(',')
	}
	return sb.String()
}
