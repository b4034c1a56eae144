// Package graph is a memoized artifact graph for deterministic
// pipelines. Each pipeline stage is a named node with declared
// dependencies and a compute function; the first Get computes the
// artifact (resolving dependencies recursively) and every later Get —
// from any goroutine — returns the memoized result. Concurrent callers
// of an in-flight node block on its latch rather than recomputing, so
// each artifact is computed exactly once per graph no matter how many
// stages or experiments declare it as an input.
//
// Determinism contract: a node's compute function must derive all of
// its randomness from a pure randx split keyed by the stage name (never
// a shared sequential rng), so its output is a function of the graph
// key (stage, seed, config fingerprint) alone. Under that discipline
// memoization and concurrent scheduling are unobservable in outputs.
//
// Scheduling is delegated to resilience.Runner (bounded workers, panic
// isolation, dead-letter reporting): Prefetch fans independent nodes
// out across the pool while dependency order is enforced by the nodes'
// own latches. Per-stage obs metrics record computes (cache misses),
// hits, and compute latency.
package graph

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"harassrepro/internal/obs"
	"harassrepro/internal/resilience"
)

// Config configures a Graph.
type Config struct {
	// Seed is the pipeline seed; part of every node's memoization key.
	Seed uint64
	// Fingerprint identifies the pipeline configuration (use
	// Fingerprint); part of every node's memoization key.
	Fingerprint string
	// Metrics, if set, receives graph_stage_computes_total,
	// graph_stage_hits_total and graph_stage_compute_ns per stage.
	Metrics *obs.Registry
	// Workers bounds Prefetch's worker pool. 0 means GOMAXPROCS.
	Workers int
}

// Fingerprint returns a short stable hash of the value's %+v rendering,
// for use as a Config.Fingerprint over flat config structs.
func Fingerprint(v any) string {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range []byte(fmt.Sprintf("%+v", v)) {
		h ^= uint64(b)
		h *= prime64
	}
	return fmt.Sprintf("%016x", h)
}

type nodeState int

const (
	idle nodeState = iota
	running
	done
)

// node is one registered stage.
type node struct {
	name string
	deps []string
	fn   func() (any, error)

	mu    sync.Mutex
	state nodeState
	latch chan struct{} // closed when state becomes done
	val   any
	err   error

	computes uint64 // cache misses (fn invocations), guarded by mu
	hits     uint64 // memoized Gets, guarded by mu

	mComputes *obs.Counter
	mHits     *obs.Counter
	mLatency  *obs.Histogram
}

// Graph is a set of registered nodes. Registration is not safe for
// concurrent use; Get and Prefetch are.
type Graph struct {
	cfg   Config
	nodes map[string]*node
	order []string // registration order (topological by construction)
}

// New returns an empty graph.
func New(cfg Config) *Graph {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &Graph{cfg: cfg, nodes: map[string]*node{}}
}

// Register adds a named node. Dependencies must already be registered —
// the rule that keeps the graph acyclic by construction — and names
// must be unique; violations panic, since registration happens in
// static pipeline-definition code.
func (g *Graph) Register(name string, deps []string, fn func() (any, error)) {
	if _, ok := g.nodes[name]; ok {
		panic(fmt.Sprintf("graph: duplicate node %q", name))
	}
	for _, d := range deps {
		if _, ok := g.nodes[d]; !ok {
			panic(fmt.Sprintf("graph: node %q depends on unregistered %q", name, d))
		}
	}
	n := &node{name: name, deps: append([]string(nil), deps...), fn: fn, latch: make(chan struct{})}
	if r := g.cfg.Metrics; r != nil {
		lbl := obs.L("stage", name)
		n.mComputes = r.NewCounter("graph_stage_computes_total", "artifact computations (cache misses) per stage", lbl)
		n.mHits = r.NewCounter("graph_stage_hits_total", "memoized artifact reads per stage", lbl)
		n.mLatency = r.NewHistogram("graph_stage_compute_ns", "artifact compute latency", obs.DurationBuckets(), lbl)
	}
	g.nodes[name] = n
	g.order = append(g.order, name)
}

// Key returns the node's deterministic memoization key:
// name@seed+config-fingerprint. Two graphs agree on a key exactly when
// the node would compute the identical artifact.
func (g *Graph) Key(name string) string {
	return fmt.Sprintf("%s@%d+%s", name, g.cfg.Seed, g.cfg.Fingerprint)
}

// Get returns the node's artifact, computing it on first use. If
// another goroutine is already computing the node, Get blocks until
// that computation finishes and returns its memoized result — waiting
// only ever targets an actively running computation, so bounded worker
// pools calling into Get cannot deadlock. A compute panic is captured
// as the node's memoized error (every waiter sees it; nothing hangs).
func (g *Graph) Get(name string) (any, error) {
	n := g.nodes[name]
	if n == nil {
		return nil, fmt.Errorf("graph: unknown node %q", name)
	}
	n.mu.Lock()
	switch n.state {
	case done:
		n.hits++
		n.mu.Unlock()
		if n.mHits != nil {
			n.mHits.Inc()
		}
		return n.val, n.err
	case running:
		n.hits++
		n.mu.Unlock()
		if n.mHits != nil {
			n.mHits.Inc()
		}
		<-n.latch
		return n.val, n.err
	}
	n.state = running
	n.computes++
	n.mu.Unlock()

	val, err := g.runNode(n)

	n.mu.Lock()
	n.val, n.err = val, err
	n.state = done
	n.mu.Unlock()
	close(n.latch)
	return val, err
}

// runNode resolves the node's declared dependencies (each a memoized
// Get, so a fn may rely on its inputs being materialized even if it
// never calls Get itself), then invokes the compute function with
// panic capture and latency metrics.
func (g *Graph) runNode(n *node) (val any, err error) {
	for _, d := range n.deps {
		if _, err := g.Get(d); err != nil {
			return nil, fmt.Errorf("graph: %s: dependency %s: %w", n.name, d, err)
		}
	}
	start := time.Now()
	defer func() {
		if n.mLatency != nil {
			n.mLatency.Observe(time.Since(start).Nanoseconds())
		}
		if r := recover(); r != nil {
			err = fmt.Errorf("graph: stage %s panicked: %v", n.name, r)
		}
	}()
	if n.mComputes != nil {
		n.mComputes.Inc()
	}
	return n.fn()
}

// GetAs returns the node's artifact asserted to type T.
func GetAs[T any](g *Graph, name string) (T, error) {
	v, err := g.Get(name)
	if err != nil {
		var zero T
		return zero, err
	}
	t, ok := v.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("graph: node %q holds %T, not %T", name, v, zero)
	}
	return t, nil
}

// StageStat is one node's cache accounting.
type StageStat struct {
	Name     string
	Computes uint64 // fn invocations (cache misses)
	Hits     uint64 // memoized reads
}

// Stats returns per-node compute/hit counts in registration order.
func (g *Graph) Stats() []StageStat {
	out := make([]StageStat, 0, len(g.order))
	for _, name := range g.order {
		n := g.nodes[name]
		n.mu.Lock()
		out = append(out, StageStat{Name: name, Computes: n.computes, Hits: n.hits})
		n.mu.Unlock()
	}
	return out
}

// Prefetch computes the named nodes (all registered nodes when none
// are given) concurrently on a resilience.Runner: bounded workers,
// panic isolation, one dead letter per failing node instead of an
// aborted run. Dependency order needs no scheduling — a worker that
// reaches a node whose dependency is mid-compute blocks on that node's
// latch, and one that arrives first computes it inline. Returns a
// combined *Errors when any node failed.
func (g *Graph) Prefetch(ctx context.Context, names ...string) error {
	if len(names) == 0 {
		names = g.order
	}
	r := resilience.NewRunner[string](resilience.Config[string]{
		Workers:  g.cfg.Workers,
		Metrics:  g.cfg.Metrics,
		Describe: func(s *string) string { return *s },
	}, resilience.Stage[string]{
		Name: "graph-compute",
		Fn: func(ctx context.Context, _ int, name *string) error {
			_, err := g.Get(*name)
			return err
		},
	})
	results, _, err := r.RunSlice(ctx, names)
	if err != nil {
		return err
	}
	failed := map[string]error{}
	for _, res := range results {
		if res.Dead != nil {
			failed[res.Item] = res.Dead.Err
		}
	}
	if len(failed) > 0 {
		return &Errors{Failed: failed}
	}
	return nil
}

// Errors aggregates per-node failures from a Prefetch.
type Errors struct {
	Failed map[string]error
}

// Error lists the failed nodes in sorted order.
func (e *Errors) Error() string {
	names := make([]string, 0, len(e.Failed))
	for n := range e.Failed {
		names = append(names, n)
	}
	sort.Strings(names)
	msg := fmt.Sprintf("graph: %d stage(s) failed:", len(names))
	for _, n := range names {
		msg += fmt.Sprintf("\n  %s: %v", n, e.Failed[n])
	}
	return msg
}
