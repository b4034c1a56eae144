package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"harassrepro/internal/obs"
)

// Stage is one named processing step applied to every item. Stages run
// in declaration order, each once per item, on a private copy of the
// item that is committed back only on success, so a failing stage
// never leaves a half-mutated document behind: a Degradable stage that
// panics halfway through writing its fields is still emitted, without
// those writes.
//
// Stage functions must treat the item's existing field values as
// read-only inputs (replace slices, don't write into shared backing
// arrays): the private copy is shallow, so a failed stage's writes
// through a slice or pointer it copied would survive into the committed
// item.
type Stage[T any] struct {
	// Name identifies the stage in dead letters and degradation marks.
	Name string
	// Degradable means a failure annotates the item as degraded
	// (Result.Degraded) instead of quarantining it.
	Degradable bool
	// Fn processes the item. index is the item's position in the
	// input stream; stages derive their deterministic per-item
	// randomness from it.
	Fn func(ctx context.Context, index int, item *T) error
}

// Config configures a Runner.
type Config[T any] struct {
	// Workers bounds the worker pool. 0 means GOMAXPROCS.
	Workers int
	// Describe, if set, labels items in dead letters (typically the
	// document ID).
	Describe func(*T) string
	// Metrics, if set, receives per-stage attempt/panic/failure
	// counters, per-stage latency histograms and per-status item
	// counters (see obs.go for the catalog and its reconciliation
	// identities). The hot path stays allocation-free either way.
	Metrics *obs.Registry
}

// Runner executes a fixed stage pipeline over a stream of items on a
// bounded worker pool (Process, RunSlice) or one item at a time on the
// caller's goroutine (RunItem). A Runner is immutable and safe for
// concurrent use; each Process call is an independent run.
type Runner[T any] struct {
	cfg     Config[T]
	stages  []Stage[T]
	metrics *runnerMetrics
}

// NewRunner builds a Runner over the given stages.
func NewRunner[T any](cfg Config[T], stages ...Stage[T]) *Runner[T] {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	r := &Runner[T]{cfg: cfg, stages: stages}
	if cfg.Metrics != nil {
		names := make([]string, len(stages))
		for i, st := range stages {
			names[i] = st.Name
		}
		r.metrics = newRunnerMetrics(cfg.Metrics, names)
	}
	return r
}

// work is one accepted item on its way to a worker, with the reply
// channel its result goes back on.
type work[T any] struct {
	index int
	item  T
	reply chan Result[T]
}

// Process consumes items from in and returns a channel of per-item
// results in input order. The results channel is closed once every
// accepted item has been emitted and must be drained until closed.
// When ctx is cancelled, in-flight items finish their current stage,
// remaining input is not consumed, and the channel closes early: the
// caller observes a contiguous in-order prefix of the input.
//
// Ordering costs no per-item allocation: a fixed window of 4x workers
// reply channels (capacity 1 each) cycles from free, to the feeder,
// which hands one to the item's worker and queues it in input order,
// to the emitter, which waits on the oldest and then frees it. The
// window also bounds the items in flight.
func (r *Runner[T]) Process(ctx context.Context, in <-chan T) <-chan Result[T] {
	started := time.Now()
	window := 4 * r.cfg.Workers
	free := make(chan chan Result[T], window)
	for i := 0; i < window; i++ {
		free <- make(chan Result[T], 1)
	}
	// Only window reply channels exist, so sends to pending and free
	// never block.
	pending := make(chan chan Result[T], window)
	workCh := make(chan work[T], r.cfg.Workers)
	out := make(chan Result[T], r.cfg.Workers)

	// Feeder: assigns stream indexes in arrival order. An item is
	// accepted once a worker can receive it; every accepted item is
	// queued for emission, even after cancellation.
	go func() {
		defer close(pending)
		defer close(workCh)
		for index := 0; ; index++ {
			var wk work[T]
			select {
			case <-ctx.Done():
				return
			case item, ok := <-in:
				if !ok {
					return
				}
				wk = work[T]{index: index, item: item}
			}
			select {
			case wk.reply = <-free:
			case <-ctx.Done():
				return
			}
			select {
			case workCh <- wk:
				pending <- wk.reply
			case <-ctx.Done():
				return
			}
		}
	}()

	for w := 0; w < r.cfg.Workers; w++ {
		go func() {
			for wk := range workCh {
				wk.reply <- r.RunItem(ctx, wk.index, wk.item)
			}
		}()
	}

	go func() {
		defer close(out)
		n := 0
		for reply := range pending {
			out <- <-reply
			free <- reply
			n++
		}
		r.recordRun(started, n)
	}()
	return out
}

// RunSlice processes items and returns the results in input order,
// with an aggregate summary. Workers claim indexes in order and write
// each result into its slot. On cancellation no further index is
// claimed: the results cover the completed prefix and err is the
// context error.
func (r *Runner[T]) RunSlice(ctx context.Context, items []T) ([]Result[T], Summary, error) {
	started := time.Now()
	results := make([]Result[T], len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(r.cfg.Workers, len(items)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				results[i] = r.RunItem(ctx, i, items[i])
			}
		}()
	}
	wg.Wait()
	// Every claimed index completed, so the claimed ones form a prefix.
	results = results[:min(int(next.Load()), len(items))]
	r.recordRun(started, len(results))
	var sum Summary
	for _, res := range results {
		sum.Add(res.Status, res.Dead)
	}
	return results, sum, ctx.Err()
}

// recordRun sets the last-run gauges for a Process or RunSlice run
// that completed n items.
func (r *Runner[T]) recordRun(started time.Time, n int) {
	if r.metrics == nil {
		return
	}
	elapsed := time.Since(started).Seconds()
	r.metrics.runSec.Set(elapsed)
	if elapsed > 0 {
		r.metrics.docsPS.Set(float64(n) / elapsed)
	}
}

// RunItem applies every stage to one item on the caller's goroutine,
// with panic recovery, degradation and quarantine: the path Process
// runs on each worker, for callers that own their concurrency (the
// scoring service runs it on the request's goroutine). index is the
// item's identity for the stages' per-item randomness, so the result
// equals what Process or RunSlice yields for the same item at that
// stream position.
func (r *Runner[T]) RunItem(ctx context.Context, index int, item T) Result[T] {
	res := Result[T]{Index: index, Status: StatusOK}
	for si, st := range r.stages {
		err := r.runStage(ctx, st, si, index, &item)
		if err == nil {
			continue
		}
		if st.Degradable {
			res.Status = StatusDegraded
			res.Degraded = append(res.Degraded, st.Name)
			continue
		}
		dl := &DeadLetter{Index: index, Stage: st.Name, Err: err}
		if r.cfg.Describe != nil {
			dl.ID = r.cfg.Describe(&item)
		}
		res.Status = StatusQuarantined
		res.Dead = dl
		break
	}
	res.Item = item
	if r.metrics != nil {
		r.metrics.items[res.Status].Inc()
	}
	return res
}

// runStage runs one stage once and returns its error (nil on success).
// si is the stage's index into r.stages, used to resolve its metric
// handles.
func (r *Runner[T]) runStage(ctx context.Context, st Stage[T], si, index int, item *T) error {
	var sm *stageMetrics
	var t0 time.Time
	if r.metrics != nil {
		sm = &r.metrics.stages[si]
		sm.attempts.Inc()
		t0 = time.Now()
	}
	err := runIsolated(ctx, st, index, item)
	if sm != nil {
		sm.latency.Observe(time.Since(t0).Nanoseconds())
	}
	if err == nil {
		return nil
	}
	if sm != nil {
		sm.errors.Inc()
		var pe *PanicError
		if errors.As(err, &pe) {
			sm.panics.Inc()
		}
	}
	if ctx.Err() != nil {
		return fmt.Errorf("cancelled: %w", err)
	}
	if sm != nil {
		sm.failures.Inc()
	}
	return err
}

// runIsolated runs st inline on a private copy of the item, committing
// the copy back only on success; a recovered panic is returned as
// *PanicError.
func runIsolated[T any](ctx context.Context, st Stage[T], index int, item *T) (err error) {
	scratch := *item
	defer func() {
		if v := recover(); v != nil {
			err = capturePanic(v)
		}
	}()
	if err = st.Fn(ctx, index, &scratch); err == nil {
		*item = scratch
	}
	return err
}
