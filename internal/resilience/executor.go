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
	"harassrepro/internal/randx"
)

// Stage is one named processing step applied to every item. Stages run
// in declaration order; each attempt operates on a private copy of the
// item that is committed back only on success, so a failing or
// timed-out attempt never leaves a half-mutated document behind.
//
// Stage functions must treat the item's existing field values as
// read-only inputs (replace slices, don't append into shared backing
// arrays): a timed-out attempt is abandoned, not killed, and its
// goroutine keeps its own copy until it returns.
type Stage[T any] struct {
	// Name identifies the stage in dead letters and degradation marks.
	Name string
	// Transient marks every failure of this stage retryable by
	// default; Transient/Permanent error markers override per error.
	Transient bool
	// Degradable means a permanent failure annotates the item as
	// degraded (Result.Degraded) instead of quarantining it.
	Degradable bool
	// Timeout is the per-attempt deadline. 0 means no deadline. A
	// timed-out attempt fails with context.DeadlineExceeded and is
	// retried like any other transient failure when the stage allows.
	Timeout time.Duration
	// Fn processes the item. index is the item's position in the
	// input stream; combined with the runner seed it lets stages
	// derive deterministic per-item randomness.
	Fn func(ctx context.Context, index int, item *T) error
}

// Config configures a Runner.
type Config[T any] struct {
	// Workers bounds the worker pool. 0 means GOMAXPROCS.
	Workers int
	// Seed drives retry jitter (and is conventionally shared with the
	// stages' own per-item randomness derivation).
	Seed uint64
	// Retry is the backoff policy for retryable failures.
	Retry RetryPolicy
	// Ordered makes the results channel yield items in input order
	// (with a bounded reordering window of 4x workers) instead of
	// completion order.
	Ordered bool
	// Describe, if set, labels items in dead letters (typically the
	// document ID).
	Describe func(*T) string
	// Metrics, if set, receives per-stage attempt/retry/panic/failure
	// counters, per-attempt latency histograms and per-status item
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
	cfg.Retry = cfg.Retry.withDefaults()
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

type work[T any] struct {
	index int
	item  T
}

// Process consumes items from in and returns a channel of per-item
// results. The results channel is closed once every accepted item has
// completed and must be drained until closed. When ctx is cancelled,
// in-flight items finish their current attempt, remaining input is not
// consumed, and the channel closes early: the caller observes fewer
// results than inputs.
func (r *Runner[T]) Process(ctx context.Context, in <-chan T) <-chan Result[T] {
	raw := make(chan Result[T], r.cfg.Workers)
	workCh := make(chan work[T], r.cfg.Workers)

	// The reordering window bounds in-flight items in ordered mode; it
	// must exceed workers + work-channel capacity so the next item to
	// emit always owns a slot (see Config.Ordered).
	var window chan struct{}
	if r.cfg.Ordered {
		window = make(chan struct{}, 4*r.cfg.Workers)
	}

	// Feeder: assigns stream indexes in arrival order.
	go func() {
		defer close(workCh)
		index := 0
		for {
			select {
			case <-ctx.Done():
				return
			case item, ok := <-in:
				if !ok {
					return
				}
				if window != nil {
					select {
					case window <- struct{}{}:
					case <-ctx.Done():
						return
					}
				}
				select {
				case workCh <- work[T]{index: index, item: item}:
					index++
				case <-ctx.Done():
					return
				}
			}
		}
	}()

	started := time.Now()
	var completed atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(r.cfg.Workers)
	for w := 0; w < r.cfg.Workers; w++ {
		go func() {
			defer wg.Done()
			for wk := range workCh {
				// Deliver unconditionally: results channels must be
				// drained until closed, even after cancellation, so no
				// completed item is lost.
				res := r.RunItem(ctx, wk.index, wk.item)
				completed.Add(1)
				raw <- res
			}
		}()
	}
	go func() {
		wg.Wait()
		if r.metrics != nil {
			elapsed := time.Since(started).Seconds()
			r.metrics.runSec.Set(elapsed)
			if elapsed > 0 {
				r.metrics.docsPS.Set(float64(completed.Load()) / elapsed)
			}
		}
		close(raw)
	}()

	if !r.cfg.Ordered {
		return raw
	}
	out := make(chan Result[T], r.cfg.Workers)
	go func() {
		defer close(out)
		pending := map[int]Result[T]{}
		next := 0
		for res := range raw {
			pending[res.Index] = res
			for {
				n, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				out <- n
				next++
				<-window
			}
		}
		// Cancellation can leave gaps; flush what completed, in order.
		for len(pending) > 0 {
			for {
				n, ok := pending[next]
				if !ok {
					next++
					break
				}
				delete(pending, next)
				out <- n
				next++
			}
		}
	}()
	return out
}

// RunSlice processes items and returns the results in input order,
// with an aggregate summary. On cancellation the results cover only
// the items that completed and err is the context error.
func (r *Runner[T]) RunSlice(ctx context.Context, items []T) ([]Result[T], Summary, error) {
	in := make(chan T)
	go func() {
		defer close(in)
		for _, it := range items {
			select {
			case in <- it:
			case <-ctx.Done():
				return
			}
		}
	}()
	var results []Result[T]
	for res := range r.Process(ctx, in) {
		results = append(results, res)
	}
	sortResults(results)
	return results, Summarize(results), ctx.Err()
}

func sortResults[T any](rs []Result[T]) {
	// Insertion sort: results arrive nearly ordered (bounded window).
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Index < rs[j-1].Index; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// RunItem applies every stage to one item on the caller's goroutine,
// with retries, panic recovery, degradation and quarantine: the path
// Process runs on each worker, for callers that own their concurrency
// (the scoring service runs it on the request's goroutine). index is the
// item's identity for every seeded decision (retry jitter, the stages'
// per-item randomness), so the result equals what
// Process or RunSlice yields for the same item at that stream position.
func (r *Runner[T]) RunItem(ctx context.Context, index int, item T) Result[T] {
	res := Result[T]{Index: index, Status: StatusOK}
	for si, st := range r.stages {
		err, attempts := r.runStage(ctx, st, si, index, &item)
		if err == nil {
			continue
		}
		if st.Degradable {
			res.Status = StatusDegraded
			res.Degraded = append(res.Degraded, st.Name)
			continue
		}
		dl := &DeadLetter{Index: index, Stage: st.Name, Attempts: attempts, Err: err}
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

// runStage runs one stage with the retry policy, returning the final
// error (nil on success) and the number of attempts made. si is the
// stage's index into r.stages, used to resolve its metric handles.
func (r *Runner[T]) runStage(ctx context.Context, st Stage[T], si, index int, item *T) (error, int) {
	var sm *stageMetrics
	if r.metrics != nil {
		sm = &r.metrics.stages[si]
	}
	var jitter *randx.Source
	for attempt := 1; ; attempt++ {
		if sm != nil {
			sm.attempts.Inc()
			if attempt > 1 {
				sm.retries.Inc()
			}
		}
		var t0 time.Time
		if sm != nil {
			t0 = time.Now()
		}
		err := r.attempt(ctx, st, index, item)
		if sm != nil {
			sm.latency.Observe(time.Since(t0).Nanoseconds())
		}
		if err == nil {
			return nil, attempt
		}
		if sm != nil {
			sm.errors.Inc()
			var pe *PanicError
			if errors.As(err, &pe) {
				sm.panics.Inc()
			}
		}
		if ctx.Err() != nil {
			return fmt.Errorf("cancelled: %w", err), attempt
		}
		if !retryable(st.Transient, err) || attempt >= r.cfg.Retry.MaxAttempts {
			if sm != nil {
				sm.failures.Inc()
			}
			return err, attempt
		}
		if jitter == nil {
			jitter = randx.New(r.cfg.Seed).Split("retry").Split(st.Name).SplitN("item", index)
		}
		if serr := sleep(ctx, r.cfg.Retry.backoff(attempt, jitter)); serr != nil {
			return fmt.Errorf("cancelled during backoff: %w", err), attempt
		}
	}
}

// attempt runs one stage attempt on a private copy of the item,
// committing the copy back only on success. The attempt executes in
// its own goroutine so a deadline can abandon a stuck stage without
// blocking the worker; a recovered panic is returned as *PanicError.
func (r *Runner[T]) attempt(ctx context.Context, st Stage[T], index int, item *T) error {
	// Fast path: without a deadline there is nothing to abandon, so
	// the attempt runs inline on the worker (no goroutine per
	// attempt), still on a private copy and still panic-isolated.
	if st.Timeout <= 0 {
		scratch := *item
		err := func() (err error) {
			defer func() {
				if v := recover(); v != nil {
					err = capturePanic(v)
				}
			}()
			return st.Fn(ctx, index, &scratch)
		}()
		if err != nil {
			return err
		}
		*item = scratch
		return nil
	}

	actx, cancel := context.WithTimeout(ctx, st.Timeout)
	defer cancel()

	type outcome struct {
		scratch T
		err     error
	}
	done := make(chan outcome, 1)
	scratch := *item
	go func() {
		var err error
		defer func() {
			if v := recover(); v != nil {
				err = capturePanic(v)
			}
			done <- outcome{scratch: scratch, err: err}
		}()
		err = st.Fn(actx, index, &scratch)
	}()

	select {
	case o := <-done:
		if o.err != nil {
			return o.err
		}
		*item = o.scratch
		return nil
	case <-actx.Done():
		// Deadline or cancellation: abandon the attempt. The goroutine
		// owns its scratch copy and exits via the buffered channel.
		return fmt.Errorf("resilience: stage %q: %w", st.Name, actx.Err())
	}
}
