// Package chaos is a deterministic fault-injection harness for the
// resilience runtime. It wraps any Stage so that seeded transient
// errors, panics, latency spikes and truncated input are injected
// before the real stage runs — the reproduction's stand-in for crawler
// hiccups, flaky annotation services and slow scoring backends.
//
// Every injection decision is a pure function of (seed, stage name,
// item index, attempt number), never of wall-clock time or scheduling,
// so a chaotic run is exactly reproducible: the chaos test suite in
// internal/core relies on this to assert that a faulty run produces
// scores identical to a fault-free run for every non-quarantined
// document, and `harassd -chaos` (ParsePlan) wraps the serving stages
// with the same harness.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"harassrepro/internal/randx"
	"harassrepro/internal/resilience"
)

// ErrInjected is the sentinel wrapped by every chaos-injected failure;
// test assertions can errors.Is against it.
var ErrInjected = errors.New("chaos: injected fault")

// Config controls the fault mix. Rates are per attempt (except
// PermanentRate, which is per item) and independent: one attempt can
// suffer latency and then a transient error.
type Config struct {
	// Seed drives every injection decision.
	Seed uint64
	// TransientRate is the per-attempt probability of failing with a
	// Transient-marked error before the stage runs.
	TransientRate float64
	// PanicRate is the per-attempt probability of panicking.
	PanicRate float64
	// PermanentRate is the per-item probability that the item fails on
	// every attempt of the wrapped stage (a poison document): the run
	// must quarantine exactly these items.
	PermanentRate float64
	// LatencyRate is the per-attempt probability of sleeping Latency
	// before the stage runs (honouring the attempt context, so a
	// request deadline cuts the spike short).
	LatencyRate float64
	// Latency is the injected spike duration. 0 means 10ms.
	Latency time.Duration
	// TruncateRate is the per-attempt probability of passing the stage
	// a truncated view of the item via Truncate.
	TruncateRate float64
	// Truncate mutates the attempt's private copy of the item to
	// simulate truncated input (for example halving the document
	// text). Required when TruncateRate > 0.
	Truncate func(item any)
}

// attemptCounter tracks per-item attempt numbers for one wrapped
// stage. Attempts for a single item run sequentially, but distinct
// items hit the counter concurrently from different workers.
//
// An item's entry is dropped when its stage succeeds, and poison items
// never get one, so a long-lived process (`harassd -chaos`) holds an
// entry only for an item in flight or one whose stage failed for good:
// the map grows with the quarantined and degraded documents of a run,
// not with its traffic.
type attemptCounter struct {
	mu sync.Mutex
	n  map[int]int
}

func (c *attemptCounter) next(index int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == nil {
		c.n = map[int]int{}
	}
	c.n[index]++
	return c.n[index]
}

func (c *attemptCounter) done(index int) {
	c.mu.Lock()
	delete(c.n, index)
	c.mu.Unlock()
}

// Wrap returns a stage identical to st except that seeded faults are
// injected ahead of its Fn. The wrapped stage keeps st's name, retry
// and degradation semantics.
func Wrap[T any](st resilience.Stage[T], cfg Config) resilience.Stage[T] {
	return wrap(st, cfg, &attemptCounter{})
}

// wrap is Wrap with the attempt counter supplied, so a test can read it.
func wrap[T any](st resilience.Stage[T], cfg Config, counter *attemptCounter) resilience.Stage[T] {
	if cfg.Latency <= 0 {
		cfg.Latency = 10 * time.Millisecond
	}
	base := randx.New(cfg.Seed).Split("chaos").Split(st.Name)
	inner := st.Fn
	st.Fn = func(ctx context.Context, index int, item *T) error {
		itemRng := base.SplitN("item", index)
		// Poison documents fail on every attempt: the injected error
		// is Transient-marked, so the runner burns its full retry
		// budget before quarantining — exercising attempt accounting.
		if cfg.PermanentRate > 0 && itemRng.Split("poison").Bool(cfg.PermanentRate) {
			return resilience.Transient(fmt.Errorf("%w: poison item %d in stage %q", ErrInjected, index, st.Name))
		}
		attempt := counter.next(index)
		rng := itemRng.SplitN("attempt", attempt)
		if cfg.LatencyRate > 0 && rng.Split("latency").Bool(cfg.LatencyRate) {
			t := time.NewTimer(cfg.Latency)
			select {
			case <-ctx.Done():
				t.Stop()
				return resilience.Transient(fmt.Errorf("%w: latency spike cut by deadline: %v", ErrInjected, ctx.Err()))
			case <-t.C:
			}
		}
		if cfg.PanicRate > 0 && rng.Split("panic").Bool(cfg.PanicRate) {
			panic(resilience.Transient(fmt.Errorf("%w: panic in stage %q item %d attempt %d", ErrInjected, st.Name, index, attempt)))
		}
		if cfg.TransientRate > 0 && rng.Split("transient").Bool(cfg.TransientRate) {
			return resilience.Transient(fmt.Errorf("%w: transient failure in stage %q item %d attempt %d", ErrInjected, st.Name, index, attempt))
		}
		if cfg.TruncateRate > 0 && rng.Split("truncate").Bool(cfg.TruncateRate) {
			// The runner hands each attempt a private copy, so
			// truncation only corrupts this attempt's view.
			cfg.Truncate(item)
		}
		err := inner(ctx, index, item)
		if err == nil {
			counter.done(index)
		}
		return err
	}
	return st
}
