package benchkit

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Clock is the time source of the load schedulers; tests substitute a
// fake that advances only when told to.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// WallClock is the real time source.
type WallClock struct{}

func (WallClock) Now() time.Time { return time.Now() }

// Sleep blocks the calling thread in nanosleep(2). time.Sleep would
// not do: the Go runtime serves its timers from an epoll wait whose
// timeout is in whole milliseconds, so an otherwise idle scheduler
// wakes a sleeper about a millisecond late — several times the
// latency being measured. nanosleep overshoots by well under 0.1 ms.
func (WallClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// Sample is one open-loop operation, as offsets from the start of the
// schedule: when it was due, when it was actually sent, when its reply
// arrived, and whether the reply was correct.
type Sample struct {
	Due, Sent, Done time.Duration
	OK              bool
}

// FromDue is the latency a user arriving on schedule saw: it includes
// any time the operation waited because earlier ones were slow, which
// is what timing from Sent silently leaves out (coordinated omission).
func (s Sample) FromDue() time.Duration { return s.Done - s.Due }

// FromSend is the service time alone, kept for contrast.
func (s Sample) FromSend() time.Duration { return s.Done - s.Sent }

// Late is how far behind its schedule the generator sent the operation.
func (s Sample) Late() time.Duration { return s.Sent - s.Due }

// OpenLoop issues operations at a constant rate for d: operation i is
// due at i/rate after the start, whatever happened to the operations
// before it. At most workers operations are in flight (one connection
// each); when all are busy the next operation goes out late, and
// because latency is taken from the due instant that wait is counted,
// not hidden. op returns whether the reply was correct. Samples come
// back in schedule order.
func OpenLoop(clock Clock, rate float64, d time.Duration, workers int, op func(worker, i int) bool) []Sample {
	n := int(rate * d.Seconds())
	samples := make([]Sample, n)
	interval := float64(time.Second) / rate
	start := clock.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(float64(i) * interval)
				if wait := due - clock.Now().Sub(start); wait > 0 {
					clock.Sleep(wait)
				}
				sent := clock.Now().Sub(start)
				ok := op(w, i)
				samples[i] = Sample{Due: due, Sent: sent, Done: clock.Now().Sub(start), OK: ok}
			}
		}(w)
	}
	wg.Wait()
	return samples
}

// ClosedLoopResult totals a closed-loop phase.
type ClosedLoopResult struct {
	Ops, Failed int64
	// Units is the sum of the work units (documents) the correct
	// operations reported.
	Units   int64
	Elapsed time.Duration
}

// ClosedLoop runs workers callers that each wait for their reply
// before sending again, for d: the load a fixed set of waiting clients
// offers, and so a measure of capacity, not of latency under a given
// arrival rate. op returns the work units answered and whether the
// reply was correct. An operation in flight when d ends is completed
// and counted, and Elapsed runs to the last completion.
func ClosedLoop(clock Clock, d time.Duration, workers int, op func(worker, i int) (units int, ok bool)) ClosedLoopResult {
	start := clock.Now()
	var next, ops, failed, units atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for clock.Now().Sub(start) < d {
				u, ok := op(w, int(next.Add(1)-1))
				ops.Add(1)
				if ok {
					units.Add(int64(u))
				} else {
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return ClosedLoopResult{Ops: ops.Load(), Failed: failed.Load(), Units: units.Load(), Elapsed: clock.Now().Sub(start)}
}
