package benchkit

import (
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock advances only when something sleeps on it. It is for
// single-worker schedules: with one goroutine, time is fully determined.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// A server that stalls once delays every request queued behind the
// stall. Timing from the due instant shows that; timing from the send
// instant hides it (coordinated omission): the generator, blocked on
// the slow reply, simply sends the later requests late and then sees
// each answered quickly.
func TestOpenLoopCountsTheWaitAStallImposes(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	const (
		rate    = 1000.0 // one request per millisecond
		service = 100 * time.Microsecond
		stall   = 50 * time.Millisecond
		stallAt = 10
	)
	samples := OpenLoop(clock, rate, 100*time.Millisecond, 1, func(_, i int) bool {
		if i == stallAt {
			clock.Sleep(stall)
		} else {
			clock.Sleep(service)
		}
		return true
	})
	if len(samples) != 100 {
		t.Fatalf("%d samples, want 100", len(samples))
	}
	var fromDue, fromSend []float64
	slowFromSend := 0
	for _, s := range samples {
		fromDue = append(fromDue, float64(s.FromDue()))
		fromSend = append(fromSend, float64(s.FromSend()))
		if s.FromSend() > service {
			slowFromSend++
		}
	}
	// From the send instant exactly one request looks slow.
	if slowFromSend != 1 {
		t.Errorf("%d requests slow from the send instant, want only the stalled one", slowFromSend)
	}
	if got := Percentile(Sorted(fromSend), 90); time.Duration(got) != service {
		t.Errorf("p90 from send = %v, want the plain service time %v", time.Duration(got), service)
	}
	// From the due instant the stall is paid by everyone behind it:
	// request stallAt+k was due k ms after the stall began and waits
	// until it ends, so about 50 requests are late and p90 is tens of ms.
	if got := time.Duration(Percentile(Sorted(fromDue), 90)); got < 30*time.Millisecond {
		t.Errorf("p90 from due = %v, want the stall's backlog (>= 30ms)", got)
	}
	next := samples[stallAt+1]
	if want := stall - time.Millisecond + service; next.Late() != want-service || next.FromDue() != want {
		t.Errorf("request after the stall: late %v, from due %v; want late %v, from due %v", next.Late(), next.FromDue(), want-service, want)
	}
	// Once the backlog has drained the generator is back on schedule.
	if last := samples[len(samples)-1]; last.Late() != 0 || last.FromDue() != service {
		t.Errorf("last request: late %v, from due %v; want on time and %v", last.Late(), last.FromDue(), service)
	}
}

func TestOpenLoopKeepsItsScheduleOnTheWallClock(t *testing.T) {
	var calls atomic.Int64
	samples := OpenLoop(WallClock{}, 500, 200*time.Millisecond, 2, func(_, _ int) bool {
		calls.Add(1)
		return true
	})
	if len(samples) != 100 || calls.Load() != 100 {
		t.Fatalf("%d samples, %d calls; want 100 of each", len(samples), calls.Load())
	}
	for i, s := range samples {
		if want := time.Duration(i) * 2 * time.Millisecond; s.Due != want {
			t.Fatalf("sample %d due at %v, want %v", i, s.Due, want)
		}
		if s.Sent < s.Due || !s.OK {
			t.Fatalf("sample %d sent at %v before it was due at %v (ok %v)", i, s.Sent, s.Due, s.OK)
		}
	}
	if end := samples[99].Done; end < 198*time.Millisecond {
		t.Errorf("schedule finished after %v, want about 200ms", end)
	}
}

func TestClosedLoopCountsUnitsAndFailures(t *testing.T) {
	res := ClosedLoop(WallClock{}, 30*time.Millisecond, 2, func(_, i int) (int, bool) {
		time.Sleep(time.Millisecond)
		return 3, i%4 != 0
	})
	if res.Ops < 4 || res.Failed == 0 || res.Failed >= res.Ops {
		t.Fatalf("%+v: want several operations, some failed", res)
	}
	if want := 3 * (res.Ops - res.Failed); res.Units != want {
		t.Errorf("units %d, want 3 per correct operation = %d", res.Units, want)
	}
	if res.Elapsed < 30*time.Millisecond {
		t.Errorf("elapsed %v, want at least the phase length", res.Elapsed)
	}
}
