package benchkit

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Parent is the ID of
// the span that caused it (0 for a root); spans of one request share
// Req. Start and End are nanoseconds since the trace began.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Trace collects spans in memory; nothing is written until WriteFile.
// It is safe for concurrent use.
type Trace struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewTrace starts an empty trace whose time zero is now.
func NewTrace() *Trace { return &Trace{t0: time.Now()} }

// Add records a span with explicit offsets and returns its ID.
func (t *Trace) Add(name string, parent, req int, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(start), End: int64(end)})
	return id
}

// Since is the trace-relative offset of now.
func (t *Trace) Since() time.Duration { return time.Since(t.t0) }

// Len is the number of spans recorded.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// SelfTimes sums, per span name, each span's duration minus the part
// of its interval its direct children cover (children clipped to the
// parent, overlapping children counted once). A child longer than its
// parent therefore leaves the parent 0, never a negative self time.
func (t *Trace) SelfTimes() map[string]time.Duration {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()

	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return self
}

// covered is the length of the union of kids' intervals within parent.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cursor := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cursor), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cursor = hi
		}
	}
	return total
}

// WriteFile writes the spans as one JSON document.
func (t *Trace) WriteFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
