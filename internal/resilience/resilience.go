// Package resilience is the fault-tolerant document-processing runtime
// underneath the streaming ingest and scoring paths. The paper's
// measurement system ran continuously over five live platform feeds
// (405.9M board posts, 70.3M chat messages, ...), where one malformed
// or pathological document must cost that document, not the run; this
// package provides that isolation for the reproduction:
//
//   - a bounded worker-pool executor (Runner) with context
//     cancellation, yielding results in input order;
//   - per-document panic recovery and error isolation: a poison
//     document is quarantined to a dead-letter queue (recording the
//     failing stage and error) instead of killing the run;
//   - graceful degradation: stages marked Degradable annotate the
//     document as degraded on failure instead of dropping it.
//
// Every stage runs once per document. The stages are pure in-memory
// functions of their document, so running one again would fail the
// same way.
//
// Determinism contract: every per-item random stream (span sampling
// inside stage functions) is derived from (seed, stage name, item
// index) via randx.Split/SplitN, never from wall-clock time or
// scheduling order. Worker scheduling therefore affects only which
// worker runs an item, never its result or its position in the output.
package resilience

import (
	"fmt"
	"runtime/debug"
)

// Status classifies the outcome of processing one item.
type Status int

const (
	// StatusOK: every stage succeeded.
	StatusOK Status = iota
	// StatusDegraded: at least one Degradable stage failed;
	// the item was still emitted with those annotations marked degraded.
	StatusDegraded
	// StatusQuarantined: a required stage failed; the item
	// was sent to the dead-letter queue.
	StatusQuarantined
)

// String returns the lower-case status name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusDegraded:
		return "degraded"
	case StatusQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// DeadLetter is one quarantined item: the poison-document record the
// runtime emits instead of aborting the run.
type DeadLetter struct {
	// Index is the item's position in the input stream (0-based).
	Index int
	// ID identifies the item when the runner was configured with a
	// Describe function; otherwise empty.
	ID string
	// Stage is the name of the stage that failed.
	Stage string
	// Err is the stage's error (a PanicError if the stage panicked).
	Err error
}

func (d DeadLetter) String() string {
	id := d.ID
	if id == "" {
		id = fmt.Sprintf("#%d", d.Index)
	}
	return fmt.Sprintf("%s: stage %q failed: %v", id, d.Stage, d.Err)
}

// PanicError is a recovered stage panic, preserved as an error so a
// panicking stage is quarantined or degraded like a failing one.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// capturePanic converts a recovered panic value into a PanicError.
func capturePanic(v any) error {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Result is the outcome of running every stage over one item.
type Result[T any] struct {
	// Index is the item's position in the input stream.
	Index int
	// Item is the item's final state. For quarantined items it holds
	// the state reached before the fatal stage.
	Item T
	// Status classifies the outcome.
	Status Status
	// Degraded lists the Degradable stages that failed.
	Degraded []string
	// Dead is set when Status is StatusQuarantined.
	Dead *DeadLetter
}

// Summary aggregates the outcomes of a run: the CLI tools print it as
// the final processed/succeeded/quarantined line.
type Summary struct {
	Processed   int
	Succeeded   int
	Degraded    int
	Quarantined int
	// DeadLetters holds the quarantine records, in input order.
	DeadLetters []DeadLetter
}

func (s Summary) String() string {
	return fmt.Sprintf("processed=%d succeeded=%d degraded=%d quarantined=%d",
		s.Processed, s.Succeeded, s.Degraded, s.Quarantined)
}

// Add counts one result with status st and, when quarantined, its
// dead letter dl. Results counted in input order keep DeadLetters in
// input order.
func (s *Summary) Add(st Status, dl *DeadLetter) {
	s.Processed++
	switch st {
	case StatusOK:
		s.Succeeded++
	case StatusDegraded:
		s.Succeeded++
		s.Degraded++
	case StatusQuarantined:
		s.Quarantined++
		if dl != nil {
			s.DeadLetters = append(s.DeadLetters, *dl)
		}
	}
}
