package store

import (
	"context"
	"runtime"

	"harassrepro/internal/corpus"
	"harassrepro/internal/resilience"
)

// ScanParallel is Scan with segment-level parallelism: up to workers
// segments decode concurrently on the resilience pool while fn still
// observes every document sequentially, in exact store order (segment
// order, then record order) — the byte-identical-output contract of
// Scan holds at any worker count.
//
// Failures stay isolated per segment: a corrupt segment's
// *CorruptError surfaces through the runner's quarantine (never a
// panic taking down sibling decodes), and because results merge in
// order, every document of every earlier segment is delivered to fn
// before the error returns. An error from fn cancels the remaining
// decodes and is returned unchanged.
//
// workers <= 0 means GOMAXPROCS; workers == 1 (or a single segment)
// runs the sequential path.
func (s *Store) ScanParallel(workers int, fn func(d *corpus.Document, ref DocRef) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	segs, _, err := s.snapshot()
	if err != nil {
		return err
	}
	if workers == 1 || len(segs) <= 1 {
		for segIdx, si := range segs {
			if err := s.scanSegment(segIdx, si, fn); err != nil {
				return err
			}
		}
		return nil
	}

	// One work item per segment; the decode stage materializes the
	// segment's documents and the ordered consumer below replays them
	// to fn in store order. The stage is not Transient: committed
	// corruption never heals on retry, so the first failure quarantines
	// the segment with the raw *CorruptError intact.
	type segBatch struct {
		seg  int
		docs []corpus.Document
	}
	runner := resilience.NewRunner(resilience.Config[segBatch]{Workers: workers}, resilience.Stage[segBatch]{
		Name: "decode-segment",
		Fn: func(_ context.Context, _ int, b *segBatch) error {
			si := segs[b.seg]
			docs := make([]corpus.Document, 0, si.Docs)
			err := s.scanSegment(b.seg, si, func(d *corpus.Document, _ DocRef) error {
				docs = append(docs, *d)
				return nil
			})
			if err != nil {
				return err
			}
			b.docs = docs
			return nil
		},
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan segBatch)
	go func() {
		defer close(in)
		for i := range segs {
			select {
			case in <- segBatch{seg: i}:
			case <-ctx.Done():
				return
			}
		}
	}()

	var ferr error
	for res := range runner.Process(ctx, in) {
		if ferr != nil {
			continue // drain until closed; the runner requires it
		}
		if res.Status == resilience.StatusQuarantined {
			ferr = res.Dead.Err
			cancel()
			continue
		}
		b := res.Item
		for i := range b.docs {
			if err := fn(&b.docs[i], DocRef{Segment: b.seg, Ordinal: uint32(i)}); err != nil {
				ferr = err
				cancel()
				break
			}
		}
	}
	return ferr
}
