package store

import (
	"io"

	"harassrepro/internal/corpus"
)

// IngestJSONL appends external JSONL documents to the store, reading
// leniently: malformed and oversized lines are quarantined as
// corpus.LineErrors — each carrying the line number and byte offset of
// the damage — while every well-formed document is committed, in input
// order, in segments of perSeg (DefaultSegmentDocs when perSeg <= 0).
// The segments and their files are the ones AppendAll writes for the
// same documents.
//
// The read streams through the segment writer (writeSegments): lines
// are decoded on the caller's goroutine while the segment before is
// built and the one before that commits, so memory holds at most three
// batches of documents and three encoded segments, never the input.
//
// added is the number of documents committed; err is non-nil only for
// input I/O or store write failures. A read error drops the partial
// segment it interrupts and keeps every complete one committed. A store
// error stops the read at its next segment and keeps the segments
// committed before it; no later segment reaches the disk. When both
// happen the store error is returned, since it always belongs to an
// earlier segment. The caller must not Append, AppendAll or ingest into
// the same store until IngestJSONL returns: its commit goroutine is the
// store's one appender meanwhile.
func IngestJSONL(s *Store, r io.Reader, perSeg int) (added int, bad []corpus.LineError, err error) {
	if perSeg <= 0 {
		perSeg = DefaultSegmentDocs
	}
	added, err = s.writeSegments(func(put func([]corpus.Document) ([]corpus.Document, error)) error {
		var batch []corpus.Document
		var rerr error
		bad, rerr = corpus.EachJSONL(r, corpus.JSONLOptions{Lenient: true}, func(d *corpus.Document) error {
			batch = append(batch, *d)
			if len(batch) < perSeg {
				return nil
			}
			var err error
			batch, err = put(batch)
			return err
		})
		if rerr == nil && len(batch) > 0 {
			_, rerr = put(batch)
		}
		return rerr
	})
	return added, bad, err
}

// writeSegments is the segment writer behind IngestJSONL and AppendAll,
// a three-stage pipeline. fill runs on the caller's goroutine and hands
// each complete batch of documents to put; one goroutine builds each
// batch's segment (buildSegment) and one commits them in order
// (commitSegment), the store's single appender. Each hand-off queues at
// most one item. put returns an empty buffer to fill next — a batch the
// build stage is done with, or nil — so batches are recycled and the
// documents and encoded files in flight are a fixed handful of
// segments.
//
// After a commit fails, put returns its error instead of queueing, and
// segments built after it are dropped unwritten. writeSegments returns
// once both goroutines have exited: added counts the committed
// documents, and err is the commit error if there was one, else fill's.
func (s *Store) writeSegments(fill func(put func([]corpus.Document) ([]corpus.Document, error)) error) (added int, err error) {
	batches := make(chan []corpus.Document, 1)
	built := make(chan builtSegment, 1)
	// Three batches circulate (one filling, one queued, one building),
	// so at most two are ever spare.
	free := make(chan []corpus.Document, 2)
	stop := make(chan struct{}) // closed when a commit fails
	done := make(chan struct{}) // closed when the commit stage exits
	var commitErr error

	go func() {
		defer close(built)
		for batch := range batches {
			b := buildSegment(batch)
			select {
			case free <- batch[:0]:
			default:
			}
			built <- b
		}
	}()
	go func() {
		defer close(done)
		for b := range built {
			if commitErr != nil {
				continue
			}
			if _, err := s.commitSegment(b); err != nil {
				commitErr = err
				close(stop)
				continue
			}
			added += int(b.docs)
		}
	}()

	put := func(batch []corpus.Document) ([]corpus.Document, error) {
		if err := checkSegmentDocs(len(batch)); err != nil {
			return nil, err
		}
		select {
		case batches <- batch:
		case <-stop:
			return nil, commitErr
		}
		select {
		case b := <-free:
			return b, nil
		default:
			return nil, nil
		}
	}
	err = fill(put)
	close(batches)
	<-done
	if commitErr != nil {
		err = commitErr
	}
	return added, err
}
