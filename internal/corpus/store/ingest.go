package store

import (
	"io"

	"harassrepro/internal/corpus"
)

// IngestJSONL appends external JSONL documents to the store, reading
// leniently: malformed and oversized lines are quarantined as
// corpus.LineErrors — each carrying the line number and byte offset of
// the damage — while every well-formed document is committed. The read
// streams: documents are appended in segments of perSeg
// (DefaultSegmentDocs when perSeg <= 0) as they are decoded, so memory
// holds one segment, not the input, and the segments are the ones
// AppendAll would write for the same documents. added is the number of
// documents committed; err is non-nil only for input I/O or store write
// failures, in which case the segments committed before the failure
// stay committed and added counts them.
func IngestJSONL(s *Store, r io.Reader, perSeg int) (added int, bad []corpus.LineError, err error) {
	if perSeg <= 0 {
		perSeg = DefaultSegmentDocs
	}
	var batch []corpus.Document
	commit := func() error {
		if _, err := s.Append(batch); err != nil {
			return err
		}
		added += len(batch)
		batch = batch[:0]
		return nil
	}
	bad, err = corpus.EachJSONL(r, corpus.JSONLOptions{Lenient: true}, func(d *corpus.Document) error {
		batch = append(batch, *d)
		if len(batch) == perSeg {
			return commit()
		}
		return nil
	})
	if err == nil && len(batch) > 0 {
		err = commit()
	}
	return added, bad, err
}
