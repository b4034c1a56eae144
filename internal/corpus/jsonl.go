package corpus

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// JSONLDocument is the interchange form of a document, matching the
// format cmd/corpusgen emits. Only Text is required; platform/thread
// metadata enable the platform- and thread-aware analyses.
type JSONLDocument struct {
	ID          string `json:"id"`
	Dataset     string `json:"dataset"`
	Platform    string `json:"platform"`
	Domain      string `json:"domain"`
	ThreadID    string `json:"thread_id,omitempty"`
	PosInThread int    `json:"pos_in_thread,omitempty"`
	ThreadSize  int    `json:"thread_size,omitempty"`
	Author      string `json:"author"`
	Date        string `json:"date"`
	Text        string `json:"text"`
	IsCTH       *bool  `json:"is_cth,omitempty"`
	IsDox       *bool  `json:"is_dox,omitempty"`
}

// LineError is one quarantined JSONL line from a lenient read: the
// structured dead-letter record for malformed ingest input.
type LineError struct {
	// Line is the 1-based line number in the input stream.
	Line int
	// Offset is the byte offset of the line's first byte in the input
	// stream. For oversized lines — where the line number alone cannot
	// locate anything because the offending data spans megabytes — this
	// is what lets tooling seek straight to the damage.
	Offset int64
	// Err is the parse or validation failure.
	Err error
	// Preview is a short prefix of the offending line (never more than
	// previewLen bytes), for diagnostics.
	Preview string
}

const previewLen = 80

func (e LineError) Error() string {
	if e.Preview == "" {
		return fmt.Sprintf("corpus: jsonl line %d (byte %d): %v", e.Line, e.Offset, e.Err)
	}
	return fmt.Sprintf("corpus: jsonl line %d (byte %d): %v (line starts %q)", e.Line, e.Offset, e.Err, e.Preview)
}

func (e LineError) Unwrap() error { return e.Err }

// JSONLOptions controls ReadJSONLOpts.
type JSONLOptions struct {
	// Lenient quarantines malformed or oversized lines as LineErrors
	// instead of aborting the read.
	Lenient bool
	// MaxLineBytes bounds one line; longer lines error (strict) or
	// quarantine (lenient) with the line number, never a silent
	// truncated read. 0 means 16 MiB.
	MaxLineBytes int
}

// ErrLineTooLong reports a line exceeding MaxLineBytes. It names the
// condition explicitly (unlike bufio.ErrTooLong, which a Scanner-based
// reader would surface with no line number).
var ErrLineTooLong = errors.New("line exceeds maximum length")

// ReadJSONL decodes one document per line from r. Blank lines are
// skipped; a malformed line aborts with an error naming the line number.
// Documents missing an ID are assigned sequential ones.
func ReadJSONL(r io.Reader) ([]Document, error) {
	docs, _, err := ReadJSONLOpts(r, JSONLOptions{})
	return docs, err
}

// ReadJSONLLenient decodes one document per line from r, quarantining
// malformed and oversized lines instead of aborting: the returned
// LineErrors record each skipped line's number and cause. err is
// non-nil only for I/O failures of r itself.
func ReadJSONLLenient(r io.Reader) ([]Document, []LineError, error) {
	return ReadJSONLOpts(r, JSONLOptions{Lenient: true})
}

// ReadJSONLOpts is the option-driven form of ReadJSONL. In strict mode
// (the default) the first bad line aborts the read and bad is nil, but
// the documents decoded before the failure are still returned alongside
// the error — the same partial-progress contract the read-error path
// honors. In lenient mode every bad line is returned in bad and err
// reports only I/O failures.
func ReadJSONLOpts(r io.Reader, opts JSONLOptions) (docs []Document, bad []LineError, err error) {
	bad, err = EachJSONL(r, opts, func(d *Document) error {
		docs = append(docs, *d)
		return nil
	})
	return docs, bad, err
}

// EachJSONL is the streaming form of ReadJSONLOpts: it decodes one
// document per line from r and calls fn with each good one, in input
// order, holding one line in memory at a time. d is reused for the next
// line, so fn copies what it keeps; the document's strings are its own
// and never alias the input. Bad lines follow ReadJSONLOpts' strict and
// lenient contract. An error from fn stops the read and is returned
// unchanged.
func EachJSONL(r io.Reader, opts JSONLOptions, fn func(d *Document) error) (bad []LineError, err error) {
	if opts.MaxLineBytes <= 0 {
		opts.MaxLineBytes = 16 << 20
	}
	br := bufio.NewReaderSize(r, 64<<10)
	line := 0
	var offset int64 // byte offset of the next unread line's start
	var raw []byte   // the current line, reused across lines
	var d Document   // the current document, reused across lines
	for {
		lineStart := offset
		next, consumed, tooLong, rerr := ReadLine(br, raw[:0], opts.MaxLineBytes)
		raw = next
		offset += consumed
		if rerr != nil && rerr != io.EOF {
			return bad, fmt.Errorf("corpus: jsonl line %d (byte %d): read: %w", line+1, lineStart, rerr)
		}
		if len(raw) == 0 && !tooLong && rerr == io.EOF {
			return bad, nil
		}
		line++
		fail := func(cause error) error {
			le := LineError{Line: line, Offset: lineStart, Err: cause, Preview: preview(raw)}
			if opts.Lenient {
				bad = append(bad, le)
				return nil
			}
			return le
		}
		switch {
		case tooLong:
			if ferr := fail(ErrLineTooLong); ferr != nil {
				return bad, ferr
			}
		case len(raw) > 0:
			var derr error
			if d, derr = decodeJSONLLine(raw, line); derr != nil {
				if ferr := fail(derr); ferr != nil {
					return bad, ferr
				}
			} else if ferr := fn(&d); ferr != nil {
				return bad, ferr
			}
		}
		if rerr == io.EOF {
			return bad, nil
		}
	}
}

// preview returns a short printable prefix of a raw line.
func preview(raw []byte) string {
	if len(raw) > previewLen {
		raw = raw[:previewLen]
	}
	return string(raw)
}

// ReadLine appends one newline-terminated line of at most max bytes to
// line, a buffer the caller reuses across lines, without the
// terminator (\n or \r\n). A longer line is
// discarded to its end and reported with tooLong=true, returning only a
// short retained prefix for diagnostics. consumed is the exact number
// of input bytes this line occupied — terminator and discarded overflow
// included — so the caller can maintain byte offsets. err is io.EOF at
// end of input (the final line may be unterminated).
func ReadLine(br *bufio.Reader, line []byte, max int) (_ []byte, consumed int64, tooLong bool, err error) {
	for {
		frag, rerr := br.ReadSlice('\n')
		consumed += int64(len(frag))
		hasNL := len(frag) > 0 && frag[len(frag)-1] == '\n'
		if !tooLong {
			line = append(line, frag...)
			if n := len(line); hasNL {
				line = line[:n-1]
				if n >= 2 && line[n-2] == '\r' {
					line = line[:n-2]
				}
			}
			if len(line) > max {
				tooLong = true
				if len(line) > previewLen {
					line = line[:previewLen]
				}
			}
		}
		switch {
		case hasNL:
			return line, consumed, tooLong, nil
		case rerr == bufio.ErrBufferFull:
			continue
		case rerr == nil:
			// ReadSlice without delim or error cannot happen; loop.
			continue
		default:
			return line, consumed, tooLong, rerr
		}
	}
}

// decodeJSONLLine parses and validates one non-blank line: the schema
// decoder when the line lies in its subset, encoding/json otherwise.
func decodeJSONLLine(raw []byte, line int) (Document, error) {
	var d Document
	if !decodeJSONLSchema(raw, &d) {
		var jd JSONLDocument
		if err := json.Unmarshal(raw, &jd); err != nil {
			return Document{}, err
		}
		d = Document{
			ID:          jd.ID,
			Dataset:     Dataset(jd.Dataset),
			Platform:    Platform(jd.Platform),
			Domain:      jd.Domain,
			ThreadID:    jd.ThreadID,
			PosInThread: jd.PosInThread,
			ThreadSize:  jd.ThreadSize,
			Author:      jd.Author,
			Date:        jd.Date,
			Text:        jd.Text,
		}
		if jd.IsCTH != nil {
			d.Truth.IsCTH = *jd.IsCTH
		}
		if jd.IsDox != nil {
			d.Truth.IsDox = *jd.IsDox
		}
	}
	if d.Text == "" {
		return Document{}, errors.New("missing text")
	}
	if d.ID == "" {
		d.ID = fmt.Sprintf("jsonl-%08d", line)
	}
	return d, nil
}

// WriteJSONL encodes documents one per line to w. includeTruth controls
// whether the hidden labels are emitted.
func WriteJSONL(w io.Writer, docs []Document, includeTruth bool) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range docs {
		d := &docs[i]
		jd := JSONLDocument{
			ID: d.ID, Dataset: string(d.Dataset), Platform: string(d.Platform),
			Domain: d.Domain, ThreadID: d.ThreadID, PosInThread: d.PosInThread,
			ThreadSize: d.ThreadSize, Author: d.Author, Date: d.Date, Text: d.Text,
		}
		if includeTruth {
			jd.IsCTH = &d.Truth.IsCTH
			jd.IsDox = &d.Truth.IsDox
		}
		if err := enc.Encode(jd); err != nil {
			return fmt.Errorf("corpus: jsonl write: %w", err)
		}
	}
	return bw.Flush()
}
