package corpus

import (
	"bytes"
	"strings"
	"unicode/utf8"
)

// decodeJSONLSchema decodes one JSONL document line in a single pass
// with no reflection, filling d directly. It accepts exactly the subset
// of JSON that WriteJSONL and cmd/corpusgen emit:
//
//   - one object whose keys are byte-equal to JSONLDocument's json tags;
//   - string values with no byte below 0x20, valid UTF-8, and only the
//     escapes \" \\ \/ \b \f \n \r \t and \uXXXX outside D800–DFFF;
//   - -?(0|[1-9][0-9]{0,17}) for pos_in_thread and thread_size;
//   - true or false for is_cth and is_dox;
//   - JSON whitespace between tokens and after the closing brace.
//
// A repeated key is allowed and the last one wins, as in encoding/json.
// Every other line returns false, and the caller decodes it with
// encoding/json, so every error message and edge case stays that
// package's. On false d holds garbage. Each string is copied once.
func decodeJSONLSchema(raw []byte, d *Document) bool {
	s := schemaScanner{b: raw}
	if !s.skipTo('{') {
		return false
	}
	if s.skipTo('}') {
		return s.atEnd()
	}
	for {
		if !s.skipTo('"') {
			return false
		}
		key, ok := s.key()
		if !ok || !s.skipTo(':') {
			return false
		}
		s.ws()
		var str string
		switch string(key) {
		case "id":
			d.ID, ok = s.str()
		case "dataset":
			str, ok = s.str()
			d.Dataset = Dataset(str)
		case "platform":
			str, ok = s.str()
			d.Platform = Platform(str)
		case "domain":
			d.Domain, ok = s.str()
		case "thread_id":
			d.ThreadID, ok = s.str()
		case "author":
			d.Author, ok = s.str()
		case "date":
			d.Date, ok = s.str()
		case "text":
			d.Text, ok = s.str()
		case "pos_in_thread":
			d.PosInThread, ok = s.int()
		case "thread_size":
			d.ThreadSize, ok = s.int()
		case "is_cth":
			d.Truth.IsCTH, ok = s.bool()
		case "is_dox":
			d.Truth.IsDox, ok = s.bool()
		default:
			return false
		}
		if !ok {
			return false
		}
		if s.skipTo('}') {
			return s.atEnd()
		}
		if !s.skipTo(',') {
			return false
		}
	}
}

// schemaScanner walks one line for decodeJSONLSchema.
type schemaScanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *schemaScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// skipTo skips whitespace and consumes c if it comes next.
func (s *schemaScanner) skipTo(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// atEnd reports whether only whitespace remains.
func (s *schemaScanner) atEnd() bool {
	s.ws()
	return s.i == len(s.b)
}

// key returns the raw bytes of an object key whose opening quote has
// been consumed. A key with an escape never equals a json tag, so the
// first quote ends it: the caller's match fails on anything else.
func (s *schemaScanner) key() ([]byte, bool) {
	n := bytes.IndexByte(s.b[s.i:], '"')
	if n < 0 {
		return nil, false
	}
	k := s.b[s.i : s.i+n]
	s.i += n + 1
	return k, true
}

// plainJSON marks the bytes a JSON string holds as themselves: printable
// ASCII other than the quote and the backslash.
var plainJSON = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str decodes a string value. A string with no escape is one copy of
// its bytes; one with escapes is measured first, then written once into
// a builder of exactly that size.
func (s *schemaScanner) str() (string, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return "", false
	}
	start := s.i + 1
	i, n, escaped := start, 0, false
	for {
		for i < len(s.b) && plainJSON[s.b[i]] {
			i++
			n++
		}
		if i >= len(s.b) {
			return "", false
		}
		switch c := s.b[i]; {
		case c == '"':
			s.i = i + 1
			if !escaped {
				return string(s.b[start:i]), true
			}
			return unescapeJSON(s.b[start:i], n), true
		case c == '\\':
			size, ok := escapeLen(s.b[i:])
			if !ok {
				return "", false
			}
			escaped = true
			n += size
			if s.b[i+1] == 'u' {
				i += 6
			} else {
				i += 2
			}
		case c < 0x20:
			return "", false
		default:
			r, size := utf8.DecodeRune(s.b[i:])
			if r == utf8.RuneError && size == 1 {
				return "", false
			}
			i += size
			n += size
		}
	}
}

// escapeLen validates the escape at the start of b and returns how
// many bytes it decodes to.
func escapeLen(b []byte) (int, bool) {
	if len(b) < 2 {
		return 0, false
	}
	switch b[1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return 1, true
	case 'u':
		r, ok := hex4(b[2:])
		if !ok || r >= 0xD800 && r <= 0xDFFF {
			return 0, false
		}
		return utf8.RuneLen(r), true
	}
	return 0, false
}

// hex4 parses the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// unescapeJSON decodes the body of a string str has already validated,
// n being its decoded length.
func unescapeJSON(b []byte, n int) string {
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < len(b); {
		c := b[i]
		if c != '\\' {
			j := i + 1
			for j < len(b) && b[j] != '\\' {
				j++
			}
			sb.Write(b[i:j])
			i = j
			continue
		}
		switch b[i+1] {
		case 'b':
			sb.WriteByte('\b')
		case 'f':
			sb.WriteByte('\f')
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		case 't':
			sb.WriteByte('\t')
		case 'u':
			r, _ := hex4(b[i+2:])
			sb.WriteRune(r)
			i += 6
			continue
		default: // '"', '\\', '/'
			sb.WriteByte(b[i+1])
		}
		i += 2
	}
	return sb.String()
}

// int decodes -?(0|[1-9][0-9]{0,17}), which cannot overflow an int64;
// only a 32-bit int needs the range check. Longer numbers, fractions
// and exponents return false.
func (s *schemaScanner) int() (int, bool) {
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var v int64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' && s.i-start < 18 {
		v = v*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	digits := s.i - start
	if digits == 0 || digits > 1 && s.b[start] == '0' || int64(int(v)) != v {
		return 0, false
	}
	if neg {
		v = -v
	}
	return int(v), true
}

// bool decodes the literals true and false.
func (s *schemaScanner) bool() (bool, bool) {
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false, true
	}
	return false, false
}
