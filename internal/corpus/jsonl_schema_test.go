package corpus

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"harassrepro/internal/testutil"
)

// referenceDecodeJSONLLine decodes a line with encoding/json into
// JSONLDocument alone, then validates it: the oracle decodeJSONLLine
// must agree with on every input.
func referenceDecodeJSONLLine(raw []byte, line int) (Document, error) {
	var jd JSONLDocument
	if err := json.Unmarshal(raw, &jd); err != nil {
		return Document{}, err
	}
	if jd.Text == "" {
		return Document{}, errors.New("missing text")
	}
	d := Document{
		ID: jd.ID, Dataset: Dataset(jd.Dataset), Platform: Platform(jd.Platform),
		Domain: jd.Domain, ThreadID: jd.ThreadID, PosInThread: jd.PosInThread,
		ThreadSize: jd.ThreadSize, Author: jd.Author, Date: jd.Date, Text: jd.Text,
	}
	if d.ID == "" {
		d.ID = fmt.Sprintf("jsonl-%08d", line)
	}
	if jd.IsCTH != nil {
		d.Truth.IsCTH = *jd.IsCTH
	}
	if jd.IsDox != nil {
		d.Truth.IsDox = *jd.IsDox
	}
	return d, nil
}

// schemaEdgeLines are lines on both sides of the schema decoder's
// subset: the ones it must accept, and one of each kind it must hand to
// encoding/json.
var schemaEdgeLines = []string{
	// Accepted.
	`{"text":"hello"}`,
	` { "id" : "a" , "text" : "b" } `,
	"\t{\"text\":\"x\"}\r",
	`{"text":"café \"q\" \\ \/ \b\f\n\r\t \u003c \u00e9 \uFFFF \u0000"}`,
	`{"text":"a","pos_in_thread":-0,"thread_size":999999999999999999}`,
	`{"text":"a","pos_in_thread":-12,"thread_size":0,"is_cth":true,"is_dox":false}`,
	`{"text":"first","text":"second","is_cth":true,"is_cth":false}`,
	`{"id":"","text":"empty id gets a generated one"}`,
	`{}`,
	`{"text":""}`,
	"{\"text\":\"\x7f 😀 \ufffd\"}",
	// Handed to encoding/json.
	`{"Text":"upper-case key"}`,
	`{"TEXT":"upper-case key"}`,
	`{"\u0074ext":"escaped key"}`,
	`{"text":"x","extra":1}`,
	`{"text":"x","nested":{"a":[1,2,{"text":"y"}]}}`,
	`{"text":"x","text":"y","meta":{"id":"z"}}`,
	`{"text":null}`,
	`{"text":"x","is_cth":null}`,
	`{"text":"x","pos_in_thread":1.0}`,
	`{"text":"x","pos_in_thread":1e3}`,
	`{"text":"x","pos_in_thread":01}`,
	`{"text":"x","pos_in_thread":1234567890123456789}`,
	`{"text":"x","pos_in_thread":-}`,
	`{"text":"x","pos_in_thread":"1"}`,
	`{"text":"x","is_dox":"true"}`,
	`{"text":"x","is_dox":truex}`,
	`{"text":"\ud83d\ude00"}`,
	`{"text":"\ud800"}`,
	`{"text":"\x"}`,
	`{"text":"\u12"}`,
	"{\"text\":\"bad \xff utf8\"}",
	"{\"text\":\"ctrl \x01 byte\"}",
	`{"text":"x"} trailing`,
	`{"text":"x"}}`,
	`{"text":"x",}`,
	`{"text":"x"`,
	`{"text":"x`,
	`{"text" "x"}`,
	`{,"text":"x"}`,
	`["text","x"]`,
	`"text"`,
	`null`,
	"\ufeff{\"text\":\"bom\"}",
	`not json at all`,
}

func FuzzDecodeJSONLLineMatchesEncodingJSON(f *testing.F) {
	g := NewGenerator(Config{Seed: 3, VolumeScale: 400_000, PositiveScale: 100})
	docs := g.generateFlat(PlatformGab).Docs
	if len(docs) > 40 {
		docs = docs[:40]
	}
	for _, truth := range []bool{false, true} {
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, docs, truth); err != nil {
			f.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
			f.Add(line)
		}
	}
	for _, line := range schemaEdgeLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, gerr := decodeJSONLLine(raw, 7)
		want, werr := referenceDecodeJSONLLine(raw, 7)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%q: error %v, want %v", raw, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded\n%+v\nwant\n%+v", raw, got, want)
		}
		var d Document
		if decodeJSONLSchema(raw, &d) {
			var jd JSONLDocument
			if err := json.Unmarshal(raw, &jd); err != nil {
				t.Fatalf("%q: schema decoder accepted what encoding/json rejects: %v", raw, err)
			}
		}
	})
}

// TestDecodeJSONLSchemaSubset pins which edge lines the schema decoder
// takes itself (the first schemaAccepted) and which it hands to
// encoding/json: a change that widens or narrows its subset shows here.
func TestDecodeJSONLSchemaSubset(t *testing.T) {
	const schemaAccepted = 11
	for i, line := range schemaEdgeLines {
		var d Document
		if got := decodeJSONLSchema([]byte(line), &d); got != (i < schemaAccepted) {
			t.Errorf("schema decoder on %q: ok = %v, want %v", line, got, !got)
		}
	}
}

// TestDecodeJSONLLineAllocs pins the schema decoder's garbage on a
// canonical `corpusgen -truth` line: one allocation per non-empty
// string field (eight here) and nothing else.
func TestDecodeJSONLLineAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	raw := []byte(`{"id":"boards-00000001","dataset":"boards","platform":"boards","domain":"board-16.example","thread_id":"boards-t000000","pos_in_thread":1,"thread_size":4,"author":"pale_lantern572","date":"2011-01-02","text":"sauce on that image from the last thread?","is_cth":false,"is_dox":false}`)
	var sink Document
	allocs := testing.AllocsPerRun(100, func() {
		d, err := decodeJSONLLine(raw, 1)
		if err != nil {
			t.Fatal(err)
		}
		sink = d
	})
	if allocs != 8 {
		t.Fatalf("decodeJSONLLine allocates %v times per canonical line, want 8", allocs)
	}
	if sink.PosInThread != 1 || sink.ThreadSize != 4 || sink.Text != "sauce on that image from the last thread?" {
		t.Fatalf("decoded %+v", sink)
	}
}
