package benchkit

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	tr := NewTrace()
	// request [0,100) ── handler [10,90) ── decode [10,20), score [20,70), encode [60,90)
	// decode/score/encode: encode overlaps score by 10 ms, counted once.
	req := tr.Add("http", 0, 1, 0, 100*ms)
	h := tr.Add("handler", req, 1, 10*ms, 90*ms)
	tr.Add("decode", h, 1, 10*ms, 20*ms)
	score := tr.Add("score", h, 1, 20*ms, 70*ms)
	tr.Add("encode", h, 1, 60*ms, 90*ms)
	// score's children: one inside, one overhanging the parent's end.
	tr.Add("tokenize", score, 1, 20*ms, 40*ms)
	tr.Add("model", score, 1, 60*ms, 80*ms)

	self := tr.SelfTimes()
	want := map[string]time.Duration{
		"http":     20 * ms, // 100 − handler's 80
		"handler":  0,       // children cover [10,90) completely
		"decode":   10 * ms,
		"score":    20 * ms, // 50 − tokenize 20 − model clipped to [60,70) 10
		"encode":   30 * ms,
		"tokenize": 20 * ms,
		"model":    20 * ms, // a child keeps its own full duration
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
	// The overhang is what makes the sum exceed the root: double counting.
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != 120*ms {
		t.Errorf("self times sum to %v, want the root's 100ms plus 10ms overlap and 10ms overhang", sum)
	}
}

func TestSelfTimesSumOverSpansOfOneName(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < 3; i++ {
		at := time.Duration(i) * time.Second
		p := tr.Add("pass", 0, i, at, at+500*time.Millisecond)
		tr.Add("scan", p, i, at, at+100*time.Millisecond)
	}
	self := tr.SelfTimes()
	if self["pass"] != 1200*time.Millisecond || self["scan"] != 300*time.Millisecond {
		t.Errorf("self = %v, want pass 1.2s and scan 0.3s", self)
	}
}

func TestTraceWriteFile(t *testing.T) {
	tr := NewTrace()
	root := tr.Add("a", 0, 7, 0, time.Second)
	tr.Add("b", root, 7, 0, time.Millisecond)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != 2 || got.Spans[1].Parent != got.Spans[0].ID || got.Spans[1].Req != 7 || got.Spans[0].End != int64(time.Second) {
		t.Errorf("round trip lost structure: %+v", got.Spans)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
}
