package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"harassrepro/internal/annotate"
)

// FuzzFeedbackBody drives arbitrary bodies through POST /v1/feedback:
// every answer is 202 or 400, a 202 hands the sink exactly the
// accepted items (each with text and a known task), and a 400 hands it
// nothing.
func FuzzFeedbackBody(f *testing.F) {
	for _, seed := range []string{
		`[{"platform":"boards","text":"go after this user","task":"cth","label":true,"generation":1}]`,
		`[{"text":"   ","label":false},{"text":"benign clip comment","task":"dox"}]`,
		`[{"text":"x","task":"Dox"}]`,
		`[{"text":"a","task":"doxing"},{"text":"b","task":"call-to-harassment"},{"text":"c","task":""}]`,
		`[{"text":"x","label":"yes"}]`,
		`[]`, `null`, `{}`, `not json`, ``,
	} {
		f.Add([]byte(seed))
	}
	sink := &captureSink{}
	s := New(Config{Backend: &genBackend{gen: 1}, Feedback: sink})
	h := s.Handler()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})

	f.Fuzz(func(t *testing.T, body []byte) {
		sink.mu.Lock()
		sink.items = nil
		sink.mu.Unlock()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/feedback", strings.NewReader(string(body))))
		sink.mu.Lock()
		got := append([]FeedbackItem(nil), sink.items...)
		sink.mu.Unlock()

		switch rec.Code {
		case http.StatusAccepted:
			var resp struct {
				Accepted int `json:"accepted"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("202 body %q: %v", rec.Body, err)
			}
			if resp.Accepted != len(got) {
				t.Fatalf("202 says accepted %d, sink got %d", resp.Accepted, len(got))
			}
			for i, it := range got {
				if strings.TrimSpace(it.Text) == "" {
					t.Errorf("sink item %d has blank text", i)
				}
				if _, err := annotate.ParseTask(it.Task); err != nil {
					t.Errorf("sink item %d: %v", i, err)
				}
			}
		case http.StatusBadRequest:
			if len(got) != 0 {
				t.Fatalf("400 (%s) but the sink got %d items", rec.Body, len(got))
			}
		default:
			t.Fatalf("status %d (%s), want 202 or 400", rec.Code, rec.Body)
		}
	})
}
