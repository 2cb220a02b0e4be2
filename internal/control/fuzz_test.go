package control

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzControlRequest drives adversarial bodies through the full
// POST /v1/fault handler stack — HTTP routing, strict JSON decode,
// PlanSpec compilation — and asserts the daemon-facing invariants: no
// panic ever, and a body the handler accepts (200) always re-validates
// into a buildable plan. The seed corpus covers every combinator, the
// clear request, and the classic malformed shapes.
func FuzzControlRequest(f *testing.F) {
	seeds := []string{
		`{"clear":true}`,
		`{"seed":7,"plan":{"kind":"loss","p":0.5}}`,
		`{"plan":{"kind":"corrupt","p":1}}`,
		`{"plan":{"kind":"duplicate","p":0.01}}`,
		`{"plan":{"kind":"gilbert-elliott","p_good_bad":0.1,"p_bad_good":0.4,"loss_good":0.01,"loss_bad":0.9}}`,
		`{"plan":{"kind":"only","frames":["beacon","data"],"inner":{"kind":"loss","p":0.3}}}`,
		`{"plan":{"kind":"to","to":"02:1d:e0:aa:00:10","inner":{"kind":"loss","p":0.3}}}`,
		`{"plan":{"kind":"window","from_ms":100,"until_ms":400,"inner":{"kind":"loss","p":1}}}`,
		`{"plan":{"kind":"silence","to":"02:1d:e0:aa:00:10","from_ms":250}}`,
		`{"plan":{"kind":"compose","plans":[{"kind":"loss","p":0.1},{"kind":"corrupt","p":0.2}]}}`,
		``,
		`{`,
		`[]`,
		`null`,
		`"loss"`,
		`{"plan":null}`,
		`{"plan":{}}`,
		`{"plan":{"kind":"loss","p":1e308}}`,
		`{"plan":{"kind":"loss","p":-1}}`,
		`{"plan":{"kind":"window","inner":{"kind":"window","inner":{"kind":"loss"}}}}`,
		`{"clear":true,"plan":{"kind":"loss"}}`,
		`{"plan":{"kind":"compose","plans":[]}}`,
		`{"plan":{"kind":"to","to":"zz:zz","inner":{"kind":"loss"}}}`,
		`{"seed":18446744073709551615,"plan":{"kind":"loss","p":0}}`,
		strings.Repeat(`{"plan":{"kind":"window","until_ms":9,"inner":`, 40) + `x`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	backend := &stubBackend{counters: map[string]int64{}}
	srv := NewServer(backend)
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/fault", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req) // must not panic
		if rec.Code == http.StatusOK {
			// An accepted body decodes strictly and compiles.
			var fr FaultRequest
			if err := DecodeJSON(body, &fr); err != nil {
				t.Fatalf("200 for body the decoder rejects: %v\n%s", err, body)
			}
			if _, err := fr.Validate(); err != nil {
				t.Fatalf("200 for plan that does not build: %v\n%s", err, body)
			}
		}
	})
}
