package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	keysearch "repro"
)

// postRaw sends an arbitrary body (not necessarily JSON) and returns the
// status code.
func postRaw(t *testing.T, client *http.Client, url, body string) int {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestHTTPMalformedBodies: every POST endpoint rejects syntactically
// broken, type-mismatched, and unknown-field bodies with 400.
func TestHTTPMalformedBodies(t *testing.T) {
	eng := demoEngine(t)
	ts := httptest.NewServer(New(eng))
	defer ts.Close()

	endpoints := []string{"/v1/search", "/v1/diversify", "/v1/rows", "/v1/mutate", "/v1/construct"}
	bodies := []struct {
		name, body string
	}{
		{"truncated", `{"query": "tom`},
		{"not json", `this is not json`},
		{"wrong type", `{"query": 42}`},
		{"unknown field", `{"query": "tom", "surprise": true}`},
		{"array instead of object", `[1,2,3]`},
	}
	for _, ep := range endpoints {
		for _, b := range bodies {
			if code := postRaw(t, ts.Client(), ts.URL+ep, b.body); code != http.StatusBadRequest {
				t.Errorf("%s with %s body: status = %d, want 400", ep, b.name, code)
			}
		}
	}
}

// TestHTTPBodyCap: a body one byte over maxBodyBytes is refused with a
// structured 413 and one byte under is decoded, on every POST endpoint
// and behind the governed gate too, whose cost peek re-wraps the body
// before the handler caps it.
func TestHTTPBodyCap(t *testing.T) {
	eng := demoEngine(t)
	// The padding sits inside the object, so the decoder has to read all
	// of it before the value is complete.
	body := func(n int) string {
		const head, tail = `{"query":"hanks","k":3`, `}`
		return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
	}
	for name, srv := range map[string]*Server{
		"static":   New(eng),
		"adaptive": New(eng, WithAdmission(AdmissionConfig{MinConcurrent: 2, MaxConcurrent: 8})),
	} {
		ts := httptest.NewServer(srv)
		if code := postRaw(t, ts.Client(), ts.URL+"/v1/search", body(maxBodyBytes-1)); code != http.StatusOK {
			t.Errorf("%s: body one byte under the cap: status = %d, want 200", name, code)
		}
		for _, ep := range []string{"/v1/search", "/v1/diversify", "/v1/rows", "/v1/mutate", "/v1/construct"} {
			var got ErrorResponse
			resp, err := ts.Client().Post(ts.URL+ep, "application/json", strings.NewReader(body(maxBodyBytes+1)))
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || got.Code != "body_too_large" {
				t.Errorf("%s %s: body one byte over the cap: status = %d, body %+v (%v), want a structured 413",
					name, ep, resp.StatusCode, got, err)
			}
		}
		ts.Close()
	}
}

// TestHTTPWrongMethods: the method-scoped mux patterns reject mismatched
// verbs with 405.
func TestHTTPWrongMethods(t *testing.T) {
	eng := demoEngine(t)
	ts := httptest.NewServer(New(eng))
	defer ts.Close()

	check := func(method, path string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s %s: status = %d, want %d", method, path, resp.StatusCode, want)
		}
	}
	check(http.MethodGet, "/v1/search", http.StatusMethodNotAllowed)
	check(http.MethodGet, "/v1/mutate", http.StatusMethodNotAllowed)
	check(http.MethodDelete, "/v1/rows", http.StatusMethodNotAllowed)
	check(http.MethodPost, "/v1/keywords", http.StatusMethodNotAllowed)
	check(http.MethodPut, "/healthz", http.StatusMethodNotAllowed)
	check(http.MethodPost, "/v1/unknown", http.StatusNotFound)
}

// TestHTTPExpiredConstructSession: a session answered after its TTL is
// gone (404), and construct actions validate their inputs.
func TestHTTPExpiredConstructSession(t *testing.T) {
	eng := demoEngine(t)
	now := time.Now()
	clock := func() time.Time { return now }
	ts := httptest.NewServer(New(eng, WithSessionTTL(time.Minute), WithClock(clock)))
	defer ts.Close()

	q := eng.SampleQueries(1)[0]
	var step ConstructStepResponse
	if code := post(t, ts.Client(), ts.URL+"/v1/construct", ConstructStepRequest{
		Action: "start",
		Start:  &keysearch.ConstructRequest{Query: q, StopAtRemaining: 1},
	}, &step); code != http.StatusOK {
		t.Fatalf("start = %d", code)
	}
	if step.SessionID == "" {
		t.Fatal("no session id")
	}

	// Advance past the TTL: the session is purged.
	now = now.Add(2 * time.Minute)
	var eres ErrorResponse
	if code := post(t, ts.Client(), ts.URL+"/v1/construct", ConstructStepRequest{
		Action: "accept", SessionID: step.SessionID,
	}, &eres); code != http.StatusNotFound {
		t.Fatalf("accept on expired session = %d, want 404", code)
	}
	if !strings.Contains(eres.Error, "expired") {
		t.Fatalf("error = %q", eres.Error)
	}
	// Same for candidates and cancel.
	if code := post(t, ts.Client(), ts.URL+"/v1/construct", ConstructStepRequest{
		Action: "candidates", SessionID: step.SessionID,
	}, &eres); code != http.StatusNotFound {
		t.Fatalf("candidates on expired session = %d, want 404", code)
	}
	if code := post(t, ts.Client(), ts.URL+"/v1/construct", ConstructStepRequest{
		Action: "cancel", SessionID: step.SessionID,
	}, &eres); code != http.StatusNotFound {
		t.Fatalf("cancel on expired session = %d, want 404", code)
	}

	// Bad construct inputs.
	if code := post(t, ts.Client(), ts.URL+"/v1/construct", ConstructStepRequest{Action: "start"}, &eres); code != http.StatusBadRequest {
		t.Fatalf("start without body = %d, want 400", code)
	}
	if code := post(t, ts.Client(), ts.URL+"/v1/construct", ConstructStepRequest{Action: "dance"}, &eres); code != http.StatusBadRequest {
		t.Fatalf("unknown action = %d, want 400", code)
	}
}

// TestHTTPKeywordsValidation: the only GET endpoint with parameters
// rejects a bad limit.
func TestHTTPKeywordsValidation(t *testing.T) {
	eng := demoEngine(t)
	ts := httptest.NewServer(New(eng))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/keywords?prefix=t&limit=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit = %d, want 400", resp.StatusCode)
	}
}

// TestHTTPLimitBounds: k and row_limit outside [0, bound], and a
// diversify lambda outside [0, 1], are refused with 400 on every ranked
// endpoint before any work is done; the bounds themselves are served. k = 1<<62 is the overflow case: /v1/rows asks
// each interpretation for 4k rows, which wraps to 0, "unlimited".
func TestHTTPLimitBounds(t *testing.T) {
	eng := demoEngine(t)
	ts := httptest.NewServer(New(eng))
	defer ts.Close()

	cases := []struct {
		path, fields string
		want         int
	}{
		{"/v1/search", `"k":-1`, http.StatusBadRequest},
		{"/v1/search", `"k":1001`, http.StatusBadRequest},
		{"/v1/search", `"k":4611686018427387904`, http.StatusBadRequest},
		{"/v1/search", `"k":1000`, http.StatusOK},
		{"/v1/search", `"k":3,"row_limit":-1`, http.StatusBadRequest},
		{"/v1/search", `"k":3,"row_limit":101`, http.StatusBadRequest},
		{"/v1/search", `"k":3,"row_limit":100`, http.StatusOK},
		{"/v1/diversify", `"k":-1`, http.StatusBadRequest},
		{"/v1/diversify", `"k":4611686018427387904`, http.StatusBadRequest},
		{"/v1/diversify", `"k":1000`, http.StatusOK},
		{"/v1/diversify", `"k":3,"row_limit":101`, http.StatusBadRequest},
		{"/v1/diversify", `"k":3,"lambda":2`, http.StatusBadRequest},
		{"/v1/diversify", `"k":3,"lambda":-0.5`, http.StatusBadRequest},
		{"/v1/diversify", `"k":3,"lambda":0`, http.StatusOK},
		{"/v1/diversify", `"k":3,"lambda":1`, http.StatusOK},
		{"/v1/rows", `"k":-1`, http.StatusBadRequest},
		{"/v1/rows", `"k":2305843009213693952`, http.StatusBadRequest},
		{"/v1/rows", `"k":4611686018427387904`, http.StatusBadRequest},
		{"/v1/rows", `"k":1000`, http.StatusOK},
	}
	for _, c := range cases {
		body := `{"query":"hanks",` + c.fields + `}`
		if code := postRaw(t, ts.Client(), ts.URL+c.path, body); code != c.want {
			t.Errorf("%s %s: status = %d, want %d", c.path, body, code, c.want)
		}
	}
}

// TestHTTPKeywordBound: a ranked query with more keywords than the
// engine's bound is refused with 400 on every ranked endpoint instead
// of materialising an exponential interpretation space; a query at the
// bound is served, and query construction, built for long queries, is
// not bounded.
func TestHTTPKeywordBound(t *testing.T) {
	eng := demoEngine(t)
	ts := httptest.NewServer(New(eng))
	defer ts.Close()

	qs := eng.SampleQueries(7)
	if len(qs) < 7 {
		t.Fatalf("demo corpus has %d sample keywords, want 7", len(qs))
	}
	seven := strings.Join(qs, " ")
	for _, ep := range []string{"/v1/search", "/v1/diversify", "/v1/rows"} {
		var got ErrorResponse
		if code := post(t, ts.Client(), ts.URL+ep, map[string]any{"query": seven, "k": 3}, &got); code != http.StatusBadRequest ||
			!strings.Contains(got.Error, "too many keywords") {
			t.Errorf("%s with 7 keywords: status = %d, body %+v, want 400 too many keywords", ep, code, got)
		}
	}
	six := strings.TrimSpace(strings.Repeat(qs[0]+" ", 6))
	if code := postRaw(t, ts.Client(), ts.URL+"/v1/search", `{"query":"`+six+`","k":3}`); code != http.StatusOK {
		t.Errorf("/v1/search with 6 keywords: status = %d, want 200", code)
	}
	var step ConstructStepResponse
	if code := post(t, ts.Client(), ts.URL+"/v1/construct", ConstructStepRequest{
		Action: "start",
		Start:  &keysearch.ConstructRequest{Query: seven, StopAtRemaining: 1},
	}, &step); code != http.StatusOK {
		t.Errorf("/v1/construct start with 7 keywords: status = %d, want 200", code)
	}
}
