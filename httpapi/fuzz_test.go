package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	keysearch "repro"
)

var (
	fuzzSrvOnce sync.Once
	fuzzSrv     *Server
	fuzzSrvErr  error
)

// fuzzServer is the one server every fuzz execution of a process
// shares: a small mutable demo engine behind a fixed-limit gate.
func fuzzServer(t *testing.T) *Server {
	t.Helper()
	fuzzSrvOnce.Do(func() {
		eng, err := keysearch.DemoMoviesWith(7, keysearch.WithMutations())
		fuzzSrv, fuzzSrvErr = New(eng, WithAdmission(AdmissionConfig{MaxConcurrent: 2, MaxQueue: 2})), err
	})
	if fuzzSrvErr != nil {
		t.Fatal(fuzzSrvErr)
	}
	return fuzzSrv
}

// fuzzEndpoints are the decoding /v1/ endpoints with the type a 200
// reply decodes as.
var fuzzEndpoints = []struct {
	path string
	ok   func() any
}{
	{"/v1/search", func() any { return new(keysearch.SearchResponse) }},
	{"/v1/diversify", func() any { return new(keysearch.SearchResponse) }},
	{"/v1/rows", func() any { return new(keysearch.RowsResponse) }},
	{"/v1/construct", func() any { return new(ConstructStepResponse) }},
	{"/v1/mutate", func() any { return new(MutateResponse) }},
}

// FuzzHTTPEndpoints posts arbitrary bodies to the decoding /v1/
// endpoints and holds the service contract on every input: the status
// is one the API documents — never a 5xx other than a 503 shed — and
// the body decodes strictly as the endpoint's response type on 200 and
// as a non-empty ErrorResponse otherwise.
func FuzzHTTPEndpoints(f *testing.F) {
	seven := strings.TrimSpace(strings.Repeat("hanks ", 7))
	for i := range fuzzEndpoints {
		ep := byte(i)
		f.Add(ep, []byte(`{"query":"hanks","k":3}`))
		f.Add(ep, []byte(`{"query":"`+seven+`","k":3}`))
		f.Add(ep, []byte(`{"query":"tom london","k":2,"row_limit":1,"lambda":0.5}`))
		f.Add(ep, []byte(`{"action":"start","start":{"query":"`+seven+`","stop_at_remaining":1}}`))
		f.Add(ep, []byte(`{"mutations":[{"op":"insert","table":"actor","values":["fz1","Fuzz Actor"]}]}`))
		f.Add(ep, []byte(`{"query":`))
		f.Add(ep, []byte(`{"query":"hanks","k":3,"lambda":2}`))
	}

	allowed := map[int]bool{200: true, 400: true, 403: true, 404: true, 413: true, 429: true, 503: true}
	f.Fuzz(func(t *testing.T, ep byte, body []byte) {
		srv := fuzzServer(t)
		target := fuzzEndpoints[int(ep)%len(fuzzEndpoints)]
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target.path, bytes.NewReader(body)))
		if !allowed[rec.Code] {
			t.Fatalf("%s %q: status %d: %s", target.path, body, rec.Code, rec.Body.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
		dec.DisallowUnknownFields()
		if rec.Code == http.StatusOK {
			if err := dec.Decode(target.ok()); err != nil {
				t.Fatalf("%s %q: 200 body does not decode: %v: %s", target.path, body, err, rec.Body.Bytes())
			}
			return
		}
		var er ErrorResponse
		if err := dec.Decode(&er); err != nil || er.Error == "" {
			t.Fatalf("%s %q: status %d body is no ErrorResponse (%v): %s", target.path, body, rec.Code, err, rec.Body.Bytes())
		}
	})
}
