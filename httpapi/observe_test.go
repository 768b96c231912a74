package httpapi

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	keysearch "repro"
	"repro/internal/qlog"
)

// obsServer builds an observed server over a fresh demo engine: tracing,
// a query log in a temp dir, and a slow-query threshold low enough that
// every request dumps. Returns the server (for Close), the test server,
// the log dir, and the captured slow-query lines.
func obsServer(t *testing.T, extra ...Option) (*Server, *httptest.Server, string, *[]string) {
	t.Helper()
	eng, err := keysearch.DemoMovies(7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	logger, err := qlog.Open(dir, qlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var slow []string
	opts := append([]Option{
		WithTracing(),
		WithQueryLog(logger),
		WithSlowQueryLog(time.Nanosecond),
		WithSlowQueryOutput(func(format string, v ...any) {
			mu.Lock()
			slow = append(slow, fmt.Sprintf(format, v...))
			mu.Unlock()
		}),
	}, extra...)
	srv := New(eng, opts...)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, dir, &slow
}

// fetchRaw posts (or gets when body is empty) and returns status, body,
// and the X-Trace-Id response header.
func fetchRaw(t *testing.T, base, path, body string, header http.Header) (int, string, string) {
	t.Helper()
	var req *http.Request
	var err error
	if body == "" {
		req, err = http.NewRequest(http.MethodGet, base+path, nil)
	} else {
		req, err = http.NewRequest(http.MethodPost, base+path, strings.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw), resp.Header.Get("X-Trace-Id")
}

// TestHTTPTracingDifferential is the wire-level differential of the
// observability stack: a fully observed server (tracing + query log +
// slow-query dump) must produce byte-identical response bodies to a
// plain server, on every ranked endpoint.
func TestHTTPTracingDifferential(t *testing.T) {
	plainEng, err := keysearch.DemoMovies(7)
	if err != nil {
		t.Fatal(err)
	}
	tsPlain := httptest.NewServer(New(plainEng))
	defer tsPlain.Close()
	_, tsObs, _, _ := obsServer(t)

	queries := plainEng.SampleQueries(3)
	for _, q := range queries {
		for _, req := range []struct{ path, body string }{
			{"/v1/search", `{"query":"` + q + `","k":4,"row_limit":2}`},
			{"/v1/diversify", `{"query":"` + q + `","k":3,"lambda":0.5}`},
			{"/v1/rows", `{"query":"` + q + `","k":5}`},
		} {
			// Two passes so cached paths are compared too.
			for pass := 0; pass < 2; pass++ {
				wc, want, plainTID := fetchRaw(t, tsPlain.URL, req.path, req.body, nil)
				gc, got, obsTID := fetchRaw(t, tsObs.URL, req.path, req.body, nil)
				if wc != gc || want != got {
					t.Fatalf("%s(%q) pass %d: observed response diverges\n  plain    (%d): %.300s\n  observed (%d): %.300s",
						req.path, q, pass, wc, want, gc, got)
				}
				if plainTID != "" {
					t.Fatalf("untraced server set X-Trace-Id %q", plainTID)
				}
				if obsTID == "" {
					t.Fatalf("traced server did not set X-Trace-Id")
				}
			}
		}
	}

	// A client-supplied trace ID is adopted, so load-generator and
	// server views of one request correlate.
	_, _, tid := fetchRaw(t, tsObs.URL, "/v1/search",
		`{"query":"`+queries[0]+`","k":2}`, http.Header{"X-Trace-Id": []string{"client-supplied-id"}})
	if tid != "client-supplied-id" {
		t.Fatalf("client trace ID not adopted: got %q", tid)
	}
}

// TestMetricsEndpoint drives traffic through an observed server and
// asserts GET /metrics carries the expected families with live values.
// The strict exposition check of the same traffic is in
// internal/metrics (TestServedExpositionIsStrict), beside the checker.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, _, _ := obsServer(t)
	eng, err := keysearch.DemoMovies(7)
	if err != nil {
		t.Fatal(err)
	}
	q := eng.SampleQueries(1)[0]
	for i := 0; i < 3; i++ {
		if code, _, _ := fetchRaw(t, ts.URL, "/v1/search", `{"query":"`+q+`","k":3}`, nil); code != http.StatusOK {
			t.Fatalf("search status = %d", code)
		}
	}
	if code, _, _ := fetchRaw(t, ts.URL, "/v1/rows", `{"query":"`+q+`","k":3}`, nil); code != http.StatusOK {
		t.Fatalf("rows status = %d", code)
	}
	// One client error so a non-2xx code shows up labelled.
	if code, _, _ := fetchRaw(t, ts.URL, "/v1/search", `{"unknown_field":1}`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad request status = %d", code)
	}

	code, body, _ := fetchRaw(t, ts.URL, "/metrics", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		`keysearch_requests_total{endpoint="search",code="200"}`,
		`keysearch_requests_total{endpoint="search",code="400"}`,
		`keysearch_requests_total{endpoint="rows",code="200"}`,
		`keysearch_request_duration_seconds_bucket{endpoint="search",le="+Inf"}`,
		`keysearch_request_duration_seconds_count{endpoint="search"}`,
		"keysearch_served_total",
		"keysearch_in_flight_requests",
		"keysearch_snapshot_epoch",
		"keysearch_querylog_written_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, body)
		}
	}
	// The search counter must reflect the three successes.
	if !strings.Contains(body, `keysearch_requests_total{endpoint="search",code="200"} 3`) {
		t.Fatalf("search request counter wrong:\n%s", body)
	}
}

// TestMetricsAdaptiveGovernor asserts the governor families appear when
// adaptive admission is enabled.
func TestMetricsAdaptiveGovernor(t *testing.T) {
	_, ts, _, _ := obsServer(t, WithAdmission(AdmissionConfig{MinConcurrent: 2, MaxConcurrent: 4, MaxQueue: 8}))
	eng, err := keysearch.DemoMovies(7)
	if err != nil {
		t.Fatal(err)
	}
	q := eng.SampleQueries(1)[0]
	if code, _, _ := fetchRaw(t, ts.URL, "/v1/search", `{"query":"`+q+`","k":2}`, nil); code != http.StatusOK {
		t.Fatalf("search status = %d", code)
	}
	code, body, _ := fetchRaw(t, ts.URL, "/metrics", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.Contains(body, "keysearch_adaptive_limit") {
		t.Fatalf("/metrics lacks governor families:\n%s", body)
	}
}

// TestQueryLogOverHTTP round-trips the query log through real serving:
// ranked requests and a full construct dialogue, then decodes the JSONL
// files and checks the entries record what was asked and what was
// served — including the served interpretation choice of a converged
// construct session.
func TestQueryLogOverHTTP(t *testing.T) {
	srv, ts, dir, slow := obsServer(t)
	eng, err := keysearch.DemoMovies(7)
	if err != nil {
		t.Fatal(err)
	}
	q := eng.SampleQueries(1)[0]

	code, _, searchTID := fetchRaw(t, ts.URL, "/v1/search", `{"query":"`+q+`","k":3}`, nil)
	if code != http.StatusOK {
		t.Fatalf("search status = %d", code)
	}

	// Drive a construct dialogue to convergence: start, accept once,
	// then reject until done (mirrors the session test).
	qs := eng.SampleQueries(2)
	wide := qs[0] + " " + qs[1]
	var step ConstructStepResponse
	if code := post(t, ts.Client(), ts.URL+"/v1/construct", ConstructStepRequest{
		Action: "start",
		Start:  &keysearch.ConstructRequest{Query: wide, StopAtRemaining: 1},
	}, &step); code != http.StatusOK {
		t.Fatalf("construct start status = %d", code)
	}
	id := step.SessionID
	action := "accept"
	for guard := 0; !step.Done && step.Question != nil && guard < 100; guard++ {
		step = ConstructStepResponse{}
		if code := post(t, ts.Client(), ts.URL+"/v1/construct",
			ConstructStepRequest{Action: action, SessionID: id}, &step); code != http.StatusOK {
			t.Fatalf("construct %s status = %d", action, code)
		}
		action = "reject"
	}

	// Close flushes the async log; entries become readable.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := qlog.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}

	var searchEntry, servedEntry *qlog.Entry
	starts := 0
	for i := range entries {
		e := &entries[i]
		switch {
		case e.Op == "search":
			searchEntry = e
		case e.Op == "construct" && e.Action == "start":
			starts++
		}
		if e.Op == "construct" && e.ServedChoice != "" {
			servedEntry = e
		}
	}
	if searchEntry == nil {
		t.Fatalf("no search entry in query log: %+v", entries)
	}
	if searchEntry.TraceID != searchTID {
		t.Fatalf("search entry trace ID %q != response header %q", searchEntry.TraceID, searchTID)
	}
	if searchEntry.Query != q || searchEntry.Status != http.StatusOK || searchEntry.Outcome != "ok" {
		t.Fatalf("search entry misrecorded: %+v", searchEntry)
	}
	if searchEntry.Interpretation == "" || searchEntry.InterpretationProb <= 0 {
		t.Fatalf("search entry lacks the served interpretation: %+v", searchEntry)
	}
	if searchEntry.Results == 0 || searchEntry.DurationUS <= 0 {
		t.Fatalf("search entry lacks result count or duration: %+v", searchEntry)
	}
	for _, stage := range []string{"parse", "interpret", "rank"} {
		if _, ok := searchEntry.StagesUS[stage]; !ok {
			t.Fatalf("search entry lacks stage %q: %+v", stage, searchEntry.StagesUS)
		}
	}
	if starts != 1 {
		t.Fatalf("want 1 construct-start entry, got %d", starts)
	}
	if servedEntry == nil {
		t.Fatalf("no construct entry with a served choice in query log: %+v", entries)
	}
	if servedEntry.SessionID != id {
		t.Fatalf("served-choice entry session %q != %q", servedEntry.SessionID, id)
	}

	// The nanosecond slow-query threshold dumped every request's trace.
	if len(*slow) == 0 {
		t.Fatal("no slow-query dumps at a 1ns threshold")
	}
	if !strings.Contains((*slow)[0], "op=") || !strings.Contains((*slow)[0], `"spans"`) {
		t.Fatalf("slow-query dump lacks the trace tree: %q", (*slow)[0])
	}
}

// TestHealthzBuildInfo asserts /healthz carries the build block.
func TestHealthzBuildInfo(t *testing.T) {
	eng := demoEngine(t)
	ts := httptest.NewServer(New(eng))
	defer ts.Close()
	h := getHealth(t, ts.Client(), ts.URL)
	if h.Build == nil || h.Build.GoVersion == "" {
		t.Fatalf("/healthz build block missing or empty: %+v", h.Build)
	}
}
