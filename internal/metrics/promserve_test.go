package metrics_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/httpapi"
	"repro/internal/metrics"
	"repro/internal/qlog"
)

// TestServedExpositionIsStrict drives a traced, query-logged server with
// adaptive admission through successes and a client error on two
// endpoints, and holds its GET /metrics to the strict exposition checker,
// which is test code of this package.
func TestServedExpositionIsStrict(t *testing.T) {
	eng, err := keysearch.DemoMovies(7)
	if err != nil {
		t.Fatal(err)
	}
	logger, err := qlog.Open(t.TempDir(), qlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httpapi.New(eng, httpapi.WithTracing(), httpapi.WithQueryLog(logger),
		httpapi.WithAdmission(httpapi.AdmissionConfig{MinConcurrent: 2, MaxConcurrent: 4, MaxQueue: 8}))
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	fetch := func(method, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
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
		return resp.StatusCode, string(raw)
	}
	q := eng.SampleQueries(1)[0]
	for _, r := range []struct {
		path, body string
		code       int
	}{
		{"/v1/search", `{"query":"` + q + `","k":3}`, http.StatusOK},
		{"/v1/search", `{"query":"` + q + `","k":3}`, http.StatusOK},
		{"/v1/rows", `{"query":"` + q + `","k":3}`, http.StatusOK},
		{"/v1/search", `{"unknown_field":1}`, http.StatusBadRequest},
	} {
		if code, _ := fetch(http.MethodPost, r.path, r.body); code != r.code {
			t.Fatalf("%s %s: status %d, want %d", r.path, r.body, code, r.code)
		}
	}
	code, body := fetch(http.MethodGet, "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if err := metrics.CheckPromText([]byte(body)); err != nil {
		t.Fatalf("/metrics fails strict exposition check: %v\n%s", err, body)
	}
	for _, want := range []string{"keysearch_requests_total", "keysearch_request_duration_seconds_bucket",
		"keysearch_querylog_written_total", "keysearch_adaptive_limit"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, body)
		}
	}
}
