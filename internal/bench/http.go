package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"repro/httpapi"
	"repro/internal/loadgen"
)

// served is one measured run against a real HTTP server, with /healthz
// scraped after it so a row can report what the server did.
type served struct {
	res   *loadgen.Result
	after *httpapi.HealthResponse
}

// serve stands h up behind httptest, runs the measured load, and
// scrapes /healthz. Every row past the saturation ramp goes through it,
// so every row pays the same server setup and reads the same signals an
// operator would.
func serve(h http.Handler, opts loadgen.Options) (*served, error) {
	ts := httptest.NewServer(h)
	defer ts.Close()
	opts.BaseURL = ts.URL
	res, err := loadgen.Run(context.Background(), opts)
	if err != nil {
		return nil, err
	}
	after, err := scrape(ts.URL)
	return &served{res: res, after: after}, err
}

func scrape(base string) (*httpapi.HealthResponse, error) {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h httpapi.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("decoding /healthz: %w", err)
	}
	return &h, nil
}

// loadRow turns a load run into a row; counters that stayed zero are
// left out, so a shed or error column only appears where it happened.
func loadRow(name string, r *loadgen.Result) Row {
	m := map[string]float64{
		"workers":        float64(r.Workers),
		"requests":       float64(r.Requests),
		"throughput_rps": r.ThroughputRPS,
		"goodput_rps":    r.GoodputRPS,
		"p50_ms":         r.P50MS,
		"p95_ms":         r.P95MS,
		"p99_ms":         r.P99MS,
		"max_ms":         r.MaxMS,
	}
	for k, v := range map[string]float64{
		"target_rps":   r.TargetRPS,
		"shed_429":     float64(r.Shed429),
		"shed_503":     float64(r.Shed503),
		"deadline_504": float64(r.Deadline504),
		"errors":       float64(r.Errors),
	} {
		if v != 0 {
			m[k] = v
		}
	}
	return Row{Name: name, Metrics: m}
}
