package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/httpapi"
	"repro/internal/loadgen"
)

// served is one measured run against a real HTTP server, with /healthz
// scraped on both sides of it so a leg can report what the server did
// during the measurement alone (warm-up traffic excluded).
type served struct {
	res           *loadgen.Result
	before, after *httpapi.HealthResponse
}

// serve stands h up behind httptest, optionally warms it with the same
// options for the warm duration, runs the measured load, and scrapes
// /healthz. Every HTTP row goes through it, so every row pays the same
// server setup and reads the same signals an operator would.
func serve(h http.Handler, warm time.Duration, opts loadgen.Options) (*served, error) {
	ts := httptest.NewServer(h)
	defer ts.Close()
	opts.BaseURL = ts.URL
	ctx := context.Background()
	if warm > 0 {
		w := opts
		w.Duration = warm
		if _, err := loadgen.Run(ctx, w); err != nil {
			return nil, err
		}
	}
	out := &served{}
	var err error
	if out.before, err = scrape(ts.URL); err != nil {
		return nil, err
	}
	if out.res, err = loadgen.Run(ctx, opts); err != nil {
		return nil, err
	}
	out.after, err = scrape(ts.URL)
	return out, err
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
