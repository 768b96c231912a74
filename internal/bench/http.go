package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	keysearch "repro"
	"repro/httpapi"
	"repro/internal/loadgen"
	"repro/internal/relstore"
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

// side is one half of an A/B leg: a row name and how to stand its
// topology up over the shared dataset.
type side struct {
	name  string
	build func(*relstore.Database) (keysearch.Searcher, error)
}

func plainEngine(db *relstore.Database) (keysearch.Searcher, error) {
	return loadgen.NewEngine(db, loadgen.KindMovies)
}

// abRows is the shape the qcache and shard legs share: the same op
// stream, at the same concurrency, after the same half-step warm-up,
// against a baseline topology and a treated one built over identical
// data; the treated row's throughput over the baseline's is the ratio.
// Row retrieval is where execution cost lives (the joins a hot answer
// amortises and the shards partition), so the stream leans on it, with
// search and diversify keeping the other paths honest. The treated run
// is returned for the leg's own proof that the mechanism engaged.
func abRows(env *Env, cfg Config, wl loadgen.WorkloadConfig, column string, base, treated side) (LegReport, *served, error) {
	const workers = 8
	db, dataset, err := env.dataset(cfg.rows())
	if err != nil {
		return LegReport{}, nil, err
	}
	wl.Ops, wl.Seed, wl.Mix = 512, seed, loadgen.Mix{Search: 20, Rows: 60, Diversify: 20}
	ops, err := loadgen.BuildWorkload(db, loadgen.KindMovies, wl)
	if err != nil {
		return LegReport{}, nil, err
	}
	rep := LegReport{Dataset: dataset, Params: map[string]any{"workload_ops": len(ops), "workers": workers}}
	var run *served
	for _, sd := range []side{base, treated} {
		env.logf("%s: building engine, warming %v, measuring %v at %d workers...", sd.name, cfg.step()/2, cfg.step(), workers)
		topo, err := sd.build(db)
		if err != nil {
			return LegReport{}, nil, err
		}
		run, err = serve(httpapi.New(topo), cfg.step()/2, loadgen.Options{Ops: ops, Workers: workers, Duration: cfg.step()})
		if err != nil {
			return LegReport{}, nil, err
		}
		if run.res.Errors > 0 {
			return LegReport{}, nil, fmt.Errorf("%s produced %d errors", sd.name, run.res.Errors)
		}
		rep.Rows = append(rep.Rows, loadRow(sd.name, run.res))
	}
	if b := rep.Rows[0].Metrics["throughput_rps"]; b > 0 {
		rep.Rows[1].Ratios = map[string]float64{column: rep.Rows[1].Metrics["throughput_rps"] / b}
	}
	return rep, run, nil
}
