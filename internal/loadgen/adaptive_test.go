package loadgen

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/httpapi"
)

// kneeWrapper simulates a server whose true capacity is `capacity`
// concurrent requests, each costing `service` of wall time: a
// semaphore of that width inside the admission gate, so any admitted
// concurrency above the capacity shows up as queueing latency — a
// sharp, machine-independent knee for the governor to find.
func kneeWrapper(capacity int, service time.Duration) func(http.Handler) http.Handler {
	slots := make(chan struct{}, capacity)
	return func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case slots <- struct{}{}:
			case <-r.Context().Done():
				w.WriteHeader(http.StatusGatewayTimeout)
				return
			}
			defer func() { <-slots }()
			select {
			case <-time.After(service):
			case <-r.Context().Done():
				w.WriteHeader(http.StatusGatewayTimeout)
				return
			}
			inner.ServeHTTP(w, r)
		})
	}
}

// TestAdaptiveMatchesStaticKneeAndShedsCostAware is the loadgen
// acceptance test of the admission governor (docs/admission.md): under
// 8x oversubscription against a server with a hidden 2-slot capacity,
// the governor — starting blind at its floor of 1, no hand-tuned limit
// anywhere — must run its control loop inside its bounds, serve without
// real errors, and shed cost-aware: the shed *rate* of the cheapest
// derived cost band must be strictly below the heaviest band's, because
// under queue pressure the estimated-heaviest waiters lose their places
// first. How its goodput compares with a gate fixed at the knee is a
// wall-clock ratio, guarded by the overload leg of cmd/bench
// (goodput_vs_static_knee); the knee-finding itself is pinned on a
// fake clock by internal/admission's TestConvergesToKnee.
func TestAdaptiveMatchesStaticKneeAndShedsCostAware(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load run")
	}
	eng, _ := env.get(t)
	// A dedicated search/rows workload (no construct dialogues, whose
	// multi-request sessions muddy per-request latency; no mutations,
	// which are cost-1 by definition) over the same corpus, so each
	// op's cost attribution is clean.
	db, err := BuildDataset(DatasetConfig{Kind: KindMovies, TargetRows: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ops, err := BuildWorkload(db, KindMovies, WorkloadConfig{
		Ops:  128,
		Mix:  Mix{Search: 1, Rows: 1},
		Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		capacity = 2
		// Wide enough that scheduler jitter (a millisecond or two under
		// the race detector) stays well inside the degradation
		// threshold, so the knee is the main signal the governor sees.
		service = 10 * time.Millisecond
		workers = 16 // 8x the hidden capacity
	)
	srv := httpapi.New(eng,
		httpapi.WithHandlerWrapper(kneeWrapper(capacity, service)),
		httpapi.WithAdmission(httpapi.AdmissionConfig{
			MinConcurrent: 1,
			MaxConcurrent: 16,
			MaxQueue:      8,
			QueueTimeout:  100 * time.Millisecond,
			Window:        200 * time.Millisecond,
		}),
		httpapi.WithRequestTimeout(500*time.Millisecond),
	)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	res, err := Run(t.Context(), Options{BaseURL: ts.URL, Ops: ops, Workers: workers, Duration: 3500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health httpapi.HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	t.Logf("adaptive: %v", res)

	if res.Goodput == 0 {
		t.Fatal("served nothing under overload")
	}
	if res.Errors != 0 {
		t.Fatalf("overload produced %d real errors", res.Errors)
	}
	if res.Shed429+res.Shed503 == 0 {
		t.Fatalf("shed nothing at 8x oversubscription: %v", res)
	}

	// Cost-aware shedding, judged by the server's own per-band counters
	// so client-side status codes can't blur attribution.
	gov := health.Adaptive
	if gov == nil || !gov.Enabled {
		t.Fatalf("healthz reports no adaptive governor: %+v", health)
	}
	if gov.Limit < 1 || gov.Limit > 16 {
		t.Fatalf("converged limit %d escaped [1,16]", gov.Limit)
	}
	if gov.Windows < 5 {
		t.Fatalf("control loop barely ran: %d windows", gov.Windows)
	}
	if len(gov.Bands) < 2 {
		t.Fatalf("want derived cost bands, got %+v", gov.Bands)
	}
	// Under unrelenting 8x pressure the heavy band may be starved
	// outright (admitted 0, shed rate 1.0) — that is the design working,
	// not a failure — but the cheap band must still be getting through,
	// and both bands must have seen real traffic for the rates to mean
	// anything.
	cheap, heavy := gov.Bands[0], gov.Bands[len(gov.Bands)-1]
	if cheap.Admitted == 0 {
		t.Fatalf("cheap band admitted nothing: cheap %+v heavy %+v", cheap, heavy)
	}
	if heavy.Sheds()+heavy.Admitted == 0 {
		t.Fatalf("heavy band saw no traffic: %+v", heavy)
	}
	cheapRate := float64(cheap.Sheds()) / float64(cheap.Sheds()+cheap.Admitted)
	heavyRate := float64(heavy.Sheds()) / float64(heavy.Sheds()+heavy.Admitted)
	t.Logf("shed rates: cheap %.3f (%d/%d), heavy %.3f (%d/%d)",
		cheapRate, cheap.Sheds(), cheap.Sheds()+cheap.Admitted,
		heavyRate, heavy.Sheds(), heavy.Sheds()+heavy.Admitted)
	if cheapRate >= heavyRate {
		t.Fatalf("shedding is not cost-aware: cheap band rate %.3f >= heavy band rate %.3f",
			cheapRate, heavyRate)
	}
}
