package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/admission"
)

// AdaptiveConfig tunes the self-sizing admission governor
// (WithAdaptiveAdmission): an AIMD controller discovers the
// concurrency knee online — additively raising the limit while
// windowed p99 stays healthy, multiplicatively backing off when it
// degrades — and a cost-banded queue sheds the estimated-heaviest
// waiters first under pressure, so a heavy-tail multi-join cannot
// occupy every slot a hundred sub-millisecond lookups wanted.
//
// MaxConcurrent <= 0 leaves the governor disabled: the server behaves
// exactly like the PR 6 static gate (WithAdmission), byte for byte.
type AdaptiveConfig struct {
	// MinConcurrent is the concurrency floor the controller never
	// backs off below (default 2).
	MinConcurrent int
	// MaxConcurrent is the concurrency ceiling — the only required
	// field; <= 0 disables the governor entirely.
	MaxConcurrent int
	// InitialConcurrent is the starting limit (default MinConcurrent:
	// start conservative, probe upward).
	InitialConcurrent int
	// MaxQueue caps the total number of queued waiters across all
	// cost bands (< 0 = 0: shed as soon as the limit is reached; with
	// no queue, cost-aware shedding is inert).
	MaxQueue int
	// QueueTimeout bounds how long a request may queue before being
	// shed with 503 (<= 0 selects the default 1s).
	QueueTimeout time.Duration
	// Window is the control-loop aggregation interval (<= 0 selects
	// the default 500ms).
	Window time.Duration
	// Increase, Backoff, Degrade, MinWindowSamples tune the AIMD loop
	// (zero values select the admission.Config defaults: +1, x0.75,
	// 30% latency gradient, 8 samples).
	Increase         int
	Backoff          float64
	Degrade          float64
	MinWindowSamples int
	// CostBands are the ascending exclusive upper bounds of the cheap
	// cost bands (see admission.GateConfig.BandBounds). Empty derives
	// bands from the engine's own data: the p50 and p90 of
	// EstimateCost over sampled corpus queries.
	CostBands []int64
	// MaxRetryAfter caps the drain-rate-scaled Retry-After hint on
	// shed responses (<= 0 selects the default 30s).
	MaxRetryAfter time.Duration
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.MinConcurrent <= 0 {
		c.MinConcurrent = 2
	}
	if c.MaxConcurrent < c.MinConcurrent {
		c.MaxConcurrent = c.MinConcurrent
	}
	if c.InitialConcurrent <= 0 {
		c.InitialConcurrent = c.MinConcurrent
	}
	if c.InitialConcurrent > c.MaxConcurrent {
		c.InitialConcurrent = c.MaxConcurrent
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.Window <= 0 {
		c.Window = 500 * time.Millisecond
	}
	if c.MaxRetryAfter <= 0 {
		c.MaxRetryAfter = 30 * time.Second
	}
	return c
}

// WithAdaptiveAdmission enables the self-sizing admission governor on
// the /v1/ endpoints. It supersedes WithAdmission when both are given.
// A config with MaxConcurrent <= 0 is a no-op, so callers can thread
// one AdaptiveConfig through unconditionally and flip it with a flag.
func WithAdaptiveAdmission(cfg AdaptiveConfig) Option {
	return func(s *Server) {
		if cfg.MaxConcurrent > 0 {
			s.adaptive = cfg
			s.adaptiveOn = true
		}
	}
}

// initAdaptive builds the governor stack once all options (notably
// WithClock) have been applied; called from New.
func (s *Server) initAdaptive() {
	cfg := s.adaptive.withDefaults()
	if len(cfg.CostBands) == 0 {
		cfg.CostBands = s.defaultCostBands()
	}
	s.adaptive = cfg
	ctrl := admission.NewController(admission.Config{
		MinLimit:     cfg.MinConcurrent,
		MaxLimit:     cfg.MaxConcurrent,
		InitialLimit: cfg.InitialConcurrent,
		Increase:     cfg.Increase,
		Backoff:      cfg.Backoff,
		Degrade:      cfg.Degrade,
		MinSamples:   cfg.MinWindowSamples,
	})
	s.agate = admission.NewGate(admission.GateConfig{
		Limit:        ctrl.Limit(),
		MaxQueue:     cfg.MaxQueue,
		QueueTimeout: cfg.QueueTimeout,
		BandBounds:   cfg.CostBands,
		Stats:        s.stats,
	})
	s.agov = admission.NewGovernor(ctrl, s.agate, cfg.Window, s.now)
}

// defaultCostBands derives the cost-band bounds from the engine's own
// corpus: the p50 and p90 of EstimateCost over sampled queries, so
// "cheap" and "heavy" mean what they mean for this dataset. Falls back
// to fixed bounds on corpora too small to sample.
func (s *Server) defaultCostBands() []int64 {
	queries := s.eng.SampleQueries(64)
	costs := make([]int64, 0, len(queries))
	for _, q := range queries {
		costs = append(costs, s.eng.EstimateCost(q))
	}
	if len(costs) < 4 {
		return []int64{16, 256}
	}
	sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
	p50 := costs[len(costs)/2]
	p90 := costs[len(costs)*9/10]
	if p50 < 2 {
		p50 = 2
	}
	if p90 <= p50 {
		p90 = p50 + 1
	}
	return []int64{p50, p90}
}

// estimateCost peeks at the JSON body for the keyword query (top-level
// "query" for search/diversify/rows, "start.query" for construction)
// and prices it against the inverted index. It buffers at most
// maxBodyBytes — all a handler would accept — and restores the body for
// the handler. Requests without a recognisable query — mutations,
// mid-dialogue construction steps, malformed bodies — cost one unit:
// they are either cheap or fail fast in validation.
func (s *Server) estimateCost(r *http.Request) int64 {
	if r.Body == nil || r.Body == http.NoBody {
		return 1
	}
	peek, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	rest := r.Body
	r.Body = struct {
		io.Reader
		io.Closer
	}{io.MultiReader(bytes.NewReader(peek), rest), rest}
	if err != nil {
		return 1
	}
	var probe struct {
		Query string `json:"query"`
		Start *struct {
			Query string `json:"query"`
		} `json:"start"`
	}
	if json.Unmarshal(peek, &probe) != nil {
		return 1
	}
	q := probe.Query
	if q == "" && probe.Start != nil {
		q = probe.Start.Query
	}
	if q == "" {
		return 1
	}
	return s.eng.EstimateCost(q)
}

// serveAdaptive is the governor's serving path: cost-banded admission,
// in-flight accounting, the default deadline, and the completion
// observation that drives the control loop.
func (s *Server) serveAdaptive(w http.ResponseWriter, r *http.Request) {
	ob, r := s.beginObserve(w, r)
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	cost := s.estimateCost(r)
	ob.setCost(cost)
	waitStart := time.Now()
	release, outcome := s.agate.Acquire(r.Context(), cost)
	switch outcome {
	case admission.Admitted:
	case admission.RejectedQueueFull:
		s.stats.ShedQueueFull()
		s.writeAdaptiveShed(rec, http.StatusTooManyRequests, "queue_full",
			"server is at capacity and its wait queue is full")
		ob.finish(rec.status)
		return
	case admission.Evicted:
		s.stats.ShedQueueFull()
		s.writeAdaptiveShed(rec, http.StatusTooManyRequests, "queue_evicted",
			"server is under queue pressure and this request's estimated cost lost its place to cheaper work")
		ob.finish(rec.status)
		return
	case admission.TimedOut:
		s.stats.ShedQueueTimeout()
		s.writeAdaptiveShed(rec, http.StatusServiceUnavailable, "queue_timeout",
			"server is overloaded; request timed out waiting for an execution slot")
		ob.finish(rec.status)
		return
	default: // admission.Canceled
		writeError(rec, 499, r.Context().Err())
		ob.finish(rec.status)
		return
	}
	ob.admissionWait(time.Since(waitStart))
	defer release()
	s.stats.StartRequest()
	defer s.stats.EndRequest()
	start := s.now()
	if s.reqTimeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	s.handler.ServeHTTP(rec, r)
	if rec.status == http.StatusGatewayTimeout {
		s.stats.DeadlineExceeded()
	}
	s.agov.ObserveCompletion(s.now().Sub(start))
	ob.finish(rec.status)
}

// writeAdaptiveShed writes one governor shed response: Retry-After
// scaled to the observed queue drain rate (backlog / (limit slots ×
// average service time)) instead of a constant, plus the current limit
// and its remaining headroom to the ceiling so clients can see whether
// the server still has room to grow or is pinned at capacity.
func (s *Server) writeAdaptiveShed(w http.ResponseWriter, status int, code, msg string) {
	st := s.agate.Stats()
	retry := admission.RetryAfter(st.Queued, st.Limit, s.agov.AvgService(),
		time.Second, s.adaptive.MaxRetryAfter)
	secs := int64((retry + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	headroom := s.adaptive.MaxConcurrent - st.Limit
	writeJSON(w, status, ErrorResponse{
		Error:             msg,
		Code:              code,
		RetryAfterSeconds: secs,
		Limit:             st.Limit,
		LimitHeadroom:     &headroom,
	})
}

// AdaptiveHealth is the /healthz view of the governor: the controller
// state (current limit, bounds, reference p99, decision counters), the
// gate occupancy, and the per-cost-band admission counters. Present
// only when WithAdaptiveAdmission is enabled.
type AdaptiveHealth struct {
	Enabled bool `json:"enabled"`
	admission.ControllerState
	InFlight     int                   `json:"in_flight"`
	Queued       int                   `json:"queued"`
	AvgServiceMS float64               `json:"avg_service_ms"`
	Bands        []admission.BandStats `json:"bands"`
}

// adaptiveHealth snapshots the governor for /healthz; nil when the
// governor is disabled so the static health shape is untouched.
func (s *Server) adaptiveHealth() *AdaptiveHealth {
	if s.agov == nil {
		return nil
	}
	gs := s.agate.Stats()
	return &AdaptiveHealth{
		Enabled:         true,
		ControllerState: s.agov.State(),
		InFlight:        gs.InFlight,
		Queued:          gs.Queued,
		AvgServiceMS:    float64(s.agov.AvgService()) / 1e6,
		Bands:           gs.Bands,
	}
}
