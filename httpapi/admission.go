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

// AdmissionConfig bounds the work a Server accepts — the overload
// protection of the serving path. A request to a /v1/ endpoint first
// passes the admission gate (internal/admission): up to the gate's
// limit execute at once; up to MaxQueue more wait for a slot; anything
// beyond that is shed immediately with 429. A queued request that waits
// longer than QueueTimeout is shed with 503. Both shed responses carry
// a Retry-After header and a structured JSON body, so well-behaved
// clients back off instead of hammering a saturated server.
//
// There is one gate; whether its limit moves depends on MinConcurrent:
//
//   - MinConcurrent == 0: the limit is fixed at MaxConcurrent and the
//     queue is one FIFO line.
//   - 0 < MinConcurrent <= MaxConcurrent: an AIMD governor self-tunes
//     the limit between the two bounds from windowed p99 observations,
//     starting at the floor, and the queue is split into cost bands
//     (the corpus's own p50/p90 of EstimateCost) so queue pressure sheds
//     the estimated-heaviest waiters first — a heavy-tail multi-join
//     cannot occupy every slot a hundred sub-millisecond lookups wanted.
//
// The zero value disables the gate (MaxConcurrent <= 0 = unlimited).
// GET /healthz deliberately bypasses admission: it is the endpoint
// operators and load balancers use to observe an overloaded server, so
// it must stay responsive exactly when the gate is busiest.
type AdmissionConfig struct {
	// MaxConcurrent caps requests executing inside handlers (<= 0 =
	// unlimited, gate disabled). With a governor it is the ceiling.
	MaxConcurrent int
	// MinConcurrent is the governor's floor; 0 keeps the limit fixed at
	// MaxConcurrent. Values above MaxConcurrent are lowered to it.
	MinConcurrent int
	// MaxQueue caps requests waiting for an execution slot (< 0 = 0:
	// shed as soon as the limit is reached).
	MaxQueue int
	// QueueTimeout is the longest a request may wait in the queue
	// before being shed (<= 0 selects the default 1s).
	QueueTimeout time.Duration
	// Window is the governor's control-loop interval (<= 0 selects the
	// default 500ms; unused at a fixed limit).
	Window time.Duration
}

// Shed responses carry a Retry-After of ceil((queued+1)/limit) average
// service times, clamped to [minRetryAfter, maxRetryAfter]. A fixed-
// limit gate observes no service time, so its hint is the minimum.
const (
	minRetryAfter = time.Second
	maxRetryAfter = 30 * time.Second
)

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MinConcurrent < 0 {
		c.MinConcurrent = 0
	}
	if c.MinConcurrent > c.MaxConcurrent {
		c.MinConcurrent = c.MaxConcurrent
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
	return c
}

// WithAdmission enables the admission gate on the /v1/ endpoints.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(s *Server) {
		if cfg.MaxConcurrent > 0 {
			s.admission = cfg.withDefaults()
		}
	}
}

// WithRequestTimeout sets a default per-request deadline on every /v1/
// endpoint: the request context is given the deadline on admission, it
// propagates through the engine's context-first API (candidate
// generation, ranking, plan execution all observe it), and an expired
// request returns 504 with a structured deadline_exceeded body instead
// of holding its concurrency slot indefinitely. Clients that disconnect
// early still cancel sooner; d <= 0 (the default) sets no deadline.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.reqTimeout = d
		}
	}
}

// initAdmission builds the gate, and the governor when the limit is to
// self-tune, once all options (and a test's replacement clock) have been
// applied; called from New.
func (s *Server) initAdmission() {
	cfg := s.admission
	gc := admission.GateConfig{
		Limit:        cfg.MaxConcurrent,
		MaxQueue:     cfg.MaxQueue,
		QueueTimeout: cfg.QueueTimeout,
		Stats:        s.stats,
	}
	if cfg.MinConcurrent == 0 {
		s.gate = admission.NewGate(gc)
		return
	}
	ctrl := admission.NewController(admission.Config{MinLimit: cfg.MinConcurrent, MaxLimit: cfg.MaxConcurrent})
	gc.Limit = ctrl.Limit()
	gc.BandBounds = s.defaultCostBands()
	s.gate = admission.NewGate(gc)
	s.gov = admission.NewGovernor(ctrl, s.gate, cfg.Window, s.now)
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

// statusRecorder captures the response status so the serving loop can
// count deadline-exceeded (504) completions without threading counters
// through every handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// serveAdmitted runs one /v1/ request through the overload-protection
// path: admission gate (when configured), in-flight accounting, the
// default per-request deadline, and — with a governor — the completion
// observation that drives the control loop. The observation brackets
// the whole path: shed responses are counted and logged too, written
// through the status recorder so the shed status is captured. A request
// is priced only when something reads the price: the banded queue or
// the query log.
func (s *Server) serveAdmitted(w http.ResponseWriter, r *http.Request) {
	ob, r := s.beginObserve(w, r)
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	cost := int64(1)
	if s.gov != nil || s.qlog != nil {
		cost = s.estimateCost(r)
		ob.setCost(cost)
	}
	if s.gate != nil {
		waitStart := time.Now()
		release, outcome := s.gate.Acquire(r.Context(), cost)
		if outcome != admission.Admitted {
			s.shed(rec, r, outcome)
			ob.finish(rec.status)
			return
		}
		ob.admissionWait(time.Since(waitStart))
		defer release()
	}
	s.stats.StartRequest()
	defer s.stats.EndRequest()
	var start time.Time
	if s.gov != nil {
		start = s.now()
	}
	if s.reqTimeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	s.handler.ServeHTTP(rec, r)
	if rec.status == http.StatusGatewayTimeout {
		s.stats.DeadlineExceeded()
	}
	if s.gov != nil {
		s.gov.ObserveCompletion(s.now().Sub(start))
	}
	ob.finish(rec.status)
}

// shed writes the response for a request the gate did not admit. A
// client that left while queued gets 499; the others get a structured
// 429/503 with Retry-After scaled to the observed queue drain rate
// (backlog / (limit slots × average service time)), plus the current
// limit and its remaining headroom to MaxConcurrent, so clients can see
// whether the server still has room to grow or is pinned at capacity.
func (s *Server) shed(w http.ResponseWriter, r *http.Request, out admission.Outcome) {
	status, msg := http.StatusTooManyRequests, ""
	switch out {
	case admission.RejectedQueueFull:
		s.stats.ShedQueueFull()
		msg = "server is at capacity and its wait queue is full"
	case admission.Evicted:
		s.stats.ShedQueueFull()
		msg = "server is under queue pressure and this request's estimated cost lost its place to cheaper work"
	case admission.TimedOut:
		s.stats.ShedQueueTimeout()
		status, msg = http.StatusServiceUnavailable, "server is overloaded; request timed out waiting for an execution slot"
	default: // admission.Canceled
		writeError(w, 499, r.Context().Err())
		return
	}
	st := s.gate.Stats()
	var avgService time.Duration
	if s.gov != nil {
		avgService = s.gov.AvgService()
	}
	retry := admission.RetryAfter(st.Queued, st.Limit, avgService, minRetryAfter, maxRetryAfter)
	secs := int64((retry + time.Second - 1) / time.Second) // whole seconds, rounded up (RFC 9110)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	headroom := s.admission.MaxConcurrent - st.Limit
	writeJSON(w, status, ErrorResponse{
		Error:             msg,
		Code:              out.String(),
		RetryAfterSeconds: secs,
		Limit:             st.Limit,
		LimitHeadroom:     &headroom,
	})
}

// AdaptiveHealth is the /healthz view of the governor: the controller
// state (current limit, bounds, reference p99, decision counters), the
// gate occupancy, and the per-cost-band admission counters. Present
// only when a governor runs (AdmissionConfig.MinConcurrent > 0).
type AdaptiveHealth struct {
	Enabled bool `json:"enabled"`
	admission.ControllerState
	InFlight     int                   `json:"in_flight"`
	Queued       int                   `json:"queued"`
	AvgServiceMS float64               `json:"avg_service_ms"`
	Bands        []admission.BandStats `json:"bands"`
}

// adaptiveHealth snapshots the governor for /healthz; nil without one,
// so the fixed-limit health shape carries no adaptive block.
func (s *Server) adaptiveHealth() *AdaptiveHealth {
	if s.gov == nil {
		return nil
	}
	gs := s.gate.Stats()
	return &AdaptiveHealth{
		Enabled:         true,
		ControllerState: s.gov.State(),
		InFlight:        gs.InFlight,
		Queued:          gs.Queued,
		AvgServiceMS:    float64(s.gov.AvgService()) / 1e6,
		Bands:           gs.Bands,
	}
}
