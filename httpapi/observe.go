package httpapi

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	keysearch "repro"
	"repro/internal/metrics"
	"repro/internal/qlog"
	"repro/internal/trace"
)

// Observability of the serving path (docs/observability.md):
//
//   - WithTracing attaches a per-request trace (internal/trace) that
//     travels the whole stack — admission wait, parse/interpret/rank,
//     plan execution — and surfaces as the X-Trace-Id response header
//     (adopted from the client's X-Trace-Id when sent, so load-test
//     client views correlate with server traces).
//   - WithQueryLog streams one JSONL entry per served /v1/ request to a
//     bounded async logger (internal/qlog) — the substrate of the
//     ranking feedback loop, recording keywords, the served
//     interpretation, construct-session choices, timings, and cost.
//   - WithSlowQueryLog dumps the full trace tree of requests slower
//     than a threshold to the server log.
//   - GET /metrics exposes request histograms and the serving counters
//     in Prometheus text format (hand-rolled; internal/metrics).
//
// Per-endpoint latency histograms and status counters are always
// recorded (they are what /metrics serves); traces, query-log entries,
// and slow dumps exist only when their options are on. None of it can
// change a response: recording is observation-only, pinned by the
// differential tests.

// WithTracing enables per-request tracing on the /v1/ endpoints.
func WithTracing() Option {
	return func(s *Server) { s.tracingOn = true }
}

// WithQueryLog routes one structured entry per served /v1/ request to
// l (opened by the caller, who owns error handling for the log
// directory; Server.Close closes it). Implies WithTracing — entries
// carry stage timings, which need the trace.
func WithQueryLog(l *qlog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.qlog = l
			s.tracingOn = true
		}
	}
}

// WithSlowQueryLog dumps the full trace of any /v1/ request that takes
// at least threshold, one JSON line per trace, to the standard logger.
// Implies WithTracing. threshold <= 0 disables.
func WithSlowQueryLog(threshold time.Duration) Option {
	return func(s *Server) {
		if threshold > 0 {
			s.slowThreshold = threshold
			s.tracingOn = true
		}
	}
}

// opMetrics is one endpoint's always-on recording: a latency histogram
// and completion counts by status code.
type opMetrics struct {
	hist     *metrics.LatencyHistogram
	statuses map[int]int64
}

// obsMetrics aggregates per-endpoint serving metrics for /metrics. One
// mutex over all endpoints is fine at request granularity: the critical
// section is one histogram record and a map increment.
type obsMetrics struct {
	mu  sync.Mutex
	ops map[string]*opMetrics
}

func newObsMetrics() *obsMetrics {
	return &obsMetrics{ops: make(map[string]*opMetrics)}
}

func (m *obsMetrics) record(op string, status int, d time.Duration) {
	m.mu.Lock()
	om := m.ops[op]
	if om == nil {
		om = &opMetrics{hist: metrics.NewLatencyHistogram(), statuses: make(map[int]int64)}
		m.ops[op] = om
	}
	om.hist.Record(d)
	om.statuses[status]++
	m.mu.Unlock()
}

// obsRecord is the per-request scratchpad handlers annotate with what
// they learned (the keyword query, the served interpretation, construct
// session facts) so the completion hook can build the query-log entry.
// One request = one goroutine, so no locking.
type obsRecord struct {
	op            string
	query         string
	interp        string
	interpProb    float64
	sessionID     string
	action        string
	done          bool
	servedChoice  string
	results       int
	estimatedCost int64
}

type obsKey struct{}

// obsFrom returns the request's observation record, nil when the
// request is not observed (all annotation helpers tolerate nil).
func obsFrom(r *http.Request) *obsRecord {
	o, _ := r.Context().Value(obsKey{}).(*obsRecord)
	return o
}

func (o *obsRecord) noteQuery(q string) {
	if o != nil {
		o.query = q
	}
}

// noteResults records the result count and the served (top-ranked)
// interpretation of a ranked response.
func (o *obsRecord) noteResults(results []keysearch.Result) {
	if o == nil {
		return
	}
	o.results = len(results)
	if len(results) > 0 {
		o.interp = results[0].Query
		o.interpProb = results[0].Probability
	}
}

func (o *obsRecord) noteRowCount(n int) {
	if o != nil {
		o.results = n
	}
}

func (o *obsRecord) noteInterp(q string, prob float64) {
	if o != nil {
		o.interp, o.interpProb = q, prob
	}
}

// noteConstruct records the dialogue facts of one construct step; when
// the dialogue is finished — converged, or out of narrowing questions —
// the top remaining candidate is the served choice: the selection
// signal the ranking feedback loop trains on.
func (o *obsRecord) noteConstruct(action string, resp ConstructStepResponse) {
	if o == nil {
		return
	}
	o.action = action
	o.sessionID = resp.SessionID
	o.done = resp.Done
	if (resp.Done || resp.Question == nil) && len(resp.Candidates) > 0 {
		o.servedChoice = resp.Candidates[0].Query
	}
}

// requestObservation is the live observation of one /v1/ request.
type requestObservation struct {
	s     *Server
	tr    *trace.Trace // nil when tracing is off
	rec   *obsRecord
	op    string
	start time.Time
}

// beginObserve starts observing one /v1/ request: derives the endpoint
// name, creates the trace (adopting the client's X-Trace-Id) when
// tracing is on, installs trace and record into the request context,
// and sets the X-Trace-Id response header. Returns the observation and
// the request to continue with.
func (s *Server) beginObserve(w http.ResponseWriter, r *http.Request) (*requestObservation, *http.Request) {
	ob := &requestObservation{
		s:     s,
		rec:   &obsRecord{},
		op:    strings.TrimPrefix(r.URL.Path, "/v1/"),
		start: time.Now(),
	}
	ctx := r.Context()
	if s.tracingOn {
		ob.tr = trace.New(r.Header.Get("X-Trace-Id"))
		w.Header().Set("X-Trace-Id", ob.tr.ID())
		ctx = trace.NewContext(ctx, ob.tr)
	}
	ctx = context.WithValue(ctx, obsKey{}, ob.rec)
	return ob, r.WithContext(ctx)
}

// admissionWait attributes the time a request spent getting through
// the admission gate (zero for instant admission).
func (ob *requestObservation) admissionWait(d time.Duration) {
	ob.tr.CountDuration("admission_wait_ns", d)
}

// setCost records the admission cost estimate (priced for the banded
// queue or the query log).
func (ob *requestObservation) setCost(c int64) {
	ob.rec.estimatedCost = c
}

// finish completes the observation: always records the endpoint
// histogram and status counter; when enabled, emits the query-log
// entry and the slow-query dump.
func (ob *requestObservation) finish(status int) {
	dur := time.Since(ob.start)
	ob.s.obs.record(ob.op, status, dur)

	var data trace.Data
	if ob.tr != nil {
		data = ob.tr.Snapshot()
	}
	if ob.s.qlog != nil {
		rec := ob.rec
		ob.s.qlog.Log(qlog.Entry{
			TraceID:            ob.tr.ID(),
			Op:                 ob.op,
			Status:             status,
			Outcome:            outcomeFor(status),
			Query:              rec.query,
			Interpretation:     rec.interp,
			InterpretationProb: rec.interpProb,
			SessionID:          rec.sessionID,
			Action:             rec.action,
			Done:               rec.done,
			ServedChoice:       rec.servedChoice,
			EstimatedCost:      rec.estimatedCost,
			DurationUS:         dur.Microseconds(),
			Results:            rec.results,
			StagesUS:           data.StageDurations(),
			Counters:           data.Counters,
		})
	}
	if ob.s.slowThreshold > 0 && dur >= ob.s.slowThreshold {
		ob.s.slowf("slow query: op=%s status=%d dur=%v trace=%s", ob.op, status, dur, data.JSON())
	}
}

// outcomeFor classifies a completion status for the query log.
func outcomeFor(status int) string {
	switch {
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return "shed"
	case status == http.StatusGatewayTimeout:
		return "timeout"
	case status == 499:
		return "canceled"
	case status >= 400:
		return "error"
	default:
		return "ok"
	}
}

// handleMetrics serves GET /metrics: the Prometheus text exposition of
// the per-endpoint request histograms, the serving/admission counters,
// engine state, the answer cache, and the query
// log's own delivery counters. Like /healthz it bypasses admission —
// scraping must work exactly when the server is saturated.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p := metrics.NewPromText()

	s.obs.mu.Lock()
	ops := make([]string, 0, len(s.obs.ops))
	for op := range s.obs.ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		om := s.obs.ops[op]
		codes := make([]int, 0, len(om.statuses))
		for c := range om.statuses {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			p.Counter("keysearch_requests_total", "Completed /v1/ requests by endpoint and status code.",
				float64(om.statuses[c]), metrics.Label{Name: "endpoint", Value: op},
				metrics.Label{Name: "code", Value: strconv.Itoa(c)})
		}
	}
	for _, op := range ops {
		p.HistogramNS("keysearch_request_duration_seconds", "Request latency by endpoint.",
			s.obs.ops[op].hist, metrics.Label{Name: "endpoint", Value: op})
	}
	s.obs.mu.Unlock()

	snap := s.stats.Snapshot()
	p.Gauge("keysearch_in_flight_requests", "Requests currently executing inside handlers.", float64(snap.InFlight))
	p.Gauge("keysearch_in_flight_requests_max", "High-water mark of in-flight requests.", float64(snap.MaxInFlight))
	p.Gauge("keysearch_queued_requests", "Requests waiting in the admission queue.", float64(snap.Queued))
	p.Gauge("keysearch_queued_requests_max", "High-water mark of queued requests.", float64(snap.MaxQueued))
	p.Counter("keysearch_served_total", "Admitted requests run to completion.", float64(snap.Served))
	p.Counter("keysearch_shed_total", "Requests shed by the admission gate, by reason.",
		float64(snap.ShedQueueFull), metrics.Label{Name: "reason", Value: "queue_full"})
	p.Counter("keysearch_shed_total", "Requests shed by the admission gate, by reason.",
		float64(snap.ShedQueueTimeout), metrics.Label{Name: "reason", Value: "queue_timeout"})
	p.Counter("keysearch_deadline_exceeded_total", "Admitted requests that exceeded their deadline (504s).",
		float64(snap.DeadlineExceeded))

	st := s.eng.Stats()
	p.Gauge("keysearch_snapshot_epoch", "Current snapshot epoch (+1 per committed mutation batch).", float64(st.Epoch))
	p.Gauge("keysearch_wal_batches", "Mutation batches a crash right now would replay.", float64(st.WALBatches))

	if ac := st.AnswerCache; ac != nil {
		p.Counter("keysearch_answer_cache_hits_total", "Answer-cache hits.", float64(ac.Hits))
		p.Counter("keysearch_answer_cache_misses_total", "Answer-cache misses.", float64(ac.Misses))
		p.Counter("keysearch_answer_cache_evictions_total", "Answer-cache evictions under budget pressure.", float64(ac.Evictions))
		p.Counter("keysearch_answer_cache_invalidations_total", "Answer-cache entries invalidated by mutations.", float64(ac.Invalidations))
		p.Gauge("keysearch_answer_cache_resident_bytes", "Answer-cache resident bytes.", float64(ac.ResidentBytes))
		p.Gauge("keysearch_answer_cache_entries", "Answer-cache resident entries.", float64(ac.Entries))
	}

	if s.gov != nil {
		gs := s.gate.Stats()
		p.Gauge("keysearch_adaptive_limit", "Adaptive governor's current concurrency limit.", float64(gs.Limit))
		p.Gauge("keysearch_adaptive_queued", "Requests queued at the adaptive gate.", float64(gs.Queued))
	}

	if s.qlog != nil {
		p.Counter("keysearch_querylog_written_total", "Query-log entries handed to the OS.", float64(s.qlog.Written()))
		p.Counter("keysearch_querylog_dropped_total", "Query-log entries dropped under backpressure.", float64(s.qlog.Dropped()))
	}

	out, err := p.Bytes()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("metrics exposition: %w", err))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}

// Close releases server-owned observability resources — today the
// query logger (flushing queued entries). The engine is closed by its
// owner, not here.
func (s *Server) Close() error {
	if s.qlog != nil {
		return s.qlog.Close()
	}
	return nil
}

// BuildHealth is the /healthz build block: the serving binary's module
// version, Go toolchain, and VCS revision when the build recorded them.
type BuildHealth struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	BuildTime string `json:"vcs_time,omitempty"`
}

var (
	buildOnce   sync.Once
	buildCached *BuildHealth
)

// buildHealth reads build metadata once per process (it cannot change).
func buildHealth() *BuildHealth {
	buildOnce.Do(func() {
		b := &BuildHealth{}
		if info, ok := debug.ReadBuildInfo(); ok {
			b.GoVersion = info.GoVersion
			b.Module = info.Main.Path
			b.Version = info.Main.Version
			for _, kv := range info.Settings {
				switch kv.Key {
				case "vcs.revision":
					b.Revision = kv.Value
				case "vcs.time":
					b.BuildTime = kv.Value
				}
			}
		}
		buildCached = b
	})
	return buildCached
}

// defaultSlowf is the slow-query sink: it prints through the log package.
func defaultSlowf(format string, v ...any) { log.Printf(format, v...) }
