// Package httpapi exposes a keysearch.Searcher — in production a
// *keysearch.Engine — as a JSON-over-HTTP service: the service boundary
// the thesis's systems imply but never ship: probability-ranked
// interpretation search, DivQ diversification, and interactive query
// construction behind stateless-client sessions. The handlers never
// look behind the interface, so anything satisfying Searcher serves
// identically.
//
// Endpoints (all request/response bodies are the DTOs of package
// keysearch, so a Go client can decode straight into library types):
//
//	POST /v1/search     keysearch.SearchRequest    → keysearch.SearchResponse
//	POST /v1/diversify  keysearch.DiversifyRequest → keysearch.SearchResponse
//	POST /v1/rows       keysearch.RowsRequest      → keysearch.RowsResponse
//	POST /v1/mutate     MutateRequest              → MutateResponse
//	POST /v1/checkpoint (admin, empty body)        → keysearch.CheckpointStats
//	POST /v1/construct  ConstructStepRequest       → ConstructStepResponse
//	GET  /v1/keywords?prefix=&limit=               → KeywordsResponse
//	GET  /healthz                                  → HealthResponse
//
// /v1/mutate applies a live insert/update/delete batch atomically on an
// engine built with keysearch.WithMutations (403 otherwise; 400 on any
// validation error, in which case nothing of the batch is applied).
// /healthz reports the snapshot epoch, which increases by one per
// committed batch, so operators can follow ingestion progress.
//
// /v1/checkpoint is the durability admin endpoint: on an engine with a
// state directory (keysearch.WithDurability / Open) it forces a
// checkpoint — snapshot file rewritten, write-ahead log truncated,
// tombstones compacted past the threshold — and returns its stats; 403
// on a memory-only engine. /healthz reports the durability posture
// (durable flag, WAL batches pending replay, last checkpointed epoch)
// so operators can alert on recovery cost growing unbounded.
//
// Construction is a dialogue, so /v1/construct is sessionized: "start"
// creates a server-side session and returns its ID plus the first
// question; "accept"/"reject" answer the pending question and return the
// next one; "candidates" lists the remaining structured queries;
// "cancel" deletes the session. Sessions are evicted after a TTL of
// inactivity and capped in number, so abandoned dialogues cannot leak.
//
// # Overload protection
//
// The /v1/ endpoints sit behind an optional admission gate
// (WithAdmission): a bounded number of requests execute concurrently, a
// bounded queue absorbs bursts, and everything beyond that is shed —
// 429 when the queue is full, 503 when a queued request waits longer
// than the queue timeout — with a Retry-After header and a structured
// {"error", "code", "retry_after_seconds", "limit", "limit_headroom"}
// body. The limit is fixed at MaxConcurrent, or, given a MinConcurrent
// floor, self-tuned between the two by an AIMD governor whose queue
// sheds the estimated-heaviest waiters first. WithRequestTimeout adds
// a default per-request deadline that propagates through the engine's
// context-first API; an expired request returns 504 with code
// "deadline_exceeded". GET /healthz bypasses the gate (it must answer
// exactly when the server is saturated) and reports the gate's live
// counters — in-flight, queued, shed totals, and their high-water marks
// — while every *configured* limit (gate, governor floor and window,
// answer-cache budget, request timeout) lives in one nested "limits"
// object.
//
// Errors are returned as {"error": "..."} with a 4xx/5xx status;
// overload and deadline errors additionally carry a machine-readable
// "code" (queue_full, queue_evicted, queue_timeout, deadline_exceeded,
// client_closed) and shed responses a "retry_after_seconds" back-off
// hint.
package httpapi

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	keysearch "repro"
	"repro/internal/admission"
	"repro/internal/metrics"
	"repro/internal/qlog"
)

// ErrorResponse is the JSON shape of every error reply. Code is set for
// overload and deadline errors (queue_full, queue_evicted,
// queue_timeout, deadline_exceeded, client_closed) so clients can
// branch without parsing prose; RetryAfterSeconds mirrors the
// Retry-After header on 429/503 shed responses.
type ErrorResponse struct {
	Error             string `json:"error"`
	Code              string `json:"code,omitempty"`
	RetryAfterSeconds int64  `json:"retry_after_seconds,omitempty"`
	// Limit and LimitHeadroom are set on 429/503 sheds: the gate's
	// current concurrency limit and the room left to MaxConcurrent —
	// headroom 0 tells a client the server is already as wide open as
	// it will get, which a fixed-limit gate always is.
	Limit         int  `json:"limit,omitempty"`
	LimitHeadroom *int `json:"limit_headroom,omitempty"`
}

// KeywordsResponse answers GET /v1/keywords.
type KeywordsResponse struct {
	Prefix   string   `json:"prefix"`
	Keywords []string `json:"keywords"`
}

// HealthResponse answers GET /healthz. Mutable reports whether
// /v1/mutate is enabled and Epoch the current snapshot epoch (0 at
// build, +1 per committed mutation batch).
// Durable reports whether the engine persists to a state directory;
// when it does, WALBatches is the number of mutation batches a crash
// right now would replay and LastCheckpointEpoch the epoch of the
// on-disk snapshot file. Every *configured* limit is gathered in the
// nested Limits object; the remaining blocks carry live counters only.
type HealthResponse struct {
	Status         string `json:"status"`
	Mutable        bool   `json:"mutable"`
	Epoch          uint64 `json:"epoch"`
	Durable        bool   `json:"durable"`
	WALBatches     int    `json:"wal_batches"`
	LastCheckpoint uint64 `json:"last_checkpoint_epoch"`
	// Limits is the one place configured serving limits appear: the
	// admission gate's bounds, the governor's floor and control window,
	// the default request deadline, and the answer cache's byte budget.
	Limits LimitsHealth `json:"limits"`
	// Admission carries the live serving counters (in-flight, queued,
	// shed, expired, and their high-water marks).
	Admission AdmissionHealth `json:"admission"`
	// Adaptive reports the governor's controller state and per-cost-band
	// shed counters; omitted entirely when no governor runs.
	Adaptive *AdaptiveHealth `json:"adaptive,omitempty"`
	// AnswerCache reports the engine-lifetime answer cache's occupancy
	// and counters (WithAnswerCache / -answer-cache); omitted entirely
	// when the cache is disabled.
	AnswerCache *AnswerCacheHealth `json:"answer_cache,omitempty"`
	// Build identifies the serving binary (Go toolchain, module version,
	// VCS revision when recorded), so operators can tell which build a
	// live server runs without shelling into the host.
	Build *BuildHealth `json:"build,omitempty"`
}

// LimitsHealth is the nested /healthz limits object: every configured
// bound of the serving path in one place, separate from the live
// counters. max_concurrent is the gate's limit, or its ceiling when a
// governor runs; the adaptive_* fields (the governor's floor and
// window) are zero without one; answer_cache_budget_bytes is zero when
// the cache is off.
type LimitsHealth struct {
	MaxConcurrent    int   `json:"max_concurrent"`
	MaxQueue         int   `json:"max_queue"`
	QueueTimeoutMS   int64 `json:"queue_timeout_ms"`
	RequestTimeoutMS int64 `json:"request_timeout_ms"`

	AdaptiveMinConcurrent int   `json:"adaptive_min_concurrent,omitempty"`
	AdaptiveWindowMS      int64 `json:"adaptive_window_ms,omitempty"`

	AnswerCacheBudgetBytes int64 `json:"answer_cache_budget_bytes,omitempty"`
}

// AnswerCacheHealth is the /healthz view of the engine-lifetime answer
// cache: current and high-water resident bytes (high-water never
// exceeds the budget reported in limits.answer_cache_budget_bytes), the
// resident entry count, and the lifetime counters — hits, misses,
// evictions (budget pressure), invalidations (entries dropped by
// mutation batches), and the two rejection classes (stale publishes
// discarded by the snapshot-validity check, and admissions declined by
// the 2Q/cost-aware policy).
type AnswerCacheHealth struct {
	ResidentBytes  int64 `json:"resident_bytes"`
	HighWaterBytes int64 `json:"high_water_bytes"`
	Entries        int   `json:"entries"`

	Hits             uint64 `json:"hits"`
	Misses           uint64 `json:"misses"`
	Evictions        uint64 `json:"evictions"`
	Invalidations    uint64 `json:"invalidations"`
	StalePutRejects  uint64 `json:"stale_put_rejects"`
	AdmissionRejects uint64 `json:"admission_rejects"`
}

// answerCacheHealth assembles the /healthz answer-cache block, nil when
// the cache is disabled.
func answerCacheHealth(stats *keysearch.AnswerCacheStats) *AnswerCacheHealth {
	if stats == nil {
		return nil
	}
	return &AnswerCacheHealth{
		ResidentBytes:    stats.ResidentBytes,
		HighWaterBytes:   stats.HighWaterBytes,
		Entries:          stats.Entries,
		Hits:             stats.Hits,
		Misses:           stats.Misses,
		Evictions:        stats.Evictions,
		Invalidations:    stats.Invalidations,
		StalePutRejects:  stats.StalePutRejects,
		AdmissionRejects: stats.AdmissionRejects,
	}
}

// AdmissionHealth is the /healthz view of the serving path's live
// counters: requests in flight, waiting, shed, and expired, plus their
// high-water marks. The gate's configured bounds live in the limits
// object.
type AdmissionHealth struct {
	metrics.ServingSnapshot
}

// MutateRequest carries one mutation batch for POST /v1/mutate.
type MutateRequest struct {
	Mutations []keysearch.Mutation `json:"mutations"`
}

// MutateResponse reports the committed batch.
type MutateResponse struct {
	// Epoch is the snapshot epoch the batch committed as.
	Epoch uint64 `json:"epoch"`
	// Applied is the number of mutations applied.
	Applied int `json:"applied"`
}

// ConstructStepRequest drives one step of a sessionized construction
// dialogue over POST /v1/construct.
type ConstructStepRequest struct {
	// Action is "start", "accept", "reject", "candidates", or "cancel".
	Action string `json:"action"`
	// SessionID identifies the dialogue for every action except "start".
	SessionID string `json:"session_id,omitempty"`
	// Start holds the construction parameters for action "start".
	Start *keysearch.ConstructRequest `json:"start,omitempty"`
}

// ConstructStepResponse is the state of the dialogue after one step.
type ConstructStepResponse struct {
	SessionID string `json:"session_id"`
	// Done reports whether construction has converged.
	Done bool `json:"done"`
	// Steps is the number of questions answered so far.
	Steps int `json:"steps"`
	// Question is the next question to answer; nil when no question can
	// narrow the space further (pick from Candidates instead).
	Question *keysearch.Question `json:"question,omitempty"`
	// Candidates carries the remaining structured queries when the
	// dialogue has converged, no question is left, or the client asked
	// for them explicitly.
	Candidates []keysearch.Result `json:"candidates,omitempty"`
}

// Option configures a Server.
type Option func(*Server)

// WithSessionTTL sets the idle time after which a construction session
// is evicted (default 15 minutes).
func WithSessionTTL(d time.Duration) Option {
	return func(s *Server) { s.ttl = d }
}

// WithMaxSessions caps live construction sessions; starting a session
// beyond the cap evicts the least recently used one (default 1024).
func WithMaxSessions(n int) Option {
	return func(s *Server) { s.maxSessions = n }
}

// WithHandlerWrapper wraps the handler the admitted /v1/ requests
// dispatch to — *inside* the admission gate and the default deadline,
// so the wrapper's work occupies a concurrency slot exactly like engine
// work does. Load tests use it to stand in slow handlers; middleware
// such as per-endpoint instrumentation fits here too. GET /healthz is
// outside the wrapper (it bypasses admission entirely).
func WithHandlerWrapper(wrap func(http.Handler) http.Handler) Option {
	return func(s *Server) { s.wrap = wrap }
}

// Server is the HTTP front-end over one Searcher topology. It is safe
// for concurrent use: the topology's snapshot is immutable, and each
// construction session carries its own lock.
type Server struct {
	eng         keysearch.Searcher
	ttl         time.Duration
	maxSessions int
	now         func() time.Time
	mux         *http.ServeMux
	// handler is what admitted /v1/ requests dispatch to: the mux,
	// possibly wrapped (WithHandlerWrapper).
	handler http.Handler
	wrap    func(http.Handler) http.Handler

	// Overload protection (see admission.go): gate is nil when no
	// admission limit is configured, gov nil when the limit is fixed,
	// reqTimeout zero when requests get no default deadline; stats is
	// always live so /healthz reports in-flight counts even on an
	// ungated server.
	admission  AdmissionConfig
	gate       *admission.Gate
	gov        *admission.Governor
	reqTimeout time.Duration
	stats      *metrics.ServingStats

	// Observability (see observe.go): obs always aggregates per-endpoint
	// latency histograms and status counters for GET /metrics; tracing,
	// the query log, and the slow-query dump are opt-in.
	obs           *obsMetrics
	tracingOn     bool
	qlog          *qlog.Logger
	slowThreshold time.Duration
	slowf         func(format string, v ...any)

	mu       sync.Mutex
	sessions map[string]*constructSession
}

// constructSession is one server-side construction dialogue. Its mutex
// serialises answers racing on the same session ID.
type constructSession struct {
	mu       sync.Mutex
	cons     *keysearch.Construction
	pending  *keysearch.Question
	lastUsed time.Time
}

// New wraps a Searcher — typically a built *keysearch.Engine — in an
// HTTP handler.
func New(eng keysearch.Searcher, opts ...Option) *Server {
	s := &Server{
		eng:         eng,
		ttl:         15 * time.Minute,
		maxSessions: 1024,
		now:         time.Now,
		stats:       &metrics.ServingStats{},
		sessions:    make(map[string]*constructSession),
		obs:         newObsMetrics(),
		slowf:       defaultSlowf,
	}
	for _, o := range opts {
		o(s)
	}
	if s.admission.MaxConcurrent > 0 {
		// Built after the option loop so the governor sees the final
		// clock, which tests replace.
		s.initAdmission()
	}
	if s.maxSessions < 1 {
		s.maxSessions = 1 // a non-positive cap would make eviction spin forever
	}
	if s.ttl <= 0 {
		s.ttl = 15 * time.Minute
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/search", s.handleSearch)
	s.mux.HandleFunc("POST /v1/diversify", s.handleDiversify)
	s.mux.HandleFunc("POST /v1/rows", s.handleRows)
	s.mux.HandleFunc("POST /v1/mutate", s.handleMutate)
	s.mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("POST /v1/construct", s.handleConstruct)
	s.mux.HandleFunc("GET /v1/keywords", s.handleKeywords)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.handler = s.mux
	if s.wrap != nil {
		s.handler = s.wrap(s.mux)
	}
	return s
}

// ServeHTTP implements http.Handler. The /v1/ endpoints run through the
// overload-protection path (admission gate, in-flight accounting,
// default deadline); /healthz and unknown paths go straight to the mux
// so observability survives saturation.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		s.serveAdmitted(w, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// handleHealth answers GET /healthz from one EngineStats snapshot — the
// health view every Searcher provides — plus the server's own serving
// counters and configured limits.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:         "ok",
		Mutable:        st.Mutable,
		Epoch:          st.Epoch,
		Durable:        st.Durable,
		WALBatches:     st.WALBatches,
		LastCheckpoint: st.LastCheckpointEpoch,
		Limits:         s.limitsHealth(st),
		Admission:      AdmissionHealth{ServingSnapshot: s.stats.Snapshot()},
		Adaptive:       s.adaptiveHealth(),
		AnswerCache:    answerCacheHealth(st.AnswerCache),
		Build:          buildHealth(),
	})
}

// limitsHealth assembles the nested limits object.
func (s *Server) limitsHealth(st keysearch.EngineStats) LimitsHealth {
	l := LimitsHealth{
		MaxConcurrent:    s.admission.MaxConcurrent,
		MaxQueue:         s.admission.MaxQueue,
		QueueTimeoutMS:   s.admission.QueueTimeout.Milliseconds(),
		RequestTimeoutMS: s.reqTimeout.Milliseconds(),
	}
	if s.gov != nil {
		l.AdaptiveMinConcurrent = s.admission.MinConcurrent
		l.AdaptiveWindowMS = s.admission.Window.Milliseconds()
	}
	if st.AnswerCache != nil {
		l.AnswerCacheBudgetBytes = st.AnswerCache.BudgetBytes
	}
	return l
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a structured error body. Deadline and cancellation
// statuses get their machine-readable code here, so every handler that
// maps an engine error through statusFor reports them identically.
func writeError(w http.ResponseWriter, status int, err error) {
	resp := ErrorResponse{Error: err.Error()}
	switch status {
	case http.StatusGatewayTimeout:
		resp.Code = "deadline_exceeded"
	case 499:
		resp.Code = "client_closed"
	case http.StatusRequestEntityTooLarge:
		resp.Code = "body_too_large"
	}
	writeJSON(w, status, resp)
}

// statusFor maps engine errors onto HTTP statuses: cancelled requests
// report client closure, deadline expiry (whether from the client's
// context or the server's default request timeout) is a gateway
// timeout, and everything else is a bad request (the engine only fails
// on unusable queries once built).
func statusFor(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	if errors.Is(err, context.Canceled) {
		return 499 // client closed request (nginx convention)
	}
	return http.StatusBadRequest
}

// maxBodyBytes caps a request body. Every request this API accepts is a
// keyword query, a dialogue step or a mutation batch; the largest any
// test or load generator sends is a few kilobytes, and a megabyte of
// mutations is thousands of rows — past that, split the batch. It is
// also all the admission cost peek will ever buffer.
const maxBodyBytes = 1 << 20

// decode parses the JSON request body into T. On failure it has already
// answered — 413 for a body over maxBodyBytes, 400 for anything else
// (malformed JSON, wrong types, unknown fields) — and ok is false.
func decode[T any](w http.ResponseWriter, r *http.Request) (v T, ok bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("invalid JSON body: %w", err))
		return v, false
	}
	return v, true
}

// maxK and maxRowLimit bound the k and row_limit of the ranked
// endpoints. An unbounded k is a full materialisation: /v1/rows asks
// each interpretation for 4k rows, a k past the result count keeps the
// top-k heap from ever filling so the early stop never fires, and 4k
// overflows to "unlimited" near 1<<62. Every client in the repo sends
// k <= 10 and row_limit <= 5.
const (
	maxK        = 1000
	maxRowLimit = 100
)

// checkLimits answers 400 and reports false when k or rowLimit is
// negative or above its bound.
func checkLimits(w http.ResponseWriter, k, rowLimit int) bool {
	if k < 0 || k > maxK {
		writeError(w, http.StatusBadRequest, fmt.Errorf("k must be in [0, %d], got %d", maxK, k))
		return false
	}
	if rowLimit < 0 || rowLimit > maxRowLimit {
		writeError(w, http.StatusBadRequest, fmt.Errorf("row_limit must be in [0, %d], got %d", maxRowLimit, rowLimit))
		return false
	}
	return true
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[keysearch.SearchRequest](w, r)
	if !ok || !checkLimits(w, req.K, req.RowLimit) {
		return
	}
	obsFrom(r).noteQuery(req.Query)
	resp, err := s.eng.Search(r.Context(), req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	obsFrom(r).noteResults(resp.Results)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDiversify(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[keysearch.DiversifyRequest](w, r)
	if !ok || !checkLimits(w, req.K, req.RowLimit) {
		return
	}
	obsFrom(r).noteQuery(req.Query)
	resp, err := s.eng.Diversify(r.Context(), req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	obsFrom(r).noteResults(resp.Results)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[keysearch.RowsRequest](w, r)
	if !ok || !checkLimits(w, req.K, 0) {
		return
	}
	obsFrom(r).noteQuery(req.Query)
	resp, err := s.eng.SearchRows(r.Context(), req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if o := obsFrom(r); o != nil {
		o.noteRowCount(len(resp.Rows))
		if len(resp.Rows) > 0 {
			// The top row's producing interpretation is the one the
			// ranking effectively served.
			o.noteInterp(resp.Rows[0].Query, 0)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[MutateRequest](w, r)
	if !ok {
		return
	}
	res, err := s.eng.Apply(r.Context(), req.Mutations)
	if err != nil {
		status := statusFor(err)
		if errors.Is(err, keysearch.ErrMutationsDisabled) {
			status = http.StatusForbidden
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, MutateResponse{Epoch: res.Epoch, Applied: res.Applied})
}

// handleCheckpoint forces a durability checkpoint (admin operation):
// the body is ignored, the response is the keysearch.CheckpointStats of
// the completed checkpoint. 403 when the engine has no state directory.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	stats, err := s.eng.Checkpoint(r.Context())
	if err != nil {
		status := statusFor(err)
		if errors.Is(err, keysearch.ErrDurabilityDisabled) {
			status = http.StatusForbidden
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

func (s *Server) handleKeywords(w http.ResponseWriter, r *http.Request) {
	prefix := r.URL.Query().Get("prefix")
	limit := 20
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid limit %q", v))
			return
		}
		limit = n
	}
	ks := s.eng.Keywords(prefix, limit)
	writeJSON(w, http.StatusOK, KeywordsResponse{Prefix: prefix, Keywords: ks})
}

// newSessionID returns a 128-bit random hex ID.
func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// purgeLocked drops expired sessions; callers hold s.mu.
func (s *Server) purgeLocked() {
	cutoff := s.now().Add(-s.ttl)
	for id, sess := range s.sessions {
		if sess.lastUsed.Before(cutoff) {
			delete(s.sessions, id)
		}
	}
}

// evictOldestLocked drops the least recently used session; callers hold
// s.mu and have verified the map is non-empty.
func (s *Server) evictOldestLocked() {
	var oldestID string
	var oldest time.Time
	for id, sess := range s.sessions {
		if oldestID == "" || sess.lastUsed.Before(oldest) {
			oldestID, oldest = id, sess.lastUsed
		}
	}
	delete(s.sessions, oldestID)
}

func (s *Server) lookupSession(id string) (*constructSession, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purgeLocked()
	sess, ok := s.sessions[id]
	if ok {
		sess.lastUsed = s.now()
	}
	return sess, ok
}

func (s *Server) handleConstruct(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[ConstructStepRequest](w, r)
	if !ok {
		return
	}
	if o := obsFrom(r); o != nil {
		// Defaults for error paths; step handlers overwrite from the
		// response once the dialogue state is known.
		o.action = req.Action
		o.sessionID = req.SessionID
		if req.Start != nil {
			o.query = req.Start.Query
		}
	}
	switch req.Action {
	case "start":
		s.constructStart(w, r, req)
	case "accept", "reject":
		s.constructAnswer(w, r, req)
	case "candidates":
		s.constructCandidates(w, r, req)
	case "cancel":
		s.constructCancel(w, req)
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown action %q (want start, accept, reject, candidates, or cancel)", req.Action))
	}
}

func (s *Server) constructStart(w http.ResponseWriter, r *http.Request, req ConstructStepRequest) {
	if req.Start == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf(`action "start" requires the "start" object`))
		return
	}
	cons, err := s.eng.Construct(r.Context(), *req.Start)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	id, err := newSessionID()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sess := &constructSession{cons: cons, lastUsed: s.now()}
	s.mu.Lock()
	s.purgeLocked()
	for len(s.sessions) > 0 && len(s.sessions) >= s.maxSessions {
		s.evictOldestLocked()
	}
	s.sessions[id] = sess
	s.mu.Unlock()

	sess.mu.Lock()
	defer sess.mu.Unlock()
	resp := s.stepResponse(id, sess, false)
	obsFrom(r).noteConstruct(req.Action, resp)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) constructAnswer(w http.ResponseWriter, r *http.Request, req ConstructStepRequest) {
	sess, ok := s.lookupSession(req.SessionID)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown or expired session %q", req.SessionID))
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.pending == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("session has no pending question"))
		return
	}
	q := *sess.pending
	sess.pending = nil
	var err error
	if req.Action == "accept" {
		err = sess.cons.Accept(r.Context(), q)
	} else {
		err = sess.cons.Reject(r.Context(), q)
	}
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	resp := s.stepResponse(req.SessionID, sess, false)
	obsFrom(r).noteConstruct(req.Action, resp)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) constructCandidates(w http.ResponseWriter, r *http.Request, req ConstructStepRequest) {
	sess, ok := s.lookupSession(req.SessionID)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown or expired session %q", req.SessionID))
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	resp := s.stepResponse(req.SessionID, sess, true)
	obsFrom(r).noteConstruct(req.Action, resp)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) constructCancel(w http.ResponseWriter, req ConstructStepRequest) {
	s.mu.Lock()
	_, ok := s.sessions[req.SessionID]
	delete(s.sessions, req.SessionID)
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown or expired session %q", req.SessionID))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "cancelled"})
}

// stepResponse computes the dialogue state after a step: the next
// question is selected (and stashed as pending) unless construction has
// converged; candidates are included when converged, when no question is
// left, or when explicitly requested. Callers hold sess.mu.
func (s *Server) stepResponse(id string, sess *constructSession, wantCandidates bool) ConstructStepResponse {
	resp := ConstructStepResponse{
		SessionID: id,
		Done:      sess.cons.Done(),
		Steps:     sess.cons.Steps(),
	}
	if !resp.Done {
		if sess.pending == nil {
			if q, ok := sess.cons.Next(); ok {
				sess.pending = &q
			}
		}
		if sess.pending != nil {
			resp.Question = sess.pending
		}
	}
	if resp.Done || resp.Question == nil || wantCandidates {
		resp.Candidates = sess.cons.Candidates()
	}
	return resp
}

// NumSessions reports the number of live construction sessions (after
// purging expired ones) — exposed for tests and monitoring.
func (s *Server) NumSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purgeLocked()
	return len(s.sessions)
}
