package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	keysearch "repro"
	"repro/internal/metrics"
)

// getHealth fetches and decodes /healthz.
func getHealth(t *testing.T, client *http.Client, base string) HealthResponse {
	t.Helper()
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// searchBody is a valid /v1/search request against the demo dataset.
func searchBody(t *testing.T, eng *keysearch.Engine) string {
	t.Helper()
	qs := eng.SampleQueries(1)
	if len(qs) == 0 {
		t.Fatal("no sample queries")
	}
	return fmt.Sprintf(`{"query":%q,"k":3}`, qs[0])
}

// TestAdmissionGateBoundsConcurrency drives far more clients than the
// gate admits and asserts the two core invariants from the counters:
// handler concurrency never exceeded MaxConcurrent, and the wait queue
// never grew past MaxQueue (no unbounded queue growth).
func TestAdmissionGateBoundsConcurrency(t *testing.T) {
	eng := demoEngine(t)
	srv := New(eng, WithAdmission(AdmissionConfig{
		MaxConcurrent: 2,
		MaxQueue:      3,
		QueueTimeout:  2 * time.Second,
	}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := searchBody(t, eng)
	var wg sync.WaitGroup
	var ok2xx, shed atomic.Int64
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				resp, err := ts.Client().Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					ok2xx.Add(1)
				case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
					shed.Add(1)
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()

	h := getHealth(t, ts.Client(), ts.URL).Admission
	if h.MaxInFlight > 2 {
		t.Fatalf("max in-flight %d exceeded MaxConcurrent 2", h.MaxInFlight)
	}
	if h.MaxQueued > 3 {
		t.Fatalf("max queued %d exceeded MaxQueue 3", h.MaxQueued)
	}
	if ok2xx.Load() == 0 {
		t.Fatal("no request succeeded under the gate")
	}
	if got := h.ShedQueueFull + h.ShedQueueTimeout; got != shed.Load() {
		t.Fatalf("shed counters %d != shed responses %d", got, shed.Load())
	}
	if h.Served != ok2xx.Load() {
		t.Fatalf("served %d != 2xx responses %d", h.Served, ok2xx.Load())
	}
}

// TestAdmissionQueueFairness holds every execution slot, lines up
// waiters, then releases the slots: every queued request must complete
// (no waiter starves), and the queue must drain in arrival order — the
// FIFO guarantee of the gate's channel semaphore.
func TestAdmissionQueueFairness(t *testing.T) {
	stats := &metrics.ServingStats{}
	g := newGate(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 8, QueueTimeout: 5 * time.Second}.withDefaults(), stats)

	// Occupy the single slot.
	rec := httptest.NewRecorder()
	release, ok := g.admit(rec, httptest.NewRequest("POST", "/v1/search", nil))
	if !ok {
		t.Fatal("first admit failed")
	}

	const waiters = 8
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	started := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Stagger arrival so queue order is deterministic.
			for {
				if g.stats.Snapshot().Queued == int64(i) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			started <- struct{}{}
			rel, ok := g.admit(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/search", nil))
			if !ok {
				t.Errorf("waiter %d shed", i)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			rel()
		}()
	}
	for i := 0; i < waiters; i++ {
		<-started
	}
	release() // open the floodgate; waiters should drain FIFO
	wg.Wait()

	if len(order) != waiters {
		t.Fatalf("only %d of %d waiters completed", len(order), waiters)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("queue drained out of arrival order: %v", order)
		}
	}
}

// TestAdmissionQueueTimeout pins the 503 shed path: with the only slot
// held and a tiny queue timeout, a queued request is rejected with 503,
// a Retry-After header, and a structured body.
func TestAdmissionQueueTimeout(t *testing.T) {
	stats := &metrics.ServingStats{}
	g := newGate(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 30 * time.Millisecond, RetryAfter: 2 * time.Second}.withDefaults(), stats)

	release, ok := g.admit(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/search", nil))
	if !ok {
		t.Fatal("first admit failed")
	}
	defer release()

	rec := httptest.NewRecorder()
	if _, ok := g.admit(rec, httptest.NewRequest("POST", "/v1/search", nil)); ok {
		t.Fatal("queued request admitted despite held slot")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	var body ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Code != "queue_timeout" || body.RetryAfterSeconds != 2 || body.Error == "" {
		t.Fatalf("body = %+v", body)
	}
	if s := stats.Snapshot(); s.ShedQueueTimeout != 1 || s.Queued != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestAdmissionQueueFull pins the 429 shed path: slot and queue both at
// capacity, the next arrival is rejected instantly.
func TestAdmissionQueueFull(t *testing.T) {
	stats := &metrics.ServingStats{}
	g := newGate(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: time.Second}.withDefaults(), stats)

	release, ok := g.admit(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/search", nil))
	if !ok {
		t.Fatal("first admit failed")
	}
	defer release()

	// Fill the one queue slot with a goroutine that will wait.
	queued := make(chan struct{})
	go func() {
		close(queued)
		rel, ok := g.admit(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/search", nil))
		if ok {
			rel()
		}
	}()
	<-queued
	for stats.Snapshot().Queued == 0 {
		time.Sleep(time.Millisecond)
	}

	rec := httptest.NewRecorder()
	if _, ok := g.admit(rec, httptest.NewRequest("POST", "/v1/search", nil)); ok {
		t.Fatal("admitted past a full queue")
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	var body ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Code != "queue_full" || body.RetryAfterSeconds < 1 {
		t.Fatalf("body = %+v", body)
	}
	if stats.Snapshot().ShedQueueFull != 1 {
		t.Fatalf("stats = %+v", stats.Snapshot())
	}
}

// TestRequestTimeoutMapsTo504 pins the default-deadline path end to
// end: a request timeout far below the engine's work cost must surface
// as 504 with the deadline_exceeded code, and be counted in /healthz.
func TestRequestTimeoutMapsTo504(t *testing.T) {
	eng := demoEngine(t)
	ts := httptest.NewServer(New(eng, WithRequestTimeout(time.Nanosecond)))
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/search", "application/json",
		strings.NewReader(searchBody(t, eng)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	var body ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Code != "deadline_exceeded" {
		t.Fatalf("code = %q, want deadline_exceeded", body.Code)
	}
	h := getHealth(t, ts.Client(), ts.URL)
	if h.Admission.DeadlineExceeded != 1 {
		t.Fatalf("deadline_exceeded_total = %d, want 1", h.Admission.DeadlineExceeded)
	}
	if h.Limits.RequestTimeoutMS != 0 { // 1ns rounds down to 0ms — config still surfaced
		t.Fatalf("limits.request_timeout_ms = %d", h.Limits.RequestTimeoutMS)
	}
}

// TestClientDeadlineMapsTo504 covers the other deadline source: the
// client's own context expiring mid-request must produce the same
// mapping as the server-side default deadline.
func TestClientDeadlineMapsTo504(t *testing.T) {
	eng := demoEngine(t)
	ts := httptest.NewServer(New(eng))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/search",
		strings.NewReader(searchBody(t, eng)))
	if err != nil {
		t.Fatal(err)
	}
	// The transport cancels the request; either way, the engine never
	// returns a torn 200.
	resp, err := ts.Client().Do(req)
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("expired client context produced a 200")
		}
	}
}

// TestSaturationSmoke is the acceptance smoke test of the overload
// path: a concurrency-limited server under sustained oversubscription
// must keep shedding (bounded queue), keep serving /healthz promptly,
// and keep the latency of *accepted* requests bounded by the queue
// timeout plus the request timeout — no collapse, no unbounded growth.
func TestSaturationSmoke(t *testing.T) {
	eng := demoEngine(t)
	const (
		maxConcurrent = 2
		maxQueue      = 4
		queueTimeout  = 100 * time.Millisecond
		reqTimeout    = 500 * time.Millisecond
	)
	// The demo engine answers in microseconds — far faster than clients
	// can pile up — so stand in a context-aware 20ms delay for the
	// expensive engine work a production dataset exhibits.
	srv := New(eng,
		WithAdmission(AdmissionConfig{
			MaxConcurrent: maxConcurrent,
			MaxQueue:      maxQueue,
			QueueTimeout:  queueTimeout,
		}),
		WithRequestTimeout(reqTimeout),
		WithHandlerWrapper(func(inner http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				select {
				case <-time.After(20 * time.Millisecond):
				case <-r.Context().Done():
					writeError(w, statusFor(r.Context().Err()), r.Context().Err())
					return
				}
				inner.ServeHTTP(w, r)
			})
		}),
	)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := searchBody(t, eng)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var worst atomic.Int64 // slowest accepted (2xx) request, ns
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				resp, err := ts.Client().Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
				if err != nil {
					continue
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					el := time.Since(start).Nanoseconds()
					for {
						cur := worst.Load()
						if el <= cur || worst.CompareAndSwap(cur, el) {
							break
						}
					}
				}
			}
		}()
	}

	// While saturated, /healthz must answer fast and report a bounded
	// queue.
	deadline := time.Now().Add(time.Second)
	probes := 0
	for time.Now().Before(deadline) {
		pstart := time.Now()
		h := getHealth(t, ts.Client(), ts.URL)
		if el := time.Since(pstart); el > reqTimeout {
			t.Errorf("/healthz took %v while saturated", el)
		}
		if h.Admission.Queued > maxQueue || h.Admission.MaxQueued > maxQueue {
			t.Errorf("queue grew past its bound: %+v", h.Admission)
		}
		probes++
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	h := getHealth(t, ts.Client(), ts.URL).Admission
	if h.ShedQueueFull+h.ShedQueueTimeout == 0 {
		t.Fatal("oversubscribed run shed nothing")
	}
	if h.Served == 0 {
		t.Fatal("oversubscribed run served nothing")
	}
	if probes < 10 {
		t.Fatalf("only %d healthz probes completed in 1s", probes)
	}
	// Accepted-request latency stays bounded: queue wait ≤ queueTimeout,
	// execution ≤ reqTimeout, plus generous scheduling slack.
	if bound := (queueTimeout + reqTimeout + 2*time.Second).Nanoseconds(); worst.Load() > bound {
		t.Fatalf("accepted request took %v, bound %v", time.Duration(worst.Load()), time.Duration(bound))
	}
}
