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

// blockOn is a handler wrapper that parks every request carrying an
// X-Block header inside its execution slot — after signalling entered —
// until hold closes, so tests control slot occupancy deterministically.
func blockOn(hold, entered chan struct{}) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("X-Block") != "" {
				entered <- struct{}{}
				<-hold
			}
			next.ServeHTTP(w, r)
		})
	}
}

// gatedServer serves eng behind the admission gate cfg with the given
// handler wrapper inside it.
func gatedServer(t *testing.T, eng *keysearch.Engine, cfg AdmissionConfig, wrap func(http.Handler) http.Handler) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(eng, WithAdmission(cfg), WithHandlerWrapper(wrap))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// postSearch posts body to /v1/search, parking it in its slot when
// block is set (see blockOn). Tests call it from helper goroutines, so
// a transport failure is reported with t.Error and returned as status
// -1, which every caller's status check then rejects.
func postSearch(t *testing.T, url, body string, block bool) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/v1/search", strings.NewReader(body))
	if err == nil {
		if block {
			req.Header.Set("X-Block", "1")
		}
		var resp *http.Response
		if resp, err = http.DefaultClient.Do(req); err == nil {
			return resp
		}
	}
	t.Error(err)
	return &http.Response{StatusCode: -1, Body: http.NoBody}
}

// waitQueued polls the server's queued gauge until it reaches n.
func waitQueued(t *testing.T, srv *Server, n int64) {
	t.Helper()
	waitFor(t, func() bool { return srv.stats.Snapshot().Queued == n })
}

// decodeShed reads a shed response's body, which must be structured.
func decodeShed(t *testing.T, resp *http.Response) ErrorResponse {
	t.Helper()
	defer resp.Body.Close()
	var body ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

// TestAdmissionQueueFairness holds the only execution slot, lines up
// waiters one by one, then releases the slot: every queued request must
// complete (no waiter starves), and the queue must drain in arrival
// order — the FIFO guarantee of a fixed-limit gate.
func TestAdmissionQueueFairness(t *testing.T) {
	eng := demoEngine(t)
	hold, entered := make(chan struct{}), make(chan struct{}, 1)
	var mu sync.Mutex
	var order []string
	srv, ts := gatedServer(t, eng, AdmissionConfig{MaxConcurrent: 1, MaxQueue: 8, QueueTimeout: 5 * time.Second},
		func(next http.Handler) http.Handler {
			return blockOn(hold, entered)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if o := r.Header.Get("X-Order"); o != "" {
					mu.Lock()
					order = append(order, o)
					mu.Unlock()
				}
				next.ServeHTTP(w, r)
			}))
		})
	body := searchBody(t, eng)

	// Occupy the single slot.
	first := make(chan *http.Response, 1)
	go func() { first <- postSearch(t, ts.URL, body, true) }()
	<-entered

	const waiters = 8
	var wg sync.WaitGroup
	statuses := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest("POST", ts.URL+"/v1/search", strings.NewReader(body))
			req.Header.Set("X-Order", fmt.Sprint(i))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}()
		waitQueued(t, srv, int64(i+1)) // stagger arrival so queue order is deterministic
	}
	close(hold) // open the floodgate; waiters should drain FIFO
	(<-first).Body.Close()
	wg.Wait()

	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("waiter %d finished %d, want 200", i, st)
		}
	}
	if len(order) != waiters {
		t.Fatalf("only %d of %d waiters completed", len(order), waiters)
	}
	for i, got := range order {
		if got != fmt.Sprint(i) {
			t.Fatalf("queue drained out of arrival order: %v", order)
		}
	}
}

// TestAdmissionQueueTimeout pins the 503 shed path: with the only slot
// held and a tiny queue timeout, a queued request is rejected with 503,
// a Retry-After header, and a structured body naming the fixed limit.
func TestAdmissionQueueTimeout(t *testing.T) {
	eng := demoEngine(t)
	hold, entered := make(chan struct{}), make(chan struct{}, 1)
	srv, ts := gatedServer(t, eng, AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 30 * time.Millisecond},
		blockOn(hold, entered))
	body := searchBody(t, eng)

	first := make(chan *http.Response, 1)
	go func() { first <- postSearch(t, ts.URL, body, true) }()
	<-entered
	defer func() {
		close(hold)
		(<-first).Body.Close()
	}()

	resp := postSearch(t, ts.URL, body, false)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	got := decodeShed(t, resp)
	if got.Code != "queue_timeout" || got.RetryAfterSeconds != 1 || got.Error == "" ||
		got.Limit != 1 || got.LimitHeadroom == nil || *got.LimitHeadroom != 0 {
		t.Fatalf("body = %+v", got)
	}
	if s := srv.stats.Snapshot(); s.ShedQueueTimeout != 1 || s.Queued != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestAdmissionQueueFull pins the 429 shed path: slot and queue both at
// capacity, the next arrival is rejected instantly.
func TestAdmissionQueueFull(t *testing.T) {
	eng := demoEngine(t)
	hold, entered := make(chan struct{}), make(chan struct{}, 1)
	srv, ts := gatedServer(t, eng, AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 5 * time.Second},
		blockOn(hold, entered))
	body := searchBody(t, eng)

	first := make(chan *http.Response, 1)
	go func() { first <- postSearch(t, ts.URL, body, true) }()
	<-entered
	// Fill the one queue place with a request that will wait.
	queued := make(chan *http.Response, 1)
	go func() { queued <- postSearch(t, ts.URL, body, false) }()
	waitQueued(t, srv, 1)

	resp := postSearch(t, ts.URL, body, false)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := decodeShed(t, resp); got.Code != "queue_full" || got.RetryAfterSeconds < 1 {
		t.Fatalf("body = %+v", got)
	}
	if s := srv.stats.Snapshot(); s.ShedQueueFull != 1 {
		t.Fatalf("stats = %+v", s)
	}

	close(hold)
	(<-first).Body.Close()
	if r := <-queued; r.StatusCode != http.StatusOK {
		t.Fatalf("queued request finished %d, want 200", r.StatusCode)
	} else {
		r.Body.Close()
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
