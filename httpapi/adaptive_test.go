package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	keysearch "repro"
)

// heavyQuery returns a query whose estimated cost lands in the last of
// the server's corpus-derived cost bands (at or above their p90 bound):
// the most expensive sample keywords, stacked — cost is additive over
// keywords — until the bound is reached.
func heavyQuery(t *testing.T, srv *Server, eng *keysearch.Engine) string {
	t.Helper()
	bounds := srv.defaultCostBands()
	qs := eng.SampleQueries(64)
	sort.Slice(qs, func(i, j int) bool { return eng.EstimateCost(qs[i]) > eng.EstimateCost(qs[j]) })
	for n := 1; n <= 3 && n <= len(qs); n++ {
		if q := strings.Join(qs[:n], " "); eng.EstimateCost(q) >= bounds[len(bounds)-1] {
			return q
		}
	}
	t.Fatalf("no query of up to 3 sample keywords reaches the heavy band %v", bounds)
	return ""
}

// TestAdaptiveShedCarriesDrainHintAndHeadroom: with the single slot
// held and no queue, the next request sheds with 429 queue_full, a
// Retry-After header, and the adaptive extras — current limit and
// headroom to the ceiling — in the body.
func TestAdaptiveShedCarriesDrainHintAndHeadroom(t *testing.T) {
	eng := demoEngine(t)
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	_, ts := gatedServer(t, eng, AdmissionConfig{
		MinConcurrent: 1, MaxConcurrent: 8,
		MaxQueue: 0, Window: time.Hour,
	}, blockOn(hold, entered))

	body := searchBody(t, eng)
	done := make(chan *http.Response, 1)
	go func() { done <- postSearch(t, ts.URL, body, true) }()
	<-entered // the only slot is now occupied

	resp := postSearch(t, ts.URL, body, false)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After header")
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "queue_full" {
		t.Fatalf("code = %q, want queue_full", er.Code)
	}
	if er.Limit != 1 {
		t.Fatalf("shed body limit = %d, want 1", er.Limit)
	}
	if er.LimitHeadroom == nil || *er.LimitHeadroom != 7 {
		t.Fatalf("shed body headroom = %v, want 7", er.LimitHeadroom)
	}
	if er.RetryAfterSeconds < 1 {
		t.Fatalf("retry_after_seconds = %d, want >= 1", er.RetryAfterSeconds)
	}

	close(hold)
	first := <-done
	first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("blocked request finished %d, want 200", first.StatusCode)
	}
}

// TestAdaptiveEvictsHeavyForCheap drives the cost-aware path over real
// HTTP: with the slot held and a one-deep queue occupied by a query in
// the heaviest derived cost band, a cost-1 newcomer (the first band:
// the p50 bound is at least 2) evicts it (heavy gets 429 queue_evicted)
// and is served once the slot frees.
func TestAdaptiveEvictsHeavyForCheap(t *testing.T) {
	eng := demoEngine(t)
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv, ts := gatedServer(t, eng, AdmissionConfig{
		MinConcurrent: 1, MaxConcurrent: 4,
		MaxQueue: 1, QueueTimeout: 10 * time.Second, Window: time.Hour,
	}, blockOn(hold, entered))

	// Occupy the slot.
	blockedDone := make(chan *http.Response, 1)
	go func() { blockedDone <- postSearch(t, ts.URL, searchBody(t, eng), true) }()
	<-entered

	// Queue a heavy query.
	heavyBody := fmt.Sprintf(`{"query":%q,"k":3}`, heavyQuery(t, srv, eng))
	cheapKeyword := findCheapKeyword(t, eng)
	heavyDone := make(chan *http.Response, 1)
	go func() { heavyDone <- postSearch(t, ts.URL, heavyBody, false) }()
	waitFor(t, func() bool {
		return getHealth(t, http.DefaultClient, ts.URL).Adaptive.Queued == 1
	})

	// The cheap newcomer takes the heavy waiter's place...
	cheapDone := make(chan *http.Response, 1)
	go func() {
		cheapDone <- postSearch(t, ts.URL, fmt.Sprintf(`{"query":%q,"k":3}`, cheapKeyword), false)
	}()
	heavy := <-heavyDone
	defer heavy.Body.Close()
	if heavy.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("heavy waiter status = %d, want 429", heavy.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(heavy.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "queue_evicted" {
		t.Fatalf("heavy waiter code = %q, want queue_evicted", er.Code)
	}

	// ...and is served when the slot frees.
	close(hold)
	blocked := <-blockedDone
	blocked.Body.Close()
	cheap := <-cheapDone
	defer cheap.Body.Close()
	if cheap.StatusCode != http.StatusOK {
		t.Fatalf("cheap newcomer status = %d, want 200", cheap.StatusCode)
	}

	h := getHealth(t, http.DefaultClient, ts.URL)
	if h.Adaptive == nil || !h.Adaptive.Enabled {
		t.Fatal("healthz missing adaptive block on a governed server")
	}
	if len(h.Adaptive.Bands) != 3 {
		t.Fatalf("bands = %d, want 3", len(h.Adaptive.Bands))
	}
	if h.Adaptive.Bands[2].Evicted != 1 {
		t.Fatalf("heavy band evicted = %d, want 1\nbands: %+v", h.Adaptive.Bands[2].Evicted, h.Adaptive.Bands)
	}
}

// findCheapKeyword scans the corpus for a keyword whose posting mass
// is the cost floor (a token occurring exactly once in one attribute)
// — the cheapest real query the engine can serve.
func findCheapKeyword(t *testing.T, eng *keysearch.Engine) string {
	t.Helper()
	for _, p := range "abcdefghijklmnopqrstuvwxyz0123456789" {
		for _, k := range eng.Keywords(string(p), 500) {
			if eng.EstimateCost(k) == 1 {
				return k
			}
		}
	}
	t.Fatal("demo corpus has no cost-1 keyword")
	return ""
}

// waitFor polls a condition with a bounded deadline (observability
// only — the admission decisions themselves are deterministic).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdaptiveHealthAndDefaults: a governed server reports controller
// state on /healthz, derives cost bands from the corpus, and accounts
// every admitted request in the band counters; a fixed-limit server
// carries no adaptive block.
func TestAdaptiveHealthAndDefaults(t *testing.T) {
	eng := demoEngine(t)
	srv := New(eng, WithAdmission(AdmissionConfig{MinConcurrent: 2, MaxConcurrent: 8}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const n = 5
	body := searchBody(t, eng)
	for i := 0; i < n; i++ {
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}

	h := getHealth(t, http.DefaultClient, ts.URL)
	a := h.Adaptive
	if a == nil || !a.Enabled {
		t.Fatal("adaptive block missing")
	}
	if a.Limit < 2 || a.Limit > 8 || a.MinLimit != 2 || a.MaxLimit != 8 {
		t.Fatalf("controller bounds: %+v", a.ControllerState)
	}
	if len(a.Bands) != 3 { // derived p50/p90 bounds = 3 bands
		t.Fatalf("derived bands = %d, want 3: %+v", len(a.Bands), a.Bands)
	}
	var admitted int64
	for _, b := range a.Bands {
		admitted += b.Admitted
	}
	if admitted != n {
		t.Fatalf("band admitted total = %d, want %d", admitted, n)
	}
	if a.AvgServiceMS <= 0 {
		t.Fatalf("avg service not observed: %+v", a)
	}
	if h.Limits.MaxConcurrent != 8 || h.Limits.AdaptiveMinConcurrent != 2 || h.Limits.AdaptiveWindowMS != 500 {
		t.Fatalf("limits: %+v", h.Limits)
	}

	fixed := httptest.NewServer(New(eng, WithAdmission(AdmissionConfig{MaxConcurrent: 8})))
	defer fixed.Close()
	if h := getHealth(t, http.DefaultClient, fixed.URL); h.Adaptive != nil || h.Limits.AdaptiveMinConcurrent != 0 {
		t.Fatalf("fixed-limit server reports a governor: %+v", h)
	}
}

// TestEstimateCostSeparatesQueries pins the admission-grade cost
// signal end to end: unknown keywords cost the floor, corpus keywords
// carry posting mass, and stacking keywords stacks cost.
func TestEstimateCostSeparatesQueries(t *testing.T) {
	eng := demoEngine(t)
	if got := eng.EstimateCost(""); got != 1 {
		t.Fatalf("empty query cost = %d, want 1", got)
	}
	if got := eng.EstimateCost("zzz-no-such-keyword"); got != 1 {
		t.Fatalf("unknown keyword cost = %d, want 1", got)
	}
	qs := eng.SampleQueries(2)
	if len(qs) < 2 {
		t.Fatal("demo corpus has no sample queries")
	}
	c0 := eng.EstimateCost(qs[0])
	if c0 < 2 {
		t.Fatalf("ambiguous corpus keyword cost = %d, want >= 2", c0)
	}
	both := eng.EstimateCost(fmt.Sprintf("%s %s", qs[0], qs[1]))
	if both != c0+eng.EstimateCost(qs[1]) {
		t.Fatalf("cost not additive over keywords: %d + %d != %d",
			c0, eng.EstimateCost(qs[1]), both)
	}
}
