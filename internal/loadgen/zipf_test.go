package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	keysearch "repro"
	"repro/httpapi"
)

// TestZipfWorkloadShape checks the repeated-query mode: the op stream
// keeps cfg.Ops length, draws from at most HotSet distinct queries with
// the hot head dominating, and stays deterministic.
func TestZipfWorkloadShape(t *testing.T) {
	cfg := DatasetConfig{Kind: KindMovies, TargetRows: 2000, Seed: 11}
	db, err := BuildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := WorkloadConfig{Ops: 400, Seed: 3, ZipfS: 1.3, HotSet: 16}
	ops, err := BuildWorkload(db, cfg.Kind, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 400 {
		t.Fatalf("ops = %d, want 400", len(ops))
	}
	freq := map[string]int{}
	for _, op := range ops {
		freq[op.Query]++
	}
	if len(freq) > 16 {
		t.Fatalf("Zipf mode produced %d distinct queries, want <= HotSet=16", len(freq))
	}
	top := 0
	for _, n := range freq {
		if n > top {
			top = n
		}
	}
	// With s=1.3 over 16 ranks the head rank must clearly dominate a
	// uniform draw (400/16 = 25).
	if top < 50 {
		t.Fatalf("hot head drew only %d of 400 ops — not a skewed stream (%d distinct)", top, len(freq))
	}
	ops2, err := BuildWorkload(db, cfg.Kind, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		if ops[i].Kind != ops2[i].Kind || !bytes.Equal(ops[i].Body, ops2[i].Body) {
			t.Fatalf("Zipf workload not deterministic at op %d", i)
		}
	}
}

// TestAnswerCacheUnderZipfLoad is the acceptance test for the answer
// cache under a realistic serving workload: a Zipf-skewed repeated
// query stream (with the default trickle of mutations) against the HTTP
// stack, with a deliberately small cache budget. The cache must serve
// real hits, survive the mutation churn, and never let its resident
// high-water cross the byte budget.
func TestAnswerCacheUnderZipfLoad(t *testing.T) {
	const budget = 128 << 10
	cfg := DatasetConfig{Kind: KindMovies, TargetRows: 4000, Seed: 42}
	db, err := BuildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := BuildEngine(cfg, keysearch.WithAnswerCache(budget))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.AnswerCacheStats(); !ok {
		t.Fatal("answer cache not enabled")
	}
	ops, err := BuildWorkload(db, cfg.Kind, WorkloadConfig{
		Ops: 256, Seed: 7, ZipfS: 1.3, HotSet: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	mutated := false
	for _, op := range ops {
		if op.Kind == OpMutate {
			mutated = true
		}
	}
	if !mutated {
		t.Fatal("workload carries no mutations — churn leg is vacuous")
	}

	ts := httptest.NewServer(httpapi.New(eng))
	defer ts.Close()
	res, err := Run(context.Background(), Options{
		BaseURL:  ts.URL,
		Ops:      ops,
		Workers:  4,
		Duration: 700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("run produced %d errors", res.Errors)
	}

	stats, ok := eng.AnswerCacheStats()
	if !ok {
		t.Fatal("stats unavailable")
	}
	if stats.Hits == 0 {
		t.Fatalf("Zipf repeated stream never hit the cache: %+v", stats)
	}
	if stats.BudgetBytes != budget {
		t.Fatalf("budget = %d, want %d", stats.BudgetBytes, budget)
	}
	if stats.HighWaterBytes > stats.BudgetBytes {
		t.Fatalf("cache high-water %d exceeded budget %d: %+v",
			stats.HighWaterBytes, stats.BudgetBytes, stats)
	}
	if eng.Epoch() == 0 {
		t.Fatal("mutate ops did not commit any batch")
	}

	// /healthz must surface the cache block with sane values: the budget
	// in the nested limits object, the live counters in answer_cache.
	var health struct {
		Limits struct {
			AnswerCacheBudgetBytes int64 `json:"answer_cache_budget_bytes"`
		} `json:"limits"`
		AnswerCache *struct {
			HighWaterBytes int64 `json:"high_water_bytes"`
			Hits           int64 `json:"hits"`
		} `json:"answer_cache"`
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &health); err != nil {
		t.Fatal(err)
	}
	if health.AnswerCache == nil {
		t.Fatalf("/healthz missing answer_cache block: %s", raw)
	}
	if health.Limits.AnswerCacheBudgetBytes != budget || health.AnswerCache.Hits == 0 {
		t.Fatalf("/healthz answer cache implausible: limits=%+v cache=%+v", health.Limits, health.AnswerCache)
	}
	if health.AnswerCache.HighWaterBytes > health.Limits.AnswerCacheBudgetBytes {
		t.Fatalf("/healthz reports high-water over budget: %+v", health.AnswerCache)
	}
}
