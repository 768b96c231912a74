package keysearch

import (
	"testing"

	"repro/internal/trace"
)

// TestTracingIsObservationOnly is the engine-level differential: the
// same request with and without a trace in the context must produce
// byte-identical responses.
func TestTracingIsObservationOnly(t *testing.T) {
	eng := churnEngine(t, WithAnswerCache(answerCacheTestBudget))
	queries := append(eng.SampleQueries(3), "north south")
	for _, q := range queries {
		// Run each endpoint twice — cold then warm — so cache-hit paths
		// are traced too.
		for pass := 0; pass < 2; pass++ {
			tctx := trace.NewContext(bg, trace.New("diff"))
			for kind, both := range map[string][2]func() (any, error){
				"search": {
					func() (any, error) { return eng.Search(bg, SearchRequest{Query: q, K: 5, RowLimit: 3}) },
					func() (any, error) { return eng.Search(tctx, SearchRequest{Query: q, K: 5, RowLimit: 3}) },
				},
				"rows": {
					func() (any, error) { return eng.SearchRows(bg, RowsRequest{Query: q, K: 5}) },
					func() (any, error) { return eng.SearchRows(tctx, RowsRequest{Query: q, K: 5}) },
				},
				"diversify": {
					func() (any, error) { return eng.Diversify(bg, DiversifyRequest{Query: q, K: 4, Lambda: 0.5}) },
					func() (any, error) { return eng.Diversify(tctx, DiversifyRequest{Query: q, K: 4, Lambda: 0.5}) },
				},
			} {
				pv, perr := both[0]()
				tv, terr := both[1]()
				plain := asJSON(t, pv, perr)
				traced := asJSON(t, tv, terr)
				if plain != traced {
					t.Fatalf("%s(%q) pass %d: traced response diverges:\n  plain:  %.300s\n  traced: %.300s",
						kind, q, pass, plain, traced)
				}
			}
		}
	}
}

// TestTraceRecordsEngineStages asserts the instrumentation is live: a
// traced SearchRows must leave the stage spans and work counters the
// slow-query dump and query log are built from.
func TestTraceRecordsEngineStages(t *testing.T) {
	eng := churnEngine(t, WithAnswerCache(answerCacheTestBudget))
	q := eng.SampleQueries(1)[0]

	tr := trace.New("local")
	if _, err := eng.SearchRows(trace.NewContext(bg, tr), RowsRequest{Query: q, K: 5}); err != nil {
		t.Fatal(err)
	}
	d := tr.Snapshot()
	st := d.StageDurations()
	for _, stage := range []string{"parse", "interpret", "rank", "execute"} {
		if _, ok := st[stage]; !ok {
			t.Fatalf("stage %q missing from trace: %v", stage, st)
		}
	}
	if d.Counters["topk_executed"] == 0 && d.Counters["topk_skipped"] == 0 {
		t.Fatalf("topk counters missing: %v", d.Counters)
	}
	if d.Counters["plans_executed"] == 0 {
		t.Fatalf("executor counters missing: %v", d.Counters)
	}
	if d.Counters["interpretations_ranked"] == 0 {
		t.Fatalf("ranking counter missing: %v", d.Counters)
	}
	// Answer-cache consultation must be visible (hits or misses).
	if d.Counters["answer_cache_selection_hits"]+d.Counters["answer_cache_selection_misses"] == 0 {
		t.Fatalf("answer-cache counters missing: %v", d.Counters)
	}
}

// TestTopKExecutesNoDiscardedPlan: a traced SearchRows executes only the
// plans whose results top-k merges — every plan run is counted in
// topk_executed, none is run past the early stop.
func TestTopKExecutesNoDiscardedPlan(t *testing.T) {
	eng := churnEngine(t)
	for _, q := range eng.SampleQueries(60) {
		tr := trace.New("plans")
		if _, err := eng.SearchRows(trace.NewContext(bg, tr), RowsRequest{Query: q, K: 3}); err != nil {
			t.Fatal(err)
		}
		c := tr.Snapshot().Counters
		if c["plans_executed"] != c["topk_executed"] {
			t.Errorf("%q: %d plans executed, %d merged by top-k (%d skipped)",
				q, c["plans_executed"], c["topk_executed"], c["topk_skipped"])
		}
	}
}
