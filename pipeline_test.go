package keysearch

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/divq"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/topk"
)

// TestScoreCacheTransparency asserts the memoised score cache never
// changes a response: cache on vs cache off produce byte-identical JSON,
// and repeated requests against one (warm) engine stay identical too.
func TestScoreCacheTransparency(t *testing.T) {
	ctx := context.Background()
	on, err := DemoMoviesWith(11, WithScoreCache(true))
	if err != nil {
		t.Fatal(err)
	}
	off, err := DemoMoviesWith(11, WithScoreCache(false))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range goldenQueries(on) {
		req := SearchRequest{Query: q, K: 10}
		first, err := on.Search(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := on.Search(ctx, req) // second hit serves from the cache
		if err != nil {
			t.Fatal(err)
		}
		cold, err := off.Search(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		fb, _ := json.Marshal(first)
		wb, _ := json.Marshal(warm)
		cb, _ := json.Marshal(cold)
		if string(fb) != string(wb) {
			t.Errorf("warm cache changed response for %q", q)
		}
		if string(fb) != string(cb) {
			t.Errorf("cache on/off responses differ for %q:\non:  %s\noff: %s", q, fb, cb)
		}
	}
}

// TestExecutionCacheTransparency asserts the per-request selection cache
// of the plan executor never changes a response: cache on vs cache off
// produce byte-identical JSON across the whole request mix — ranked
// search with row previews (shared preview cache), global top-k rows
// (cache shared across the top-k plan waves), and diversification
// (cached non-empty probes).
func TestExecutionCacheTransparency(t *testing.T) {
	ctx := context.Background()
	on, err := DemoMoviesWith(11, WithExecutionCache(true))
	if err != nil {
		t.Fatal(err)
	}
	off, err := DemoMoviesWith(11, WithExecutionCache(false))
	if err != nil {
		t.Fatal(err)
	}
	if !on.ExecutionCacheEnabled() || off.ExecutionCacheEnabled() {
		t.Fatal("WithExecutionCache not reflected by ExecutionCacheEnabled")
	}
	compare := func(q, what string, a, b any, erra, errb error) {
		t.Helper()
		if erra != nil || errb != nil {
			t.Fatalf("%s(%q): on err=%v off err=%v", what, q, erra, errb)
		}
		ab, _ := json.Marshal(a)
		bb, _ := json.Marshal(b)
		if string(ab) != string(bb) {
			t.Errorf("%s cache on/off responses differ for %q:\non:  %s\noff: %s", what, q, ab, bb)
		}
	}
	for _, q := range goldenQueries(on) {
		sOn, err1 := on.Search(ctx, SearchRequest{Query: q, K: 10, RowLimit: 2})
		sOff, err2 := off.Search(ctx, SearchRequest{Query: q, K: 10, RowLimit: 2})
		compare(q, "Search", sOn, sOff, err1, err2)
		rOn, err1 := on.SearchRows(ctx, RowsRequest{Query: q, K: 6})
		rOff, err2 := off.SearchRows(ctx, RowsRequest{Query: q, K: 6})
		compare(q, "SearchRows", rOn, rOff, err1, err2)
		dOn, err1 := on.Diversify(ctx, DiversifyRequest{Query: q, K: 5, Lambda: 0.3, RowLimit: 2})
		dOff, err2 := off.Diversify(ctx, DiversifyRequest{Query: q, K: 5, Lambda: 0.3, RowLimit: 2})
		compare(q, "Diversify", dOn, dOff, err1, err2)
	}
}

// TestStageCancellation proves a cancelled context returns promptly from
// each stage in isolation — candidate generation, interpretation
// enumeration, ranking, DivQ's non-empty filter and top-k execution —
// not just from the pipeline entry points.
func TestStageCancellation(t *testing.T) {
	eng, err := DemoMovies(11)
	if err != nil {
		t.Fatal(err)
	}
	live := context.Background()
	cancelled, cancel := context.WithCancel(live)
	cancel()

	toks := eng.SampleQueries(3)
	if len(toks) < 3 {
		t.Fatal("not enough sample tokens")
	}
	q := toks[0] + " " + toks[1] + " " + toks[2]

	// Stage inputs, prepared under a live context.
	cands, _, err := eng.candidatesFor(live, eng.current(), q)
	if err != nil {
		t.Fatal(err)
	}
	space, err := query.GenerateCompleteContext(live, cands, eng.current().cat, query.GenerateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(space) == 0 {
		t.Fatal("empty interpretation space")
	}
	ranked, err := eng.current().model.RankContext(live, space)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("candidates", func(t *testing.T) {
		if _, err := query.GenerateCandidatesContext(cancelled, eng.current().ix, cands.Keywords, query.GenerateOptionsConfig{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("GenerateCandidatesContext error = %v, want context.Canceled", err)
		}
	})
	t.Run("generate", func(t *testing.T) {
		if _, err := query.GenerateCompleteContext(cancelled, cands, eng.current().cat, query.GenerateConfig{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("GenerateCompleteContext error = %v, want context.Canceled", err)
		}
	})
	t.Run("rank", func(t *testing.T) {
		if _, err := eng.current().model.RankContext(cancelled, space); !errors.Is(err, context.Canceled) {
			t.Fatalf("RankContext error = %v, want context.Canceled", err)
		}
	})
	t.Run("filter_nonempty", func(t *testing.T) {
		exec := &relstore.LocalExecutor{DB: eng.current().db, Cache: relstore.NewSelectionCache()}
		if _, err := divq.FilterNonEmptyExec(cancelled, exec, ranked); !errors.Is(err, context.Canceled) {
			t.Fatalf("FilterNonEmptyExec error = %v, want context.Canceled", err)
		}
	})
	t.Run("topk", func(t *testing.T) {
		_, _, err := topk.TopKContext(cancelled, eng.current().db, ranked, &topk.TFScorer{IX: eng.current().ix}, topk.Options{K: 5, Parallelism: 4})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("TopKContext error = %v, want context.Canceled", err)
		}
	})
	t.Run("rank-sequential-model", func(t *testing.T) {
		m := prob.New(eng.current().ix, eng.current().cat, prob.Config{})
		if _, err := m.RankContext(cancelled, space); !errors.Is(err, context.Canceled) {
			t.Fatalf("sequential RankContext error = %v, want context.Canceled", err)
		}
	})
}

// TestMidPipelineCancellation cancels a request while the pipeline is
// (potentially) mid-flight and asserts it returns quickly
// with either a complete response or context.Canceled — never a hang and
// never a mangled error.
func TestMidPipelineCancellation(t *testing.T) {
	eng, err := DemoMovies(11)
	if err != nil {
		t.Fatal(err)
	}
	toks := eng.SampleQueries(3)
	q := toks[0] + " " + toks[1]
	for _, delay := range []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond} {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(delay, cancel)
		done := make(chan error, 1)
		go func() {
			_, err := eng.Search(ctx, SearchRequest{Query: q, K: 10, RowLimit: 2})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("delay %v: error = %v, want nil or context.Canceled", delay, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("delay %v: Search did not return after cancellation", delay)
		}
		timer.Stop()
		cancel()
	}
}
