package keysearch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/divq"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/topk"
)

// TestScoreCacheTransparency asserts the engine's memoised score cache
// never changes a ranking: every cold and warm Search answers exactly the
// interpretations and probabilities of an uncached prob.Model over the
// same snapshot. It runs with co-occurrence on, where value sub-terms go
// through the joint-probability cache, and off, where they go through the
// keyword-probability cache.
func TestScoreCacheTransparency(t *testing.T) {
	ctx := context.Background()
	for _, co := range []bool{true, false} {
		t.Run(fmt.Sprintf("cooccurrence=%v", co), func(t *testing.T) {
			db, err := datagen.IMDB(datagen.IMDBConfig{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			opts := []Option{WithMaxJoinPath(4)}
			if co {
				opts = append(opts, WithCoOccurrence())
			}
			eng := fromDatabase(db, opts...)
			if err := eng.Build(); err != nil {
				t.Fatal(err)
			}
			s := eng.current()
			ref := prob.New(s.ix, s.cat, prob.Config{UseCoOccurrence: co, DisableScoreCache: true})
			for _, q := range goldenQueries(eng) {
				cands, _, err := eng.candidatesFor(ctx, s, q)
				if err != nil {
					t.Fatal(err)
				}
				space, err := query.GenerateCompleteContext(ctx, cands, s.cat, query.GenerateConfig{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.RankContext(ctx, space)
				if err != nil {
					t.Fatal(err)
				}
				for _, pass := range []string{"cold", "warm"} {
					resp, err := eng.Search(ctx, SearchRequest{Query: q})
					if err != nil {
						t.Fatal(err)
					}
					if len(resp.Results) != len(want) {
						t.Fatalf("%s %q: %d results, uncached model ranks %d", pass, q, len(resp.Results), len(want))
					}
					for i, r := range resp.Results {
						if r.Query != want[i].Q.String() || r.Probability != want[i].Prob {
							t.Fatalf("%s %q rank %d: %s p=%v, uncached model %s p=%v",
								pass, q, i, r.Query, r.Probability, want[i].Q.String(), want[i].Prob)
						}
					}
				}
			}
		})
	}
}

// TestExecutionCacheTransparency asserts the per-request selection cache
// never changes what a plan execution returns: row previews, global top-k
// rows and DivQ's non-empty filter agree between the request executor
// (localExec, selection cache backed by the answer cache) and a bare
// uncached relstore.LocalExecutor over the same snapshot. Three passes
// per query: the first computes every selection locally, later passes
// also read selections the answer cache admitted.
func TestExecutionCacheTransparency(t *testing.T) {
	ctx := context.Background()
	eng, err := DemoMoviesWith(11, WithAnswerCache(answerCacheTestBudget))
	if err != nil {
		t.Fatal(err)
	}
	s := eng.current()
	uncached := &relstore.LocalExecutor{DB: s.db}
	run := func(exec relstore.PlanExecutor, ranked []prob.Scored) string {
		t.Helper()
		results := eng.wrap(s, ranked[:min(len(ranked), 10)])
		if err := attachPreviews(ctx, results, 3, exec); err != nil {
			t.Fatal(err)
		}
		rows, _, err := topk.TopKContext(ctx, s.db, ranked, &topk.TFScorer{IX: s.ix}, topk.Options{K: 6, PerInterpretationLimit: 24, Exec: exec})
		if err != nil {
			t.Fatal(err)
		}
		nonEmpty, err := divq.FilterNonEmptyExec(ctx, exec, ranked[:min(len(ranked), 25)])
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range results {
			out = append(out, fmt.Sprintf("preview %s %v", r.Query, r.Preview))
		}
		for _, r := range rows {
			out = append(out, fmt.Sprintf("row %s %v %v", r.Q.String(), r.Score, r.Rows))
		}
		for _, sc := range nonEmpty {
			out = append(out, "nonempty "+sc.Q.String())
		}
		return strings.Join(out, "\n")
	}
	for _, q := range goldenQueries(eng) {
		ranked, err := eng.interpret(ctx, s, q)
		if err != nil {
			t.Fatal(err)
		}
		want := run(uncached, ranked)
		for pass := 0; pass < 3; pass++ {
			if got := run(eng.localExec(ctx, s, eng.answerView()), ranked); got != want {
				t.Fatalf("pass %d %q: request executor diverged from the uncached one:\n got %s\nwant %s", pass, q, got, want)
			}
		}
	}
	if st, _ := eng.AnswerCacheStats(); st.Hits == 0 {
		t.Fatal("later passes never read the answer cache")
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
		_, _, err := topk.TopKContext(cancelled, eng.current().db, ranked, &topk.TFScorer{IX: eng.current().ix}, topk.Options{K: 5})
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
