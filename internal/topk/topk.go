// Package topk implements the top-k query processing of Section 2.2.5:
// given a probability-ranked list of query interpretations (candidate
// networks), retrieve the k globally best search results (joining trees
// of tuples) without executing every interpretation to completion.
//
// The strategy is the DISCOVER2 adaptation of the Threshold Algorithm
// (Fagin): interpretations are processed in descending score order; for
// each, an upper bound on the score of any result it can still produce
// is known in advance (the interpretation's own score, since the
// per-result factor is ≤ 1 for a monotone scoring function). Execution
// stops as soon as the current k-th best result score is at least the
// upper bound of the next unexecuted interpretation — the early-stopping
// criterion of Section 2.2.5.
package topk

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"repro/internal/invindex"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/trace"
)

// Result is one scored search result: a JTT of an interpretation.
type Result struct {
	// Q is the interpretation that produced the result.
	Q *query.Interpretation
	// Rows are the RowIDs per join-plan node.
	Rows []int
	// Score combines the interpretation's probability with the result's
	// tuple-level relevance; higher is better.
	Score float64
}

// Scorer computes the tuple-level relevance factor of one JTT in [0, 1].
// The aggregate result score is interpretation score × factor, which is
// monotone in the sense of Section 2.2.5: better tuples can never make a
// worse interpretation overtake a better one's bound.
type Scorer interface {
	Factor(db *relstore.Database, plan *relstore.JoinPlan, jtt relstore.JTT) float64
}

// TFScorer scores a JTT by the average normalised term frequency of the
// interpretation's keywords within the matched tuples — the
// tuple-relevance factor of Section 2.2.4 (the "documents most relevant
// to the query contain the query terms more often" intuition).
type TFScorer struct {
	IX *invindex.Index
}

// Factor implements Scorer. Each cell is scanned once per keyword by
// relstore.CountToken, which splits it as Tokenize does without
// building the tokens.
func (s *TFScorer) Factor(db *relstore.Database, plan *relstore.JoinPlan, jtt relstore.JTT) float64 {
	total, n := 0.0, 0
	for i, node := range plan.Nodes {
		t := db.Table(node.Table)
		if t == nil {
			continue
		}
		for _, pred := range node.Predicates {
			val, ok := t.Value(jtt.Rows[i], pred.Column)
			if !ok {
				continue
			}
			for _, kw := range pred.Keywords {
				count, tokens := relstore.CountToken(val, kw)
				if tokens == 0 {
					break
				}
				total += float64(count) / float64(tokens)
				n++
			}
		}
	}
	if n == 0 {
		return 1 // keyword-free interpretations: neutral factor
	}
	f := total / float64(n)
	if f > 1 {
		f = 1
	}
	return f
}

// UnitScorer gives every result the factor 1 — results are ranked purely
// by interpretation probability (the naive union-and-sort strategy, used
// as the baseline and for testing the early-stopping logic).
type UnitScorer struct{}

// Factor implements Scorer.
func (UnitScorer) Factor(*relstore.Database, *relstore.JoinPlan, relstore.JTT) float64 {
	return 1
}

// Options tunes top-k retrieval.
type Options struct {
	// K is the number of results to return (required).
	K int
	// PerInterpretationLimit caps JTT materialisation per interpretation
	// (0 = unlimited).
	PerInterpretationLimit int
	// Deprecated: ignored. Execution is sequential; the field remains
	// only so existing callers keep compiling.
	Parallelism int
	// Exec evaluates the interpretations' join plans — the seam the
	// engine and the benchmark's tracing ledger plug a request-scoped
	// executor into. The PlanExecutor contract requires the exact
	// Database.Execute result sequence, so top-k output stays
	// byte-identical whatever executor sits behind this option. Nil means
	// a LocalExecutor over db with a fresh per-request SelectionCache.
	Exec relstore.PlanExecutor
}

// Stats reports how much work early stopping saved.
type Stats struct {
	// Executed is the number of interpretations actually executed.
	Executed int
	// Skipped is the number of interpretations pruned by the threshold.
	Skipped int
	// Materialized is the number of JTTs scored.
	Materialized int
}

// resultHeap is a min-heap on Score, holding the current top-k.
type resultHeap []Result

func (h resultHeap) Len() int            { return len(h) }
func (h resultHeap) Less(i, j int) bool  { return h[i].Score < h[j].Score }
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TopKContext retrieves the k best results over the ranked
// interpretation list. ranked must be sorted by descending score (as
// produced by prob.Model.RankContext); the interpretation score is its
// upper bound. Interpretations execute one at a time in rank order: the
// context is checked first, then the threshold, so no plan is executed
// whose results the early stop would discard.
func TopKContext(ctx context.Context, db *relstore.Database, ranked []prob.Scored, scorer Scorer, opts Options) ([]Result, Stats, error) {
	var stats Stats
	if opts.K <= 0 {
		return nil, stats, fmt.Errorf("topk: K must be positive")
	}
	// Recording is deferred so early-stop statistics land on the trace
	// however the loop exits; tr is nil (every call a no-op) when the
	// request is untraced.
	if tr := trace.FromContext(ctx); tr != nil {
		defer func() {
			tr.Count("topk_executed", int64(stats.Executed))
			tr.Count("topk_skipped", int64(stats.Skipped))
			tr.Count("topk_materialized", int64(stats.Materialized))
		}()
	}
	if scorer == nil {
		scorer = UnitScorer{}
	}
	h := &resultHeap{}
	heap.Init(h)
	merge := newHeapMerger(h, opts.K)

	exec := opts.Exec
	if exec == nil {
		exec = &relstore.LocalExecutor{DB: db, Cache: relstore.NewSelectionCache()}
	}
	for i, sc := range ranked {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		// Early stop (TA / DISCOVER2): no future interpretation can beat
		// the current k-th best result.
		if merge.stop(sc.Score) {
			stats.Skipped = len(ranked) - i
			break
		}
		results, err := executeOne(db, exec, sc, scorer, opts.PerInterpretationLimit)
		if err != nil {
			return nil, stats, err
		}
		stats.Executed++
		stats.Materialized += len(results)
		merge.add(results)
	}
	out := make([]Result, h.Len())
	for i := range out {
		out[i] = (*h)[i]
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Q.Key() < out[j].Q.Key()
	})
	return out, stats, nil
}

// executeOne materialises and scores the results of one interpretation.
// Scoring reads db directly: it is the same snapshot the executor runs
// over.
func executeOne(db *relstore.Database, exec relstore.PlanExecutor, sc prob.Scored, scorer Scorer, limit int) ([]Result, error) {
	plan, err := sc.Q.JoinPlan()
	if err != nil {
		return nil, err
	}
	jtts, err := exec.ExecutePlan(plan, limit)
	if err != nil {
		return nil, err
	}
	results := make([]Result, 0, len(jtts))
	for _, jtt := range jtts {
		results = append(results, Result{
			Q: sc.Q, Rows: jtt.Rows, Score: sc.Score * scorer.Factor(db, plan, jtt),
		})
	}
	return results, nil
}

// heapMerger owns the bounded result heap: each interpretation's results
// are folded in rank order, keeping the k best results seen so far.
type heapMerger struct {
	h *resultHeap
	k int
}

func newHeapMerger(h *resultHeap, k int) *heapMerger {
	return &heapMerger{h: h, k: k}
}

// stop reports whether an interpretation with the given score bound (and
// therefore every later one, since bounds descend) can be skipped.
func (m *heapMerger) stop(bound float64) bool {
	return m.h.Len() >= m.k && (*m.h)[0].Score >= bound
}

// add folds one interpretation's results into the heap.
func (m *heapMerger) add(results []Result) {
	for _, r := range results {
		if m.h.Len() < m.k {
			heap.Push(m.h, r)
		} else if r.Score > (*m.h)[0].Score {
			(*m.h)[0] = r
			heap.Fix(m.h, 0)
		}
	}
}
