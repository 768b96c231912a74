package keysearch

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/divq"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/topk"
	"repro/internal/trace"
)

// SearchRequest asks for the top-k most probable structured
// interpretations of a keyword query (the IQP ranking interface). The
// same DTO drives the library API and POST /v1/search.
type SearchRequest struct {
	// Query is the keyword query; "label:keyword" tokens restrict a
	// keyword to matching attributes (Section 2.2.7).
	Query string `json:"query"`
	// K caps the number of returned interpretations (0 = all).
	K int `json:"k,omitempty"`
	// RowLimit, when positive, executes each returned interpretation and
	// attaches up to RowLimit joined rows to Result.Preview.
	RowLimit int `json:"row_limit,omitempty"`
}

// DiversifyRequest asks for the top-k relevant-and-diverse
// interpretations (the DivQ interface). The same DTO drives the library
// API and POST /v1/diversify.
type DiversifyRequest struct {
	Query string `json:"query"`
	K     int    `json:"k,omitempty"`
	// Lambda trades relevance (1) against novelty (0); it must lie in
	// [0, 1] (ErrLambdaRange otherwise).
	Lambda float64 `json:"lambda,omitempty"`
	// RowLimit, when positive, attaches result previews as in SearchRequest.
	RowLimit int `json:"row_limit,omitempty"`
}

// SearchResponse carries a ranked list of interpretations.
type SearchResponse struct {
	// Query echoes the keyword query.
	Query string `json:"query"`
	// SpaceSize is the number of interpretations materialised and ranked
	// before the top-k cut (for Diversify: before the non-empty filter).
	SpaceSize int `json:"space_size"`
	// Results are the ranked interpretations.
	Results []Result `json:"results"`
}

// Result is one structured interpretation of a keyword query. Its
// exported fields are JSON-serialisable and survive the HTTP round trip;
// the executable methods (Rows, Count) work on Results obtained directly
// from an Engine.
type Result struct {
	// Query renders the structured query in relational-algebra notation.
	Query string `json:"query"`
	// SQL is the equivalent SQL statement (the candidate-network-to-SQL
	// mapping of Section 2.2.6), rendered at wrap time; empty in the
	// (not normally reachable for materialised interpretations) case
	// that rendering fails.
	SQL string `json:"sql,omitempty"`
	// Probability is P(Q|K) normalised over the materialised space.
	Probability float64 `json:"probability"`
	// Tables lists the joined tables in join order.
	Tables []string `json:"tables"`
	// Aggregate names the aggregation operator ("count") for analytical
	// interpretations; empty for plain retrieval.
	Aggregate string `json:"aggregate,omitempty"`
	// Preview holds up to RowLimit executed rows when the request asked
	// for them (see Result.Rows for the key convention).
	Preview []map[string]string `json:"rows,omitempty"`

	q *query.Interpretation
	// snap is the snapshot the interpretation was ranked under; deferred
	// execution (Rows, Count, previews) reads it, so a result stays
	// consistent with its ranking even when mutations commit in between.
	snap *snapshot
}

// Count executes an aggregate interpretation and returns the number of
// results (also usable on plain interpretations as a cardinality probe).
func (r Result) Count() (int, error) {
	if r.q == nil {
		return 0, fmt.Errorf("keysearch: result is not executable (obtained from JSON?)")
	}
	plan, err := r.q.JoinPlan()
	if err != nil {
		return 0, err
	}
	return r.snap.db.Count(plan, 0, nil)
}

// Rows executes the interpretation and returns up to limit joined rows;
// each row maps "table.column" to the value (occurrence index appended
// for self-joins: "table#2.column").
func (r Result) Rows(limit int) ([]map[string]string, error) {
	return r.rowsExec(limit, &relstore.LocalExecutor{DB: r.snap.db})
}

// rowsExec is Rows through a request-scoped plan executor, so previews
// share the request's selection cache and answer-cache view.
func (r Result) rowsExec(limit int, exec relstore.PlanExecutor) ([]map[string]string, error) {
	if r.q == nil {
		return nil, fmt.Errorf("keysearch: result is not executable (obtained from JSON?)")
	}
	plan, err := r.q.JoinPlan()
	if err != nil {
		return nil, err
	}
	jtts, err := exec.ExecutePlan(plan, limit)
	if err != nil {
		return nil, err
	}
	var out []map[string]string
	for _, jtt := range jtts {
		out = append(out, planRow(r.snap.db, plan, jtt.Rows))
	}
	return out, nil
}

// planRow assembles one joined row from executed row IDs: "table.column"
// keys, with the occurrence index appended for self-joins
// ("table#2.column"). Shared by Result.Rows and SearchRows so the naming
// convention cannot diverge.
func planRow(db *relstore.Database, plan *relstore.JoinPlan, rowIDs []int) map[string]string {
	row := make(map[string]string)
	occSeen := map[string]int{}
	for i, node := range plan.Nodes {
		t := db.Table(node.Table)
		occSeen[node.Table]++
		prefix := node.Table
		if occSeen[node.Table] > 1 {
			prefix = fmt.Sprintf("%s#%d", node.Table, occSeen[node.Table])
		}
		tuple, ok := t.Row(rowIDs[i])
		if !ok {
			continue
		}
		for ci, col := range t.Schema.Columns {
			row[prefix+"."+col.Name] = tuple.Values[ci]
		}
	}
	return row
}

// localExec builds the plan executor for one request over its pinned
// snapshot: plans run in place with the per-request selection cache
// (unless disabled), threaded through to the engine-lifetime answer
// cache via view. Under tracing, the view is wrapped to count
// answer-cache hits and the executor to time plan execution; with
// tracing off both wraps vanish (identical values, no indirection).
func (e *Engine) localExec(ctx context.Context, s *snapshot, view relstore.SharedStore) relstore.PlanExecutor {
	tr := trace.FromContext(ctx)
	view = tracedView(view, tr)
	var cache *relstore.SelectionCache
	if !e.cfg.execCacheOff {
		cache = relstore.NewSelectionCacheShared(view)
	}
	var exec relstore.PlanExecutor = &relstore.LocalExecutor{DB: s.db, Cache: cache}
	if tr != nil {
		exec = &tracedExecutor{inner: exec, tr: tr}
	}
	return exec
}

// attachPreviews executes each result through the request's executor and
// stores up to limit rows, checking the context between executions. One
// executor is shared across all previews of the response: the returned
// interpretations recombine the same keyword selections, so each is
// computed once per request (and shared across requests through the
// answer-cache view behind the executor).
func attachPreviews(ctx context.Context, results []Result, limit int, exec relstore.PlanExecutor) error {
	if limit <= 0 {
		return nil
	}
	for i := range results {
		if err := ctx.Err(); err != nil {
			return err
		}
		rows, err := results[i].rowsExec(limit, exec)
		if err != nil {
			continue
		}
		results[i].Preview = rows
	}
	return nil
}

// Search translates the keyword query into its top-k most probable
// structured interpretations (the IQP ranking interface). The context
// cancels candidate generation, interpretation materialisation, and
// ranking.
func (e *Engine) Search(ctx context.Context, req SearchRequest) (*SearchResponse, error) {
	tr := trace.FromContext(ctx)
	view := e.answerView() // view before snapshot: see answerView
	s := e.current()
	ranked, _, err := e.interpret(ctx, s, req.Query)
	if err != nil {
		return nil, err
	}
	tr.Count("interpretations_ranked", int64(len(ranked)))
	resp := &SearchResponse{Query: req.Query, SpaceSize: len(ranked)}
	if req.K > 0 && len(ranked) > req.K {
		ranked = ranked[:req.K]
	}
	resp.Results = e.wrap(s, ranked)
	if req.RowLimit > 0 {
		sp := tr.Start("previews")
		err := attachPreviews(ctx, resp.Results, req.RowLimit, e.localExec(ctx, s, view))
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// ErrLambdaRange is returned by Diversify for a Lambda outside [0, 1],
// NaN included: DivQ's early stop is only sound on that domain (see
// divq.Config.Lambda).
var ErrLambdaRange = errors.New("keysearch: lambda must be in [0, 1]")

// Diversify returns the top-k relevant-and-diverse interpretations (the
// DivQ interface). Interpretations with empty results are dropped first,
// as in DivQ. The non-empty filter and the previews each get their own
// executor, so each phase has its own per-request selection cache.
func (e *Engine) Diversify(ctx context.Context, req DiversifyRequest) (*SearchResponse, error) {
	if !(req.Lambda >= 0 && req.Lambda <= 1) {
		return nil, fmt.Errorf("%w: got %v", ErrLambdaRange, req.Lambda)
	}
	tr := trace.FromContext(ctx)
	view := e.answerView() // view before snapshot: see answerView
	s := e.current()
	ranked, _, err := e.interpret(ctx, s, req.Query)
	if err != nil {
		return nil, err
	}
	tr.Count("interpretations_ranked", int64(len(ranked)))
	resp := &SearchResponse{Query: req.Query, SpaceSize: len(ranked)}
	if len(ranked) > 25 {
		ranked = ranked[:25]
	}
	sp := tr.Start("filter_nonempty")
	nonEmpty, err := divq.FilterNonEmptyExec(ctx, e.localExec(ctx, s, view), ranked)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Start("diversify")
	div := divq.Diversify(nonEmpty, divq.Config{Lambda: req.Lambda, K: req.K})
	sp.End()
	resp.Results = e.wrap(s, div)
	if req.RowLimit > 0 {
		sp = tr.Start("previews")
		err := attachPreviews(ctx, resp.Results, req.RowLimit, e.localExec(ctx, s, view))
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// RowsRequest asks for the k globally best concrete result rows across
// all interpretations (the top-k query processing of Section 2.2.5).
type RowsRequest struct {
	Query string `json:"query"`
	K     int    `json:"k,omitempty"`
}

// RowResult is one concrete, scored search result: a joined row produced
// by one interpretation, with its global score (interpretation
// probability × tuple relevance).
type RowResult struct {
	// Query renders the producing interpretation.
	Query string `json:"query"`
	// Score is the global result score; results are returned descending.
	Score float64 `json:"score"`
	// Row maps "table.column" to the value (see Result.Rows for the
	// self-join naming convention).
	Row map[string]string `json:"row"`
}

// RowsResponse carries globally ranked concrete rows.
type RowsResponse struct {
	Query string      `json:"query"`
	Rows  []RowResult `json:"rows"`
}

// SearchRows retrieves the k globally best concrete results across all
// interpretations of the keyword query, using threshold-style early
// stopping so low-probability interpretations are never executed.
func (e *Engine) SearchRows(ctx context.Context, req RowsRequest) (*RowsResponse, error) {
	tr := trace.FromContext(ctx)
	view := e.answerView() // view before snapshot: see answerView
	s := e.current()
	ranked, _, err := e.interpret(ctx, s, req.Query)
	if err != nil {
		return nil, err
	}
	tr.Count("interpretations_ranked", int64(len(ranked)))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := tr.Start("execute")
	results, _, err := topk.TopKContext(ctx, s.db, ranked, &topk.TFScorer{IX: s.ix}, topk.Options{
		K: req.K, PerInterpretationLimit: 4 * req.K, Exec: e.localExec(ctx, s, view),
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	resp := &RowsResponse{Query: req.Query}
	for _, r := range results {
		plan, err := r.Q.JoinPlan()
		if err != nil {
			return nil, err
		}
		resp.Rows = append(resp.Rows, RowResult{
			Query: r.Q.String(), Score: r.Score, Row: planRow(s.db, plan, r.Rows),
		})
	}
	return resp, nil
}
