package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	keysearch "repro"
	"repro/httpapi"
	"repro/internal/divq"
	"repro/internal/invindex"
	"repro/internal/prob"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
	"repro/internal/topk"
)

// The per-layer ledger replays the first tracedOps ops of a workload one
// at a time, in process, against a layer chain this file assembles the
// way Engine.Build does, and records a span around every call into a
// layer. Spans are recorded here, from outside the program; the program
// itself runs with its tracing off. 600 ops let the rows.zipf hot set be
// seen often enough for the answer cache to admit and serve it.
const tracedOps = 600

// span is one timed call into a layer. Parent is -1 for a root; spans of
// one request share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced pass.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// chain is the serving stack assembled layer by layer, so that a span can
// be put around each call between layers. It implements
// keysearch.Searcher: the real httpapi handlers run on top of it.
type chain struct {
	db    *relstore.Database
	ix    *invindex.Index
	cat   *query.Catalog
	model *prob.Model
	store *qcache.Store
	// eng serves what cannot be taken apart from outside: construction
	// dialogues and durable Apply.
	eng *keysearch.Engine

	tr *tracer
	// The replay is sequential and the chain runs its stages with
	// parallelism 1, so "the span now open" is one value per level.
	op, handlerSpan, execSpan int

	n counters
	// warmStats is the answer cache's counters when the warm-up ended.
	warmStats qcache.Stats
}

// counters are the work counts taken at the same boundaries as the spans.
type counters struct {
	responseBytes, responses int
	spaceSize, ranked, ranks int
	plansExecuted            int
	materialized, returned   int
	executeCalls, countCalls int
	rowsReturned             int
	filterIn, filterOut      int
}

// newChain derives every index from db the way Engine.Build does.
func newChain(db *relstore.Database) *chain {
	db.Prepare()
	ix := invindex.Build(db)
	graph := schemagraph.FromDatabase(db)
	cat := query.BuildCatalog(graph, schemagraph.EnumerateOptions{MaxNodes: maxJoinPath})
	return &chain{db: db, ix: ix, cat: cat}
}

// reset gives the chain a cold ranking model, a cold answer cache and a
// fresh engine, so the untraced and the traced pass start from the same
// state.
func (c *chain) reset(eng *keysearch.Engine, tr *tracer) {
	c.eng = eng
	c.model = prob.New(c.ix, c.cat, prob.Config{UseCoOccurrence: true, Parallelism: 1})
	c.store = qcache.New(answerCacheBytes)
	c.tr = tr
	c.n = counters{}
}

// timedExec puts a span around every plan the executor runs.
type timedExec struct {
	c      *chain
	parent int
	inner  relstore.PlanExecutor
}

func (x *timedExec) ExecutePlan(p *relstore.JoinPlan, limit int) ([]relstore.JTT, error) {
	c := x.c
	id := c.tr.start("relstore.execute", x.parent, c.op)
	c.execSpan = id
	jtts, err := x.inner.ExecutePlan(p, limit)
	c.tr.end(id)
	c.n.executeCalls++
	c.n.rowsReturned += len(jtts)
	return jtts, err
}

func (x *timedExec) CountPlan(p *relstore.JoinPlan, limit int) (int, error) {
	c := x.c
	id := c.tr.start("relstore.count", x.parent, c.op)
	c.execSpan = id
	n, err := x.inner.CountPlan(p, limit)
	c.tr.end(id)
	c.n.countCalls++
	return n, err
}

// timedStore puts a span around every answer-cache call made from inside
// plan execution, so cache time is not counted as relstore time.
type timedStore struct {
	c     *chain
	inner relstore.SharedStore
}

func (s *timedStore) GetSelection(table string, col int, bag string) ([]int, bool) {
	id := s.c.tr.start("qcache.lookup", s.c.execSpan, s.c.op)
	defer s.c.tr.end(id)
	return s.inner.GetSelection(table, col, bag)
}

func (s *timedStore) PutSelection(table string, col int, bag string, rows []int) {
	id := s.c.tr.start("qcache.put", s.c.execSpan, s.c.op)
	defer s.c.tr.end(id)
	s.inner.PutSelection(table, col, bag, rows)
}

func (s *timedStore) GetPlan(key string) ([][]int, bool) {
	id := s.c.tr.start("qcache.lookup", s.c.execSpan, s.c.op)
	defer s.c.tr.end(id)
	return s.inner.GetPlan(key)
}

func (s *timedStore) PutPlan(key string, fp []relstore.Attr, rows [][]int) {
	id := s.c.tr.start("qcache.put", s.c.execSpan, s.c.op)
	defer s.c.tr.end(id)
	s.inner.PutPlan(key, fp, rows)
}

func (s *timedStore) GetCount(key string) (int, bool) {
	id := s.c.tr.start("qcache.lookup", s.c.execSpan, s.c.op)
	defer s.c.tr.end(id)
	return s.inner.GetCount(key)
}

func (s *timedStore) PutCount(key string, fp []relstore.Attr, n int) {
	id := s.c.tr.start("qcache.put", s.c.execSpan, s.c.op)
	defer s.c.tr.end(id)
	s.inner.PutCount(key, fp, n)
}

// executor wires one request's plan executor exactly as Engine.localExec
// does: a view of the answer cache priced by the query's estimated cost,
// behind a per-request selection cache, behind a LocalExecutor. Like the
// engine, it takes the view before the request reads any data.
func (c *chain) executor(parent int, keywords string) *timedExec {
	id := c.tr.start("invindex.estimate_cost", parent, c.op)
	cost := c.EstimateCost(keywords)
	c.tr.end(id)
	view := &timedStore{c: c, inner: c.store.NewView(cost)}
	cache := relstore.NewSelectionCacheShared(view)
	return &timedExec{c: c, parent: parent, inner: &relstore.LocalExecutor{DB: c.db, Cache: cache}}
}

// interpret is candidate generation, interpretation materialisation and
// ranking: the three stages every read request starts with.
func (c *chain) interpret(ctx context.Context, parent int, keywords string) ([]prob.Scored, error) {
	id := c.tr.start("query.candidates", parent, c.op)
	cands, err := query.GenerateCandidatesContext(ctx, c.ix, relstore.Tokenize(keywords), query.GenerateOptionsConfig{})
	c.tr.end(id)
	if err != nil {
		return nil, err
	}
	if len(cands.MatchedPositions()) == 0 {
		return nil, fmt.Errorf("no keyword of %q occurs in the database", keywords)
	}
	id = c.tr.start("query.interpret", parent, c.op)
	space, err := query.GenerateCompleteContext(ctx, cands, c.cat, query.GenerateConfig{Parallelism: 1})
	c.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = c.tr.start("prob.rank", parent, c.op)
	ranked, err := c.model.RankContext(ctx, space)
	c.tr.end(id)
	c.n.spaceSize += len(space)
	c.n.ranked += len(ranked)
	c.n.ranks++
	return ranked, err
}

// wrap fills the exported fields of keysearch.Result the way the
// engine's own wrap does; the JSON encoding is then the handler's.
func wrap(scored []prob.Scored) []keysearch.Result {
	out := make([]keysearch.Result, len(scored))
	for i, sc := range scored {
		sql, _ := sc.Q.SQL()
		out[i] = keysearch.Result{
			Query: sc.Q.String(), SQL: sql, Probability: sc.Prob, Aggregate: sc.Q.Aggregate(),
		}
		if sc.Q.Template != nil {
			out[i].Tables = append([]string(nil), sc.Q.Template.Tree.Tables...)
		}
	}
	return out
}

func (c *chain) Search(ctx context.Context, req keysearch.SearchRequest) (*keysearch.SearchResponse, error) {
	id := c.tr.start("engine", c.handlerSpan, c.op)
	defer c.tr.end(id)
	c.executor(id, req.Query) // the engine prices a view for every request, used or not
	ranked, err := c.interpret(ctx, id, req.Query)
	if err != nil {
		return nil, err
	}
	resp := &keysearch.SearchResponse{Query: req.Query, SpaceSize: len(ranked)}
	if req.K > 0 && len(ranked) > req.K {
		ranked = ranked[:req.K]
	}
	resp.Results = wrap(ranked)
	return resp, nil
}

func (c *chain) Diversify(ctx context.Context, req keysearch.DiversifyRequest) (*keysearch.SearchResponse, error) {
	id := c.tr.start("engine", c.handlerSpan, c.op)
	defer c.tr.end(id)
	exec := c.executor(id, req.Query)
	ranked, err := c.interpret(ctx, id, req.Query)
	if err != nil {
		return nil, err
	}
	resp := &keysearch.SearchResponse{Query: req.Query, SpaceSize: len(ranked)}
	if len(ranked) > 25 {
		ranked = ranked[:25]
	}
	fid := c.tr.start("divq.filter", id, c.op)
	exec.parent = fid
	nonEmpty, err := divq.FilterNonEmptyExec(ctx, exec, ranked)
	c.tr.end(fid)
	if err != nil {
		return nil, err
	}
	c.n.filterIn += len(ranked)
	c.n.filterOut += len(nonEmpty)
	did := c.tr.start("divq.diversify", id, c.op)
	div := divq.Diversify(nonEmpty, divq.Config{Lambda: req.Lambda, K: req.K})
	c.tr.end(did)
	resp.Results = wrap(div)
	return resp, nil
}

func (c *chain) SearchRows(ctx context.Context, req keysearch.RowsRequest) (*keysearch.RowsResponse, error) {
	id := c.tr.start("engine", c.handlerSpan, c.op)
	defer c.tr.end(id)
	exec := c.executor(id, req.Query)
	ranked, err := c.interpret(ctx, id, req.Query)
	if err != nil {
		return nil, err
	}
	tid := c.tr.start("topk", id, c.op)
	exec.parent = tid
	results, stats, err := topk.TopKContext(ctx, c.db, ranked, &topk.TFScorer{IX: c.ix}, topk.Options{
		K: req.K, PerInterpretationLimit: 4 * req.K, Parallelism: 1, Exec: exec,
	})
	c.tr.end(tid)
	if err != nil {
		return nil, err
	}
	c.n.plansExecuted += stats.Executed
	c.n.materialized += stats.Materialized
	c.n.returned += len(results)
	resp := &keysearch.RowsResponse{Query: req.Query}
	for _, r := range results {
		plan, err := r.Q.JoinPlan()
		if err != nil {
			return nil, err
		}
		resp.Rows = append(resp.Rows, keysearch.RowResult{
			Query: r.Q.String(), Score: r.Score, Row: planRow(c.db, plan, r.Rows),
		})
	}
	return resp, nil
}

// planRow names the columns of one joined row as the engine does:
// "table.column", with "#n" after the table for its n-th occurrence.
func planRow(db *relstore.Database, plan *relstore.JoinPlan, rowIDs []int) map[string]string {
	row := make(map[string]string)
	seen := map[string]int{}
	for i, node := range plan.Nodes {
		t := db.Table(node.Table)
		seen[node.Table]++
		prefix := node.Table
		if seen[node.Table] > 1 {
			prefix = fmt.Sprintf("%s#%d", node.Table, seen[node.Table])
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

// Apply commits the batch durably through the engine and then drops the
// chain's cached answers over the changed table, as the engine does for
// its own cache inside Apply. Every mixed.write batch inserts one actor,
// which stales the table's membership and each of its columns. The
// chain's rows stay at epoch 0: its reads are timed, not compared.
func (c *chain) Apply(ctx context.Context, muts []keysearch.Mutation) (*keysearch.ApplyResult, error) {
	id := c.tr.start("apply", c.handlerSpan, c.op)
	res, err := c.eng.Apply(ctx, muts)
	c.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = c.tr.start("qcache.invalidate", c.handlerSpan, c.op)
	c.store.Invalidate(relstore.AllTableAttrs(c.db, []string{muts[0].Table}), nil)
	c.tr.end(id)
	return res, nil
}

func (c *chain) Construct(ctx context.Context, req keysearch.ConstructRequest) (*keysearch.Construction, error) {
	return c.eng.Construct(ctx, req)
}

func (c *chain) Keywords(prefix string, limit int) []string {
	return c.ix.TermsWithPrefix(prefix, limit)
}

func (c *chain) Checkpoint(ctx context.Context) (*keysearch.CheckpointStats, error) {
	return c.eng.Checkpoint(ctx)
}

// EstimateCost sums the posting-list mass of the query's keywords, as
// Engine.EstimateCost does.
func (c *chain) EstimateCost(keywords string) int64 {
	var cost int64
	for _, tok := range relstore.Tokenize(keywords) {
		for _, p := range c.ix.Lookup(tok) {
			cost += int64(p.DocCount)
		}
	}
	return max(cost, 1)
}

func (c *chain) SampleQueries(int) []string   { return nil }
func (c *chain) Stats() keysearch.EngineStats { return c.eng.Stats() }
func (c *chain) Close() error                 { return nil }

var _ keysearch.Searcher = (*chain)(nil)

// serve runs one HTTP request through a handler in process.
func serve(h http.Handler, path string, body []byte) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", path, rec.Code, rec.Body.Bytes())
	}
	return rec, nil
}

// handle runs one request of op kind k through the chain's handler under
// a root span and returns the response body. A construct request's root
// is named for its own layer: the dialogue lives in the handler and the
// engine and cannot be taken apart from here.
func (c *chain) handle(h http.Handler, k opKind, body []byte) ([]byte, error) {
	name := "httpapi"
	if k == opConstruct {
		name = "construct"
	}
	c.handlerSpan = c.tr.start(name, -1, c.op)
	c.execSpan = c.handlerSpan
	rec, err := serve(h, kindPaths[k], body)
	c.tr.end(c.handlerSpan)
	if err != nil {
		return nil, err
	}
	c.n.responseBytes += rec.Body.Len()
	c.n.responses++
	return rec.Body.Bytes(), nil
}

// replayOp runs one op through the chain, with the steps client.do sends
// over HTTP.
func (c *chain) replayOp(h http.Handler, o op) ([]byte, error) {
	return driveOp(o, func(body []byte) ([]byte, error) { return c.handle(h, o.kind, body) })
}

// pass is one sequential replay of the traced ops.
type pass struct {
	elapsed time.Duration
	failed  int
	err     error
	bodies  [][]byte // final response body per op
}

// replay runs the workload's warm-up and then ops through the chain,
// starting from a cold model and cache. Only ops are timed, traced and
// counted. After each read op it times one prefix lookup in the term
// dictionary under its own root span: no workload sends /v1/keywords, the
// span only guards the index against a change that slows it.
func (c *chain) replay(warm, ops []op, eng *keysearch.Engine, tr *tracer) pass {
	c.reset(eng, nil)
	h := httpapi.New(c)
	for i, o := range warm {
		if _, err := c.replayOp(h, o); err != nil {
			return pass{failed: len(ops), err: fmt.Errorf("warm-up op %d: %w", i, err)}
		}
	}
	c.tr, c.n, c.warmStats = tr, counters{}, c.store.Stats()
	p := pass{bodies: make([][]byte, len(ops))}
	start := time.Now()
	for i, o := range ops {
		c.op = i
		body, err := c.replayOp(h, o)
		if err != nil {
			p.failed++
			if p.err == nil {
				p.err = fmt.Errorf("traced op %d: %w", i, err)
			}
			continue
		}
		p.bodies[i] = body
		if o.kind <= opDiversify {
			id := c.tr.start("invindex.keywords_prefix", -1, i)
			c.Keywords(queryPrefix(o.body), 20)
			c.tr.end(id)
		}
	}
	p.elapsed = time.Since(start)
	return p
}

// queryPrefix returns the first three bytes of a request's query.
func queryPrefix(body []byte) string {
	var req struct {
		Query string `json:"query"`
	}
	json.Unmarshal(body, &req) // a generated body always decodes
	return req.Query[:min(3, len(req.Query))]
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// ledgerResult is the outcome of a --trace 1 run.
type ledgerResult struct {
	attempted, failed int
	err               error
	metrics           map[string]float64
	spans             []span
}

// runLedger builds the chain and, per pass, an engine over copies of the
// dataset, replays the workload's first ops untraced and then traced,
// and folds the spans into the per-layer metrics. On a read-only
// workload every chain response must equal the engine's byte for byte:
// that is what shows the chain measures the work the engine does.
func runLedger(cfg config, stateDir string) (ledgerResult, error) {
	w, rows := cfg.w, cfg.rows
	db, err := buildDataset(rows)
	if err != nil {
		return ledgerResult{}, err
	}
	defer os.RemoveAll(stateDir)
	// Each pass gets its own engine: a mutate batch commits only once.
	newEngine := func(tag string) (*keysearch.Engine, error) {
		engDB, err := buildDataset(rows)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(stateDir, tag)
		return keysearch.NewFromDatabase(engDB, engineOptions(dir)...)
	}
	ops := w.build(db, cfg.seed, cfg.seconds)
	warm, ops := ops[:w.warmup], ops[w.warmup:]
	ops = ops[:min(len(ops), cfg.tracedOps)]
	c := newChain(db)

	eng, err := newEngine("plain")
	if err != nil {
		return ledgerResult{}, err
	}
	plain := c.replay(warm, ops, eng, nil)
	if err := eng.Close(); err != nil {
		return ledgerResult{}, err
	}
	if eng, err = newEngine("traced"); err != nil {
		return ledgerResult{}, err
	}
	defer eng.Close()
	tr := &tracer{t0: time.Now()}
	traced := c.replay(warm, ops, eng, tr)
	res := ledgerResult{attempted: len(ops), failed: traced.failed, err: traced.err, spans: tr.spans}
	if plain.failed > 0 && res.err == nil {
		res.failed, res.err = plain.failed, plain.err
	}

	if w.readOnly {
		ref := httpapi.New(eng)
		for i, o := range ops {
			if traced.bodies[i] == nil {
				continue
			}
			rec, err := serve(ref, kindPaths[o.kind], o.body)
			if err == nil && !bytes.Equal(rec.Body.Bytes(), traced.bodies[i]) {
				err = fmt.Errorf("the chain's response differs from the engine's")
			}
			if err != nil {
				res.failed++
				if res.err == nil {
					res.err = fmt.Errorf("traced op %d: %w", i, err)
				}
			}
		}
	}

	m := c.ledgerMetrics(tr.spans, warm, ops)
	m["trace_overhead_ratio"] = traced.elapsed.Seconds() / plain.elapsed.Seconds()
	if err := c.durableMetrics(m, filepath.Join(stateDir, "traced")); err != nil {
		return ledgerResult{}, err
	}
	res.metrics = m
	return res, nil
}

// durableMetrics measures what the engine's durability costs on disk,
// after the traced pass: WAL bytes per logged batch, then one forced
// checkpoint and the size of the state directory it leaves.
func (c *chain) durableMetrics(m map[string]float64, stateDir string) error {
	m["durable.wal_bytes_per_batch"] = 0
	if batches := c.eng.PendingWALBatches(); batches > 0 {
		info, err := os.Stat(filepath.Join(stateDir, "wal.log"))
		if err != nil {
			return err
		}
		m["durable.wal_bytes_per_batch"] = float64(info.Size()) / float64(batches)
	}
	start := time.Now()
	if _, err := c.eng.Checkpoint(context.Background()); err != nil {
		return err
	}
	m["durable.checkpoint_ms"] = time.Since(start).Seconds() * 1e3
	size, err := dirBytes(stateDir)
	if err != nil {
		return err
	}
	m["durable.bytes_on_disk_per_row"] = float64(size) / float64(c.eng.NumRows())
	return nil
}

// ratio is a ÷ b, 0 when b is 0.
func ratio[T int | int64 | uint64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ledgerMetrics folds the traced pass's spans and counters into the
// per-layer metrics. A name ending in _us is a mean per call in
// microseconds; one ending in _ms is a total over the traced ops.
func (c *chain) ledgerMetrics(spans []span, warmup, ops []op) map[string]float64 {
	self := selfTimes(spans)
	var (
		selfByLayer = map[string]int64{}
		durByName   = map[string]int64{}
		callsByName = map[string]int{}
		rootNS      int64
		httpSelfUS  []float64
		applyMS     []float64
	)
	// An op is warm once its request has been sent twice before: 2Q
	// admits an answer on its second sight, so the third can hit.
	sights := map[string]int{}
	for _, o := range warmup {
		sights[string(o.body)]++
	}
	warm := make([]bool, len(ops))
	for i, o := range ops {
		warm[i] = sights[string(o.body)] >= 2
		sights[string(o.body)]++
	}
	var warmRoot, warmExec int64
	executor := func(layer string) bool { return layer == "relstore" || layer == "topk" || layer == "divq" }
	for i, s := range spans {
		layer := layerOf(s.Name)
		selfByLayer[layer] += self[i]
		durByName[s.Name] += s.End - s.Start
		callsByName[s.Name]++
		if s.Parent < 0 {
			rootNS += s.End - s.Start
			if warm[s.Op] {
				warmRoot += s.End - s.Start
			}
		}
		if warm[s.Op] && executor(layer) {
			warmExec += self[i]
		}
		switch s.Name {
		case "httpapi":
			httpSelfUS = append(httpSelfUS, float64(self[i])/1e3)
		case "apply":
			applyMS = append(applyMS, float64(s.End-s.Start)/1e6)
		}
	}
	sort.Float64s(httpSelfUS)
	sort.Float64s(applyMS)
	meanUS := func(name string) float64 {
		if callsByName[name] == 0 {
			return 0
		}
		return float64(durByName[name]) / float64(callsByName[name]) / 1e3
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var selfSum int64
	for _, v := range selfByLayer {
		selfSum += v
	}
	st, base := c.store.Stats(), c.warmStats
	hits, misses := st.Hits-base.Hits, st.Misses-base.Misses
	n := c.n
	return map[string]float64{
		"ledger.ops":                  float64(len(ops)),
		"ledger.traced_ms":            ms(rootNS),
		"ledger.coverage_ratio":       ratio(selfSum, rootNS),
		"ledger.executor_share":       ratio(selfByLayer["relstore"]+selfByLayer["topk"]+selfByLayer["divq"], rootNS),
		"ledger.executor_share_warm":  ratio(warmExec, warmRoot),
		"ledger.interpret_share":      ratio(selfByLayer["query"]+selfByLayer["prob"], rootNS),
		"ledger.qcache_share":         ratio(selfByLayer["qcache"], rootNS),
		"httpapi.self_us_p50":         quantile(httpSelfUS, 0.50),
		"httpapi.self_us_p95":         quantile(httpSelfUS, 0.95),
		"httpapi.response_bytes":      ratio(n.responseBytes, n.responses),
		"engine.glue_ms":              ms(selfByLayer["engine"]),
		"query.candidates_us":         meanUS("query.candidates"),
		"query.interpret_us":          meanUS("query.interpret"),
		"query.space_size":            ratio(n.spaceSize, n.ranks),
		"prob.rank_us":                meanUS("prob.rank"),
		"prob.interpretations_ranked": ratio(n.ranked, n.ranks),
		"topk.self_ms":                ms(selfByLayer["topk"]),
		"topk.plans_executed":         float64(n.plansExecuted),
		"topk.results_per_plan":       ratio(n.returned, n.materialized),
		"relstore.execute_ms":         ms(selfByLayer["relstore"]),
		"relstore.execute_calls":      float64(n.executeCalls),
		"relstore.count_calls":        float64(n.countCalls),
		"relstore.rows_returned":      float64(n.rowsReturned),
		"divq.filter_ms":              ms(selfByLayer["divq"] - durByName["divq.diversify"]),
		"divq.diversify_us":           meanUS("divq.diversify"),
		"divq.nonempty_ratio":         ratio(n.filterOut, n.filterIn),
		"qcache.hit_ratio":            ratio(hits, hits+misses),
		"qcache.evictions":            float64(st.Evictions - base.Evictions),
		"qcache.invalidations":        float64(st.Invalidations - base.Invalidations),
		"qcache.admission_rejects":    float64(st.AdmissionRejects - base.AdmissionRejects),
		"qcache.resident_mb":          float64(st.ResidentBytes) / (1 << 20),
		"qcache.lookup_us":            meanUS("qcache.lookup"),
		"construct.ms":                ms(selfByLayer["construct"]),
		"apply.ms_p50":                quantile(applyMS, 0.50),
		"apply.ms_p95":                quantile(applyMS, 0.95),
		"invindex.estimate_cost_us":   meanUS("invindex.estimate_cost"),
		"invindex.keywords_prefix_us": meanUS("invindex.keywords_prefix"),
	}
}
