// Package keysearch is a keyword-search engine for relational data that
// reproduces the system family of "Usability and Expressiveness in
// Database Keyword Search: Bridging the Gap" (Demidova, VLDB 2009 PhD
// workshop / 2013 thesis):
//
//   - probability-ranked translation of keyword queries into structured
//     queries (IQP ranking, Chapter 3),
//   - incremental interactive query construction with information-gain
//     question selection (IQP construction, Chapter 3),
//   - diversification of query interpretations balancing relevance and
//     novelty (DivQ, Chapter 4), and
//   - ontology-accelerated construction over very large schemas (FreeQ,
//     Chapter 5), with instance-overlap ontology-to-schema matching
//     (YAGO+F, Chapter 6).
//
// # The Engine API
//
// An Engine is built from a schema definition plus rows, configured with
// functional options. After Build it is immutable and safe for concurrent
// use: one built Engine serves any number of goroutines. All query entry
// points are context-first and exchange JSON-serialisable Request /
// Response DTOs, so the same types drive the library, the command-line
// tools, and the HTTP front-end in package repro/httpapi:
//
//	eng, _ := keysearch.New(schema, keysearch.WithMaxJoinPath(4))
//	eng.Insert("actor", "a1", "Tom Hanks")
//	...
//	eng.Build()
//	resp, _ := eng.Search(ctx, keysearch.SearchRequest{Query: "hanks terminal", K: 5})
//	for _, r := range resp.Results { fmt.Println(r.Probability, r.Query) }
//
// Cancellation and deadlines propagate into the expensive inner loops —
// candidate generation, interpretation materialisation, and probabilistic
// ranking — so an abandoned request stops computing.
//
// Interactive construction (Construct) returns a Construction session
// object; the HTTP front-end wraps it behind server-side session IDs with
// TTL eviction, turning the stateful dialogue into a stateless-client
// protocol.
package keysearch

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/invindex"
	"repro/internal/prob"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
	"repro/internal/trace"
)

// Column defines one attribute of a table. Text marks attributes indexed
// for keyword search.
type Column struct {
	Name string
	Text bool
}

// ForeignKey declares Column → RefTable.RefColumn.
type ForeignKey struct {
	Column    string
	RefTable  string
	RefColumn string
}

// Table defines one relation of the schema.
type Table struct {
	Name        string
	Columns     []Column
	PrimaryKey  string
	ForeignKeys []ForeignKey
}

// config collects the tunables set by the functional options.
type config struct {
	maxJoinPath        int
	maxTemplates       int
	useCoOccurrence    bool
	includeSchemaTerms bool
	segmentPhrases     bool
	enableAggregates   bool
	answerCacheBytes   int64
	mutable            bool

	// Durability tunables (see durability.go). durDir empty = memory-only.
	durDir             string
	checkpointInterval time.Duration
	checkpointBatches  int
}

// Option configures an Engine at construction time.
type Option func(*config)

// WithMaxJoinPath bounds query-template length (default 4, the setting of
// the thesis's experiments; at most maxJoinPathLimit).
func WithMaxJoinPath(n int) Option {
	return func(c *config) { c.maxJoinPath = n }
}

// WithMaxTemplates caps automatic template generation (0 = unlimited).
func WithMaxTemplates(n int) Option {
	return func(c *config) { c.maxTemplates = n }
}

// WithCoOccurrence enables the DivQ co-occurrence relevance refinement:
// keywords co-occurring in one attribute value (e.g. a first and last
// name) promote interpretations binding them together (Equation 4.2).
func WithCoOccurrence() Option {
	return func(c *config) { c.useCoOccurrence = true }
}

// WithSchemaTerms matches keywords against table and column names too
// (the schema-term interpretations of Section 2.2.7).
func WithSchemaTerms() Option {
	return func(c *config) { c.includeSchemaTerms = true }
}

// segmentThreshold is the phrase-pair score cut-off of query
// segmentation (see WithSegmentPhrases).
const segmentThreshold = 0.8

// WithSegmentPhrases enables query segmentation (Section 2.2.1): adjacent
// keywords that almost always co-occur in one attribute value (e.g. a
// first and last name) are treated as a phrase and must bind to the same
// attribute. A pair is a phrase when its score reaches segmentThreshold.
func WithSegmentPhrases() Option {
	return func(c *config) { c.segmentPhrases = true }
}

// WithAggregates recognises aggregation keywords ("number", "count",
// "many", "total") as COUNT operators, enabling analytical keyword
// queries such as "number of movies with tom hanks" (Section 2.2.7).
func WithAggregates() Option {
	return func(c *config) { c.enableAggregates = true }
}

// WithAnswerCache enables the engine-lifetime materialized answer cache
// (internal/qcache) with the given byte budget; budgetBytes <= 0 keeps
// it disabled (the default). The cache promotes hot keyword-bag
// selections, candidate-network results, and interpretation counts from
// the per-request selection cache into a shared store, so repeated
// queries skip plan execution entirely. A unit is admitted the second
// time it is computed (2Q ghost admission), and a full budget evicts the
// least recently used units first. Mutation batches incrementally
// invalidate only the entries whose (table, column) footprint they
// touch, and a durable engine persists the surviving hot set at
// checkpoint so Open restarts warm.
// Caching never changes results — responses are byte-identical with the
// cache on or off (see docs/qcache.md).
func WithAnswerCache(budgetBytes int64) Option {
	return func(c *config) { c.answerCacheBytes = budgetBytes }
}

// WithDurability persists the engine under dir: Build writes an initial
// snapshot there (and truncates any stale mutation log), every Apply
// batch is appended to a write-ahead log before its snapshot is
// published, and a background policy (see WithCheckpointPolicy)
// checkpoints the state — a fresh snapshot file, a truncated WAL, and
// tombstone compaction of churned tables. Use Open to recover the
// engine from dir after a restart (latest snapshot + WAL tail replay).
// See docs/persistence.md for the on-disk formats and crash semantics.
func WithDurability(dir string) Option {
	return func(c *config) { c.durDir = dir }
}

// WithCheckpointPolicy tunes background checkpointing of a durable
// engine: a checkpoint runs when the WAL holds batches and interval has
// elapsed, or as soon as batches accumulate past the batch bound.
// Non-positive arguments keep the defaults (30s, 256 batches).
func WithCheckpointPolicy(interval time.Duration, batches int) Option {
	return func(c *config) {
		c.checkpointInterval = interval
		c.checkpointBatches = batches
	}
}

// WithMutations enables live row mutations: Engine.Apply accepts
// insert/update/delete batches after Build, incrementally maintaining
// every index and statistic and publishing each batch as a new immutable
// snapshot (see Apply for the isolation contract). Without this option
// the engine keeps its frozen-after-Build contract and Apply returns
// ErrMutationsDisabled.
func WithMutations() Option {
	return func(c *config) { c.mutable = true }
}

// maxJoinPathLimit is the longest template length an engine builds or
// opens. Template enumeration grows about 2.5–3× per step on the movies
// schema (1 066 templates at 7), so a longer bound, set by an option or
// read from a snapshot's meta, would keep Build or OpenSnapshot
// enumerating for hours. Build and OpenSnapshot refuse the same values,
// so every snapshot a build can save opens.
const maxJoinPathLimit = 8

// checkJoinPath refuses a join-path bound above maxJoinPathLimit.
func checkJoinPath(n int) error {
	if n > maxJoinPathLimit {
		return fmt.Errorf("keysearch: join-path bound %d exceeds the limit %d", n, maxJoinPathLimit)
	}
	return nil
}

func newConfig(opts []Option) config {
	cfg := config{maxJoinPath: 4}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxJoinPath <= 0 {
		cfg.maxJoinPath = 4
	}
	if cfg.checkpointInterval <= 0 {
		cfg.checkpointInterval = 30 * time.Second
	}
	if cfg.checkpointBatches <= 0 {
		cfg.checkpointBatches = 256
	}
	return cfg
}

// snapshot is one immutable, self-consistent view of the engine: the
// database, the inverted index, the schema graph, the template
// catalogue, and the ranking model, all derived from the same row set.
// Every request pins exactly one snapshot for its whole lifetime, so a
// mutation batch committing mid-request can never tear a response.
// Snapshots are never modified after publication — Apply builds the next
// one copy-on-write and swaps the engine's pointer atomically.
type snapshot struct {
	epoch uint64
	db    *relstore.Database
	ix    *invindex.Index
	graph *schemagraph.Graph
	cat   *query.Catalog
	model *prob.Model
}

// Engine is a keyword-search engine over one database.
//
// Lifecycle: New → Insert rows → Build → serve. Before Build the Engine
// is a single-goroutine loader; after Build it is safe for unlimited
// concurrent Search / Diversify / SearchRows / Construct
// calls (each Construction session itself belongs to one client, but any
// number of sessions may run concurrently).
//
// By default the engine is immutable after Build. With WithMutations,
// Engine.Apply accepts live insert/update/delete batches: each batch is
// folded copy-on-write into a new snapshot that is published with one
// atomic pointer swap, while every in-flight request keeps reading the
// snapshot it pinned on entry (snapshot isolation; readers never block
// writers and vice versa).
type Engine struct {
	cfg   config
	db    *relstore.Database // loading-phase database; snapshot 0 adopts it at Build
	built bool

	// snap is the current published snapshot (nil before Build).
	snap atomic.Pointer[snapshot]
	// applyMu serialises writers: at most one Apply (or Checkpoint)
	// builds the next snapshot at a time, always forking from the latest
	// one.
	applyMu sync.Mutex

	// qc is the engine-lifetime answer cache (nil when disabled); see
	// WithAnswerCache and internal/qcache. Snapshot publication of a
	// mutation batch happens inside qc's critical section (publish), so
	// cached answers can never be served to, or accepted from, a request
	// on the wrong side of the batch.
	qc *qcache.Store

	// dur is the durability runtime (nil for a memory-only engine); see
	// durability.go.
	dur *durState
}

// current returns the published snapshot (nil before Build). Callers
// load it once per request and use only that view throughout.
func (e *Engine) current() *snapshot { return e.snap.Load() }

// New creates an Engine with the given schema.
func New(tables []Table, opts ...Option) (*Engine, error) {
	cfg := newConfig(opts)
	if err := checkJoinPath(cfg.maxJoinPath); err != nil {
		return nil, err
	}
	db := relstore.NewDatabase("keysearch")
	for _, t := range tables {
		schema := &relstore.TableSchema{
			Name:       t.Name,
			PrimaryKey: t.PrimaryKey,
		}
		for _, c := range t.Columns {
			schema.Columns = append(schema.Columns, relstore.Column{Name: c.Name, Indexed: c.Text})
		}
		for _, fk := range t.ForeignKeys {
			schema.ForeignKeys = append(schema.ForeignKeys, relstore.ForeignKey{
				Column: fk.Column, RefTable: fk.RefTable, RefColumn: fk.RefColumn,
			})
		}
		if _, err := db.CreateTable(schema); err != nil {
			return nil, fmt.Errorf("keysearch: %w", err)
		}
	}
	if err := db.ValidateRefs(); err != nil {
		return nil, fmt.Errorf("keysearch: %w", err)
	}
	return &Engine{cfg: cfg, db: db}, nil
}

// fromDatabase wraps an existing internal database (used by the bundled
// demo datasets).
func fromDatabase(db *relstore.Database, opts ...Option) *Engine {
	return &Engine{cfg: newConfig(opts), db: db}
}

// Insert adds one row. Rows may only be inserted before Build, from a
// single goroutine.
func (e *Engine) Insert(table string, values ...string) error {
	if e.built {
		return fmt.Errorf("keysearch: engine already built; inserts are not allowed")
	}
	t := e.db.Table(table)
	if t == nil {
		return fmt.Errorf("keysearch: unknown table %s", table)
	}
	_, err := t.Insert(values...)
	return err
}

// Build indexes the data and generates the query-template catalogue.
// It must be called once after loading and before any search; the Build
// call must happen-before any concurrent use of the Engine (start your
// server goroutines after Build returns). After Build the Engine's
// shared state only changes through Apply's atomic snapshot swaps, which
// is what makes it race-free.
func (e *Engine) Build() error {
	if e.built {
		return fmt.Errorf("keysearch: already built")
	}
	if err := checkJoinPath(e.cfg.maxJoinPath); err != nil {
		return err
	}
	e.db.Prepare() // posting lists + join indexes, built once up front
	ix := invindex.Build(e.db)
	graph := schemagraph.FromDatabase(e.db)
	cat := query.BuildCatalog(graph, schemagraph.EnumerateOptions{
		MaxNodes: e.cfg.maxJoinPath,
		MaxTrees: e.cfg.maxTemplates,
	})
	s := &snapshot{
		db:    e.db,
		ix:    ix,
		graph: graph,
		cat:   cat,
		model: e.newModel(ix, cat),
	}
	if e.cfg.answerCacheBytes > 0 {
		e.qc = qcache.New(e.cfg.answerCacheBytes)
	}
	e.snap.Store(s)
	e.built = true
	if e.cfg.durDir != "" {
		// A durable Build starts the state directory fresh: snapshot
		// epoch 0 on disk, any stale mutation log truncated. Recovery of
		// an existing directory goes through Open instead.
		if err := e.initDurability(); err != nil {
			e.snap.Store(nil)
			e.built = false
			return err
		}
	}
	return nil
}

// newModel builds the ranking model for a snapshot. Build and Apply both
// use it, so an incrementally maintained snapshot configures its model —
// including the recomputed smoothing floor Pu — exactly as a fresh build
// over the same rows would.
func (e *Engine) newModel(ix *invindex.Index, cat *query.Catalog) *prob.Model {
	return prob.New(ix, cat, prob.Config{UseCoOccurrence: e.cfg.useCoOccurrence})
}

// NumTables returns the number of tables.
func (e *Engine) NumTables() int { return e.db.NumTables() }

// NumRows returns the number of live rows in the current snapshot.
func (e *Engine) NumRows() int {
	if s := e.current(); s != nil {
		return s.db.NumRows()
	}
	return e.db.NumRows()
}

// NumTemplates returns the number of query templates (0 before Build).
func (e *Engine) NumTemplates() int {
	s := e.current()
	if s == nil {
		return 0
	}
	return len(s.cat.Templates)
}

// AnswerCacheStats is a point-in-time snapshot of the answer cache's
// counters, mirrored into /healthz by the HTTP layer.
type AnswerCacheStats struct {
	BudgetBytes    int64
	ResidentBytes  int64
	HighWaterBytes int64
	Entries        int

	Hits             uint64
	Misses           uint64
	Evictions        uint64
	Invalidations    uint64
	StalePutRejects  uint64
	AdmissionRejects uint64
}

// AnswerCacheStats returns the answer cache's counters; ok is false when
// the cache is disabled.
func (e *Engine) AnswerCacheStats() (stats AnswerCacheStats, ok bool) {
	if e.qc == nil {
		return AnswerCacheStats{}, false
	}
	s := e.qc.Stats()
	return AnswerCacheStats{
		BudgetBytes:      s.BudgetBytes,
		ResidentBytes:    s.ResidentBytes,
		HighWaterBytes:   s.HighWaterBytes,
		Entries:          s.Entries,
		Hits:             s.Hits,
		Misses:           s.Misses,
		Evictions:        s.Evictions,
		Invalidations:    s.Invalidations,
		StalePutRejects:  s.StalePutRejects,
		AdmissionRejects: s.AdmissionRejects,
	}, true
}

// answerView opens this request's handle on the answer cache. It
// returns an explicit nil interface when the cache is disabled.
// ORDER MATTERS: callers must obtain the view BEFORE loading the
// snapshot with current() — the view's clock capture preceding the
// snapshot load is what makes cache validity checks conservative (see
// internal/qcache).
func (e *Engine) answerView() relstore.SharedStore {
	if e.qc == nil {
		return nil
	}
	return e.qc.NewView(0)
}

// publish makes next the engine's current snapshot. When the answer
// cache is on, the pointer swap happens inside the cache's invalidation
// critical section with the batch's stale attributes, so no request can
// observe the new snapshot while stale entries are still servable (or
// publish stale entries afterwards). Callers must hold applyMu.
func (e *Engine) publish(next *snapshot, stale []relstore.Attr) {
	if e.qc == nil {
		e.snap.Store(next)
		return
	}
	e.qc.Invalidate(stale, func() { e.snap.Store(next) })
}

// parse tokenises a keyword query string.
func parse(keywords string) []string {
	return relstore.Tokenize(keywords)
}

// candidatesFor tokenises the query (honouring "label:keyword" syntax,
// Section 2.2.7) and generates the per-keyword candidates against one
// pinned snapshot.
func (e *Engine) candidatesFor(ctx context.Context, s *snapshot, keywords string) (*query.Candidates, [][]int, error) {
	if s == nil {
		return nil, nil, fmt.Errorf("keysearch: call Build before searching")
	}
	toks, labels := parseLabeled(keywords)
	if len(toks) == 0 {
		return nil, nil, fmt.Errorf("keysearch: empty keyword query")
	}
	c, err := query.GenerateCandidatesContext(ctx, s.ix, toks, query.GenerateOptionsConfig{
		IncludeSchemaTerms: e.cfg.includeSchemaTerms,
		IncludeAggregates:  e.cfg.enableAggregates,
	})
	if err != nil {
		return nil, nil, err
	}
	applyLabels(c, labels)
	if !slices.ContainsFunc(c.PerKeyword, func(kis []query.KeywordInterpretation) bool { return len(kis) > 0 }) {
		return nil, nil, fmt.Errorf("keysearch: no keyword of %q occurs in the database", keywords)
	}
	var segments [][]int
	if e.cfg.segmentPhrases {
		segments = detectSegments(s.ix, toks, labels)
	}
	return c, segments, nil
}

// maxQueryKeywords bounds the keywords of a ranked query (Search,
// Diversify, SearchRows). The interpretation space grows exponentially
// with them: on the demo movie dataset 5 keywords make 1 474
// interpretations, 6 make 5 346 and 8 make 86 448, and 10 take tens of
// seconds of one core. Query construction, built for longer queries,
// is not bounded.
const maxQueryKeywords = 6

// ErrTooManyKeywords is returned for a ranked query with more than
// maxQueryKeywords keywords, counted as the engine tokenises them.
var ErrTooManyKeywords = fmt.Errorf("keysearch: too many keywords (at most %d)", maxQueryKeywords)

// interpret materialises and ranks the interpretation space over one
// pinned snapshot, honouring context cancellation in every expensive
// phase.
func (e *Engine) interpret(ctx context.Context, s *snapshot, keywords string) ([]prob.Scored, *query.Candidates, error) {
	tr := trace.FromContext(ctx)
	sp := tr.Start("parse")
	c, segments, err := e.candidatesFor(ctx, s, keywords)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	if len(c.Keywords) > maxQueryKeywords {
		return nil, nil, fmt.Errorf("%w: %q has %d", ErrTooManyKeywords, keywords, len(c.Keywords))
	}
	sp = tr.Start("interpret")
	space, err := query.GenerateCompleteContext(ctx, c, s.cat, query.GenerateConfig{})
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	space = query.FilterSegments(space, segments)
	sp.End()
	tr.Count("interpretation_space", int64(len(space)))
	sp = tr.Start("rank")
	ranked, err := s.model.RankContext(ctx, space)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	return ranked, c, nil
}

// wrap converts scored interpretations to public results bound to the
// snapshot they were ranked under, so deferred execution (Rows, Count,
// previews) reads the same view that produced the ranking.
func (e *Engine) wrap(s *snapshot, scored []prob.Scored) []Result {
	out := make([]Result, len(scored))
	for i, sc := range scored {
		sql, _ := sc.Q.SQL()
		out[i] = Result{
			Query:       sc.Q.String(),
			SQL:         sql,
			Probability: sc.Prob,
			Tables:      tablesOf(sc.Q),
			Aggregate:   sc.Q.Aggregate(),
			q:           sc.Q,
			snap:        s,
		}
	}
	return out
}

func tablesOf(q *query.Interpretation) []string {
	if q.Template == nil {
		return nil
	}
	out := make([]string, len(q.Template.Tree.Tables))
	copy(out, q.Template.Tree.Tables)
	return out
}

// Keywords returns the sorted distinct tokens of the indexed data that
// match the given prefix — autocomplete-style exploration. It serves from
// the inverted index's sorted term dictionary (O(log |V| + answer)), so
// it never re-scans the data and is safe to expose on a hot service
// endpoint.
func (e *Engine) Keywords(prefix string, limit int) []string {
	s := e.current()
	if s == nil {
		return nil
	}
	return s.ix.TermsWithPrefix(prefix, limit)
}
