package query

import (
	"context"
	"sort"
	"strings"
	"sync"

	"repro/internal/invindex"
	"repro/internal/schemagraph"
)

// Candidates holds, for every keyword position of a keyword query, the
// keyword interpretations that are valid against the database: value
// matches found via the inverted index plus schema-term matches
// (Section 3.5.1). Keywords with no match anywhere are excluded from the
// construction process, as in Section 3.5.2 ("in case one of the keywords
// is misspelled or does not exist in the target database, it is excluded").
type Candidates struct {
	Keywords   []string
	PerKeyword [][]KeywordInterpretation
	// Unmatched lists keyword positions with no interpretation at all.
	Unmatched []int
}

// GenerateOptionsConfig tunes candidate generation.
type GenerateOptionsConfig struct {
	// IncludeSchemaTerms enables KindTable/KindColumn interpretations
	// (matching keywords against table and attribute names, §2.2.7).
	IncludeSchemaTerms bool
	// MaxPerKeyword caps the number of interpretations kept per keyword
	// (0 = unlimited). When capping, value interpretations with higher
	// term counts are preferred.
	MaxPerKeyword int
	// IncludeAggregates recognises aggregation keywords ("number",
	// "count", "many", "total") as COUNT operators — the analytical
	// keyword queries of Section 2.2.7.
	IncludeAggregates bool
}

// aggregateKeywords maps recognised aggregation keywords to operators.
var aggregateKeywords = map[string]string{
	"number": "count", "count": "count", "many": "count", "total": "count",
}

// GenerateCandidates computes the candidate keyword interpretations of
// every keyword against the index. It is the context-free convenience
// form of GenerateCandidatesContext.
func GenerateCandidates(ix *invindex.Index, keywords []string, cfg GenerateOptionsConfig) *Candidates {
	c, _ := GenerateCandidatesContext(context.Background(), ix, keywords, cfg)
	return c
}

// GenerateCandidatesContext is GenerateCandidates with cancellation: the
// context is checked before each keyword's index lookups, so a cancelled
// or expired request aborts candidate generation early.
func GenerateCandidatesContext(ctx context.Context, ix *invindex.Index, keywords []string, cfg GenerateOptionsConfig) (*Candidates, error) {
	c := &Candidates{Keywords: normalizeKeywords(keywords)}
	c.PerKeyword = make([][]KeywordInterpretation, len(c.Keywords))
	for pos, kw := range c.Keywords {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var kis []KeywordInterpretation
		postings := ix.Lookup(kw)
		// Sort value matches by descending count for stable capping.
		sort.Slice(postings, func(i, j int) bool {
			if postings[i].Count != postings[j].Count {
				return postings[i].Count > postings[j].Count
			}
			return postings[i].Attr.String() < postings[j].Attr.String()
		})
		for _, p := range postings {
			kis = append(kis, KeywordInterpretation{
				Pos: pos, Keyword: kw, Kind: KindValue, Attr: p.Attr,
			})
		}
		if cfg.IncludeAggregates {
			if agg, ok := aggregateKeywords[kw]; ok {
				kis = append(kis, KeywordInterpretation{
					Pos: pos, Keyword: kw, Kind: KindAggregate, Agg: agg,
				})
			}
		}
		if cfg.IncludeSchemaTerms {
			for _, tbl := range ix.MatchTables(kw) {
				kis = append(kis, KeywordInterpretation{
					Pos: pos, Keyword: kw, Kind: KindTable, Table: tbl,
				})
			}
			for _, attr := range ix.MatchColumns(kw) {
				kis = append(kis, KeywordInterpretation{
					Pos: pos, Keyword: kw, Kind: KindColumn, Attr: attr,
				})
			}
		}
		if cfg.MaxPerKeyword > 0 && len(kis) > cfg.MaxPerKeyword {
			kis = kis[:cfg.MaxPerKeyword]
		}
		if len(kis) == 0 {
			c.Unmatched = append(c.Unmatched, pos)
		}
		c.PerKeyword[pos] = kis
	}
	return c, nil
}

// MatchedPositions returns the keyword positions that have at least one
// interpretation.
func (c *Candidates) MatchedPositions() []int {
	var out []int
	for pos, kis := range c.PerKeyword {
		if len(kis) > 0 {
			out = append(out, pos)
		}
	}
	return out
}

// SpaceSize returns the product of per-keyword candidate counts over
// matched keywords — an upper bound on the number of binding combinations
// before template compatibility is applied. It saturates at maxInt/2 to
// avoid overflow on large schemas.
func (c *Candidates) SpaceSize() int {
	const cap = int(^uint(0)>>1) / 2
	size := 1
	for _, kis := range c.PerKeyword {
		if len(kis) == 0 {
			continue
		}
		if size > cap/len(kis) {
			return cap
		}
		size *= len(kis)
	}
	return size
}

func normalizeKeywords(keywords []string) []string {
	out := make([]string, len(keywords))
	for i, k := range keywords {
		out[i] = strings.ToLower(strings.TrimSpace(k))
	}
	return out
}

// Catalog is the template catalogue of a database (Section 3.5.2): the
// set of pre-computed query templates with optional usage counts from a
// query log.
type Catalog struct {
	Templates []*Template
	// UsageCount holds the query-log frequency per template ID; nil when no
	// log is available (all templates equally probable, §3.6.2).
	UsageCount map[int]int
}

// BuildCatalog enumerates templates from the schema graph up to the given
// join-path length (the automatic generation method of Section 3.5.2).
func BuildCatalog(g *schemagraph.Graph, opts schemagraph.EnumerateOptions) *Catalog {
	trees := g.EnumerateJoinTrees(opts)
	cat := &Catalog{Templates: make([]*Template, len(trees))}
	for i, tr := range trees {
		cat.Templates[i] = NewTemplate(i, tr)
	}
	return cat
}

// RecordUsage adds query-log usage counts (the log-mining method of
// Section 3.5.2).
func (c *Catalog) RecordUsage(templateID, count int) {
	if c.UsageCount == nil {
		c.UsageCount = make(map[int]int)
	}
	c.UsageCount[templateID] += count
}

// TotalUsage returns the total number of logged queries.
func (c *Catalog) TotalUsage() int {
	n := 0
	for _, v := range c.UsageCount {
		n += v
	}
	return n
}

// GenerateConfig bounds complete-interpretation enumeration.
type GenerateConfig struct {
	// MaxInterpretations caps the number of complete interpretations
	// (0 = unlimited). Enumeration visits templates in catalogue order
	// (breadth-first by size), so the cap keeps the smallest join paths.
	MaxInterpretations int
	// RequireAllKeywords demands complete interpretations bind every
	// matched keyword (AND semantics). When false, enumeration is still
	// over all matched keywords; unmatched keywords are always skipped.
	RequireAllKeywords bool
	// Parallelism shards binding enumeration across a bounded worker pool,
	// one shard per catalogue template (<= 1 runs sequentially). Shards are
	// merged in catalogue order with the same dedup and cap logic as the
	// sequential path, so the output is identical at every setting.
	Parallelism int
}

// GenerateComplete enumerates the complete query interpretations of the
// keyword query over the template catalogue (the interpretation space of
// Definition 3.5.5 restricted to matched keywords), applying the
// minimality condition of Definition 3.5.4(2). It is the context-free
// convenience form of GenerateCompleteContext.
func GenerateComplete(c *Candidates, cat *Catalog, cfg GenerateConfig) []*Interpretation {
	out, _ := GenerateCompleteContext(context.Background(), c, cat, cfg)
	return out
}

// GenerateCompleteContext is GenerateComplete with cancellation and
// optional sharded parallelism: the context is checked on entry and
// periodically inside binding enumeration, so an interpretation-space
// materialisation over a large catalogue aborts as soon as the request is
// cancelled or its deadline passes. With cfg.Parallelism > 1 templates are
// enumerated concurrently (one shard per template) and merged back in
// catalogue order, so the result is bit-identical to the sequential path.
func GenerateCompleteContext(ctx context.Context, c *Candidates, cat *Catalog, cfg GenerateConfig) ([]*Interpretation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	matched := c.MatchedPositions()
	if len(matched) == 0 {
		return nil, nil
	}
	if cfg.Parallelism > 1 && len(cat.Templates) > 1 {
		return generateParallel(ctx, c, cat, cfg, matched)
	}
	merger := newInterpretationMerger(cfg)
	for _, tpl := range cat.Templates {
		shard, err := templateInterpretations(ctx, c, matched, tpl)
		if err != nil {
			return nil, err
		}
		capped, err := merger.add(ctx, shard)
		if err != nil {
			return nil, err
		}
		if capped {
			break
		}
	}
	return merger.out, nil
}

// generateParallel shards per-template enumeration across a bounded worker
// pool and merges the shards in catalogue order as they complete (buffering
// out-of-order arrivals), applying the same dedup/cap rules as the
// sequential loop — so ordering is guaranteed independent of goroutine
// scheduling, and once the MaxInterpretations cap is satisfied all
// outstanding enumeration is cancelled instead of materialising the rest
// of the space.
func generateParallel(ctx context.Context, c *Candidates, cat *Catalog, cfg GenerateConfig, matched []int) ([]*Interpretation, error) {
	workers := cfg.Parallelism
	if workers > len(cat.Templates) {
		workers = len(cat.Templates)
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type shardResult struct {
		idx   int
		shard []*Interpretation
		err   error
	}
	next := make(chan int)
	results := make(chan shardResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				shard, err := templateInterpretations(wctx, c, matched, cat.Templates[i])
				results <- shardResult{idx: i, shard: shard, err: err}
			}
		}()
	}
	// Dispatch in a goroutine so the main loop can merge (and cancel)
	// while enumeration is still in flight; it closes results once every
	// worker has drained, which ends the merge loop below.
	go func() {
	dispatch:
		for i := range cat.Templates {
			select {
			case next <- i:
			case <-wctx.Done():
				break dispatch
			}
		}
		close(next)
		wg.Wait()
		close(results)
	}()

	merger := newInterpretationMerger(cfg)
	pending := make(map[int][]*Interpretation)
	nextIdx := 0
	capReached := false
	var firstErr error
	for r := range results {
		if capReached || firstErr != nil {
			continue // draining
		}
		if r.err != nil {
			// Enumeration only errs on context cancellation; remember it,
			// stop merging, and drain.
			firstErr = r.err
			cancel()
			continue
		}
		pending[r.idx] = r.shard
		for !capReached {
			shard, ok := pending[nextIdx]
			if !ok {
				break
			}
			delete(pending, nextIdx)
			nextIdx++
			capped, err := merger.add(ctx, shard)
			if err != nil {
				firstErr = err
				cancel()
				break
			}
			if capped {
				capReached = true
				cancel() // cap satisfied: stop outstanding enumeration
			}
		}
	}
	if capReached {
		// Identical to the sequential cap exit: shards 0..nextIdx-1 merged
		// in catalogue order until the cap filled.
		return merger.out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return merger.out, nil
}

// interpretationMerger folds per-template shards into the final
// interpretation list, deduplicating on interpretation keys and applying
// the MaxInterpretations cap — the single definition of merge order shared
// by the sequential and parallel paths.
type interpretationMerger struct {
	cfg  GenerateConfig
	seen map[string]bool
	out  []*Interpretation
}

func newInterpretationMerger(cfg GenerateConfig) *interpretationMerger {
	return &interpretationMerger{cfg: cfg, seen: make(map[string]bool)}
}

// add folds one shard in; it reports whether the cap has been reached and
// merging should stop. Keying dominates the merge of a large space, so
// the context is checked before each shard and every
// enumerateCheckEvery interpretations within it.
func (m *interpretationMerger) add(ctx context.Context, shard []*Interpretation) (capped bool, err error) {
	for i, q := range shard {
		if i%enumerateCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		key := q.Key()
		if m.seen[key] {
			continue
		}
		m.seen[key] = true
		m.out = append(m.out, q)
		if m.cfg.MaxInterpretations > 0 && len(m.out) >= m.cfg.MaxInterpretations {
			return true, nil
		}
	}
	return false, nil
}

// templateInterpretations enumerates the minimal, deduplicated-later
// interpretations of one template in deterministic order.
func templateInterpretations(ctx context.Context, c *Candidates, matched []int, tpl *Template) ([]*Interpretation, error) {
	var out []*Interpretation
	err := enumerateBindings(ctx, c, matched, tpl, func(bindings []Binding) {
		q := NewInterpretation(c.Keywords, tpl, bindings)
		if minimal(q) {
			out = append(out, q)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// enumerateCheckEvery is the number of emitted binding combinations
// between context checks during enumeration.
const enumerateCheckEvery = 512

// enumerateBindings enumerates all assignments of every matched keyword to
// a candidate interpretation compatible with the template, including the
// choice of table occurrence for self-join templates. yield borrows the
// binding slice: it must copy what it keeps (NewInterpretation does). The
// context is checked every enumerateCheckEvery emissions so even a single
// huge template shard aborts promptly on cancellation.
func enumerateBindings(ctx context.Context, c *Candidates, matched []int, tpl *Template, yield func([]Binding)) error {
	emitted := 0
	cur := make([]Binding, 0, len(matched))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(matched) {
			emitted++
			if emitted%enumerateCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			yield(cur)
			return nil
		}
		pos := matched[i]
		for _, ki := range c.PerKeyword[pos] {
			if ki.Kind == KindAggregate {
				cur = append(cur, Binding{KI: ki, Occ: -1})
				err := rec(i + 1)
				cur = cur[:len(cur)-1]
				if err != nil {
					return err
				}
				continue
			}
			occs := tpl.Occurrences(ki.TargetTable())
			for _, occ := range occs {
				cur = append(cur, Binding{KI: ki, Occ: occ})
				err := rec(i + 1)
				cur = cur[:len(cur)-1]
				if err != nil {
					return err
				}
			}
		}
		return nil
	}
	return rec(0)
}

// minimal implements Definition 3.5.4(2): no sub-structure of the query can
// be removed while leaving a valid structured query with the same keyword
// bindings. For join trees this holds iff every leaf occurrence of the
// template carries at least one binding; we apply it transitively by
// peeling free leaves.
func minimal(q *Interpretation) bool {
	tree := q.Template.Tree
	n := tree.Size()
	grounded := 0
	for _, b := range q.Bindings {
		if b.Occ >= 0 {
			grounded++
		}
	}
	if grounded == 0 {
		return false // an aggregate alone does not justify any structure
	}
	if n == 1 {
		return true
	}
	bound := make([]bool, n)
	for _, b := range q.Bindings {
		if b.Occ >= 0 {
			bound[b.Occ] = true
		}
	}
	deg := make([]int, n)
	adj := make([][]int, n)
	for _, e := range tree.TreeEdges {
		deg[e.From]++
		deg[e.To]++
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	// Peel unbound leaves; if any can be peeled the query is non-minimal.
	for i := 0; i < n; i++ {
		if deg[i] <= 1 && !bound[i] {
			return false
		}
	}
	return true
}

// FilterSegments keeps the interpretations where every segment's keyword
// positions are bound as values of the same attribute of the same table
// occurrence — the phrase constraint of query segmentation
// (Section 2.2.1): once "tom hanks" is recognised as a phrase, readings
// that scatter the two tokens across attributes are discarded. Segments
// with fewer than two positions are ignored; positions unbound in an
// interpretation are ignored (partial interpretations pass).
func FilterSegments(space []*Interpretation, segments [][]int) []*Interpretation {
	if len(segments) == 0 {
		return space
	}
	var out []*Interpretation
	for _, q := range space {
		if segmentsRespected(q, segments) {
			out = append(out, q)
		}
	}
	return out
}

func segmentsRespected(q *Interpretation, segments [][]int) bool {
	byPos := make(map[int]Binding, len(q.Bindings))
	for _, b := range q.Bindings {
		byPos[b.KI.Pos] = b
	}
	for _, seg := range segments {
		if len(seg) < 2 {
			continue
		}
		var first *Binding
		for _, pos := range seg {
			b, ok := byPos[pos]
			if !ok {
				continue
			}
			if b.KI.Kind != KindValue {
				return false
			}
			if first == nil {
				bb := b
				first = &bb
				continue
			}
			if b.KI.Attr != first.KI.Attr || b.Occ != first.Occ {
				return false
			}
		}
	}
	return true
}

// CollectOptions derives the pool of single-element query construction
// options from the interpretation space: one option per distinct keyword
// interpretation used by at least one interpretation in the space.
func CollectOptions(space []*Interpretation) []Option {
	seen := make(map[string]KeywordInterpretation)
	for _, q := range space {
		for _, b := range q.Bindings {
			seen[b.KI.Key()] = b.KI
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Option, 0, len(keys))
	for _, k := range keys {
		out = append(out, NewOption(seen[k]))
	}
	return out
}
