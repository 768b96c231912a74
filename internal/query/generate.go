package query

import (
	"bytes"
	"cmp"
	"context"
	"slices"
	"strings"

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

// GenerateCandidatesContext computes the candidate keyword
// interpretations of every keyword against the index. The context is
// checked before each keyword's index lookups, so a cancelled or expired
// request aborts candidate generation early.
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
		slices.SortFunc(postings, func(a, b invindex.Posting) int {
			if c := cmp.Compare(b.Count, a.Count); c != 0 {
				return c
			}
			return compareAttrNames(a.Attr, b.Attr)
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

// compareAttrNames orders attributes as their "table.column" renderings
// order, rendering them into stack buffers instead of new strings.
func compareAttrNames(a, b invindex.AttrRef) int {
	var abuf, bbuf [64]byte
	an := append(append(append(abuf[:0], a.Table...), '.'), a.Column...)
	bn := append(append(append(bbuf[:0], b.Table...), '.'), b.Column...)
	return bytes.Compare(an, bn)
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
	// Deprecated: ignored. Generation is sequential; the field remains
	// only so existing callers keep compiling.
	Parallelism int
}

// GenerateCompleteContext enumerates the complete query interpretations
// of the keyword query over the template catalogue (the interpretation
// space of Definition 3.5.5 restricted to matched keywords): the minimal
// ones of Definition 3.5.4(2), and only those, since enumeration drops a
// branch as soon as it can no longer bind every leaf occurrence of its
// template. The context is checked on entry, before each template that
// has no more leaves than there are keywords, and every
// enumerateCheckEvery enumeration steps, pruned ones included, so an
// interpretation-space materialisation over a large catalogue aborts as
// soon as the request is cancelled or its deadline passes. Templates are
// visited in catalogue order, and enumeration stops as soon as
// MaxInterpretations are kept.
//
// Nothing is deduplicated: catalogue templates have distinct canonical
// forms (EnumerateJoinTrees guarantees it) and a position's candidates
// have distinct keys (GenerateCandidatesContext gives each attribute,
// table and operator once), so every emitted interpretation has its own
// key. The interpretations and their bindings
// come from a few per-call slabs; a binding points into c.PerKeyword.
func GenerateCompleteContext(ctx context.Context, c *Candidates, cat *Catalog, cfg GenerateConfig) ([]*Interpretation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var g generator
	if !g.init(ctx, c, cat, cfg.MaxInterpretations) {
		return nil, nil
	}
	for ti := range cat.Templates {
		if !g.enumerate(ti) {
			break
		}
	}
	if g.err != nil {
		return nil, g.err
	}
	return g.finish(), nil
}

// enumerateCheckEvery is the number of enumeration steps (one candidate
// placed on one occurrence, whether its branch is pruned or not) between
// context checks.
const enumerateCheckEvery = 512

// aggregateOcc is the occurrence list of an aggregate binding: it binds
// no occurrence.
var aggregateOcc = []int{-1}

// firstSlab is the number of interpretations the binding and rank slabs
// start with room for; they double from there.
const firstSlab = 16

// generator is the state of one GenerateCompleteContext call.
type generator struct {
	ctx     context.Context
	c       *Candidates
	cat     *Catalog
	matched []int32 // the positions with candidates
	max     int     // MaxInterpretations; 0 = unlimited
	// rank[off[i]+k] ranks candidate k of position matched[i] in key
	// order.
	rank  []int32
	off   []int32
	exact bool // the ranks order keys exactly
	steps int
	err   error

	// The template being enumerated, its catalogue index, and which of
	// its leaves (by index in tpl.leaves) the current branch binds.
	tpl     *Template
	ti      int
	covered []int32
	unbound int // leaves the branch leaves unbound

	// Slabs. Each emitted interpretation takes len(matched) bindings and
	// 1+len(matched) ranks: its template's catalogue index, then its
	// candidates' ranks. The branch being enumerated is built in the
	// slot past the last one emitted, so emitting it only commits it.
	bindings []Binding
	ranks    []int32
	n        int
}

// init prepares g for one call, ranking every position's candidates,
// and reports whether any position has candidates.
func (g *generator) init(ctx context.Context, c *Candidates, cat *Catalog, limit int) bool {
	*g = generator{ctx: ctx, c: c, cat: cat, max: limit, exact: true}
	m, total, widest := 0, 0, 0
	for _, kis := range c.PerKeyword {
		if len(kis) > 0 {
			m++
			total += len(kis)
			widest = max(widest, len(kis))
		}
	}
	if m == 0 {
		return false
	}
	// One array holds the matched positions, the ranks, their offsets,
	// the covered leaves and the ranking's sort scratch.
	ints := make([]int32, m+total+2*m+1+widest)
	g.matched, ints = ints[:0:m], ints[m:]
	for pos, kis := range c.PerKeyword {
		if len(kis) > 0 {
			g.matched = append(g.matched, int32(pos))
		}
	}
	g.rank, ints = ints[:total:total], ints[total:]
	g.off, ints = ints[:m+1:m+1], ints[m+1:]
	g.covered, ints = ints[:m:m], ints[m:]
	for i, pos := range g.matched {
		g.off[i+1] = g.off[i] + int32(len(c.PerKeyword[pos]))
		g.rankCandidates(c.PerKeyword[pos], g.rank[g.off[i]:g.off[i+1]], ints)
	}
	g.bindings = make([]Binding, m, (firstSlab+1)*m)
	g.ranks = make([]int32, 1+m, (firstSlab+1)*(1+m))
	return true
}

// rankCandidates writes into rank each candidate's rank over its
// "pos:keyword=kind:target@" rendering, the key segment it contributes
// before its occurrence, using scratch to sort. Equal renderings share a
// rank; one that is a proper prefix of another makes the ranks inexact.
func (g *generator) rankCandidates(kis []KeywordInterpretation, rank, scratch []int32) {
	order := scratch[:len(kis)]
	for k := range order {
		order[k] = int32(k)
	}
	var abuf, bbuf [128]byte
	render := func(buf []byte, k int32) []byte { return append(kis[k].appendKey(buf[:0]), '@') }
	slices.SortFunc(order, func(a, b int32) int {
		return bytes.Compare(render(abuf[:], a), render(bbuf[:], b))
	})
	r := int32(0)
	for i, k := range order {
		if i > 0 {
			prev, cur := render(abuf[:], order[i-1]), render(bbuf[:], k)
			if !bytes.Equal(prev, cur) {
				r++
				if bytes.HasPrefix(cur, prev) {
					g.exact = false
				}
			}
		}
		rank[k] = r
	}
}

// enumerate emits every minimal interpretation of catalogue template ti,
// and reports whether generation goes on: false at the cap or on a
// failed context check (g.err is then set). A template with no leaf
// grounds nothing, and one with more leaves than keywords has no minimal
// interpretation: both are skipped before the context check.
func (g *generator) enumerate(ti int) bool {
	tpl := g.cat.Templates[ti]
	if len(tpl.leaves) == 0 || len(tpl.leaves) > len(g.matched) {
		return true
	}
	if g.err = g.ctx.Err(); g.err != nil {
		return false
	}
	g.tpl, g.ti = tpl, ti
	clear(g.covered)
	g.unbound = len(tpl.leaves)
	return g.bind(0)
}

// bind enumerates the bindings of positions matched[i:] on g.tpl, after
// those of matched[:i] in the open slot, in candidate and then occurrence
// order. A branch is dropped as soon as its unbound leaves outnumber the
// keywords left to bind them, so every combination reaching the end
// binds every leaf: it is minimal (Definition 3.5.4(2); a template's
// leaves are its removable parts, and a bound leaf grounds it).
func (g *generator) bind(i int) bool {
	if i == len(g.matched) {
		g.emit()
		return g.max <= 0 || g.n < g.max
	}
	kis := g.c.PerKeyword[g.matched[i]]
	rank := g.rank[g.off[i]:g.off[i+1]]
	left := len(g.matched) - i - 1
	m := len(g.matched)
	for k := range kis {
		ki := &kis[k]
		occs := aggregateOcc
		if ki.Kind != KindAggregate {
			occs = g.tpl.Occurrences(ki.TargetTable())
		}
		for _, occ := range occs {
			g.steps++
			if g.steps%enumerateCheckEvery == 0 {
				if g.err = g.ctx.Err(); g.err != nil {
					return false
				}
			}
			leaf := -1
			if occ >= 0 {
				leaf = g.tpl.leafIndex[occ]
			}
			covers := leaf >= 0 && g.covered[leaf] == 0
			if covers {
				g.covered[leaf] = 1
				g.unbound--
			}
			more := true
			if g.unbound <= left {
				g.bindings[g.n*m+i] = Binding{KI: ki, Occ: occ}
				g.ranks[g.n*(m+1)+1+i] = rank[k]
				more = g.bind(i + 1)
			}
			if covers {
				g.covered[leaf] = 0
				g.unbound++
			}
			if !more {
				return false
			}
		}
	}
	return true
}

// emit commits the open slot and opens the next one with the same
// bindings, since the enumeration goes on from its prefix.
func (g *generator) emit() {
	m := len(g.matched)
	g.ranks[g.n*(m+1)] = int32(g.ti)
	g.n++
	g.bindings = append(g.bindings, g.bindings[(g.n-1)*m:g.n*m]...)
	g.ranks = append(g.ranks, g.ranks[(g.n-1)*(m+1):g.n*(m+1)]...)
}

// finish hands out the emitted interpretations, with each one's
// template index replaced by the template's rank in key order.
func (g *generator) finish() []*Interpretation {
	if g.n == 0 {
		return nil
	}
	m := len(g.matched)
	// The catalogue indexes of the templates with interpretations, in
	// visit order: each one's interpretations are consecutive.
	var buf [96]int32
	tis := buf[:0]
	for i := 0; i < g.n; i++ {
		if ti := g.ranks[i*(m+1)]; len(tis) == 0 || tis[len(tis)-1] != ti {
			tis = append(tis, ti)
		}
	}
	var scratch []int32
	if 3*len(tis) <= len(buf) {
		scratch = buf[len(tis) : 3*len(tis)]
	} else {
		scratch = make([]int32, 2*len(tis))
	}
	rank := g.rankTemplates(tis, scratch)
	interps := make([]Interpretation, g.n)
	out := make([]*Interpretation, g.n)
	var first *Interpretation
	if g.exact {
		first = &interps[0]
	}
	run := 0
	for i := range interps {
		q := &interps[i]
		q.Keywords = g.c.Keywords
		q.Bindings = g.bindings[i*m : (i+1)*m : (i+1)*m]
		q.ranks = g.ranks[i*(m+1) : (i+1)*(m+1) : (i+1)*(m+1)]
		if q.ranks[0] != tis[run] {
			run++
		}
		q.Template = g.cat.Templates[q.ranks[0]]
		q.ranks[0] = rank[run]
		q.first = first
		out[i] = q
	}
	return out
}

// rankTemplates ranks the catalogue templates tis over their canonical
// forms followed by '|', the key prefix they contribute, in the second
// half of scratch (2*len(tis) long). Equal forms share a rank; one that
// is a proper prefix of another makes the ranks inexact.
func (g *generator) rankTemplates(tis, scratch []int32) []int32 {
	n := len(tis)
	order, rank := scratch[:n], scratch[n:2*n]
	for k := range order {
		order[k] = int32(k)
	}
	canon := func(k int32) string { return g.cat.Templates[tis[k]].canonical }
	slices.SortFunc(order, func(a, b int32) int { return compareTerminated(canon(a), canon(b), '|') })
	r := int32(0)
	for i, k := range order {
		if i > 0 {
			prev, cur := canon(order[i-1]), canon(k)
			if prev != cur {
				r++
				if len(prev) < len(cur) && cur[len(prev)] == '|' && strings.HasPrefix(cur, prev) {
					g.exact = false
				}
			}
		}
		rank[k] = r
	}
	return rank
}

// compareTerminated compares a+term with b+term without building them.
func compareTerminated(a, b string, term byte) int {
	n := min(len(a), len(b))
	if c := strings.Compare(a[:n], b[:n]); c != 0 {
		return c
	}
	switch {
	case len(a) == len(b):
		return 0
	case len(a) < len(b):
		return cmp.Compare(term, b[n])
	default:
		return cmp.Compare(a[n], term)
	}
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
	for _, seg := range segments {
		if len(seg) < 2 {
			continue
		}
		var first *Binding
		for _, pos := range seg {
			b := q.bindingAt(pos)
			if b == nil {
				continue
			}
			if b.KI.Kind != KindValue {
				return false
			}
			if first == nil {
				first = b
				continue
			}
			if b.KI.Attr != first.KI.Attr || b.Occ != first.Occ {
				return false
			}
		}
	}
	return true
}

// bindingAt returns the binding of keyword position pos, or nil when
// pos is unbound. Bindings are sorted by position, so the walk stops at
// the first binding past pos.
func (q *Interpretation) bindingAt(pos int) *Binding {
	for i := range q.Bindings {
		switch p := q.Bindings[i].KI.Pos; {
		case p == pos:
			return &q.Bindings[i]
		case p > pos:
			return nil
		}
	}
	return nil
}
