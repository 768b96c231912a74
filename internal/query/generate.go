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
	// RequireAllKeywords demands complete interpretations bind every
	// matched keyword (AND semantics). When false, enumeration is still
	// over all matched keywords; unmatched keywords are always skipped.
	RequireAllKeywords bool
	// Deprecated: ignored. Generation is sequential; the field remains
	// only so existing callers keep compiling.
	Parallelism int
}

// GenerateCompleteContext enumerates the complete query interpretations
// of the keyword query over the template catalogue (the interpretation
// space of Definition 3.5.5 restricted to matched keywords), applying the
// minimality condition of Definition 3.5.4(2). The context is checked on
// entry, before each template and every enumerateCheckEvery binding
// combinations within one, so an interpretation-space materialisation
// over a large catalogue aborts as soon as the request is cancelled or
// its deadline passes. Templates are visited in catalogue order; a
// minimal interpretation is kept unless an earlier one has the same key,
// and enumeration stops as soon as MaxInterpretations are kept.
func GenerateCompleteContext(ctx context.Context, c *Candidates, cat *Catalog, cfg GenerateConfig) ([]*Interpretation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	matched := c.MatchedPositions()
	if len(matched) == 0 {
		return nil, nil
	}
	capped := func(n int) bool { return cfg.MaxInterpretations > 0 && n >= cfg.MaxInterpretations }
	seen := make(map[string]bool)
	var out []*Interpretation
	scratch := make([]Binding, 0, len(matched))
	for _, tpl := range cat.Templates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		err := enumerateBindings(ctx, c, matched, tpl, scratch, func(bindings []Binding) bool {
			if !minimalBindings(tpl, bindings) {
				return true
			}
			q := NewInterpretation(c.Keywords, tpl, bindings)
			key := q.Key()
			if seen[key] {
				return true
			}
			seen[key] = true
			out = append(out, q)
			return !capped(len(out))
		})
		if err != nil {
			return nil, err
		}
		if capped(len(out)) {
			break
		}
	}
	return out, nil
}

// enumerateCheckEvery is the number of emitted binding combinations
// between context checks during enumeration.
const enumerateCheckEvery = 512

// enumerateBindings enumerates all assignments of every matched keyword to
// a candidate interpretation compatible with the template, including the
// choice of table occurrence for self-join templates, until yield returns
// false. The bindings are built in scratch's backing array, so a caller
// that enumerates many templates allocates it once (capacity
// len(matched)). yield borrows the binding slice: it must copy what it
// keeps (NewInterpretation does). The context is checked every
// enumerateCheckEvery emissions so even a single huge template aborts
// promptly on cancellation.
func enumerateBindings(ctx context.Context, c *Candidates, matched []int, tpl *Template, scratch []Binding, yield func([]Binding) bool) error {
	emitted := 0
	cur := scratch[:0]
	var err error
	// rec reports whether enumeration goes on: false once yield stops it
	// or a context check fails (err is then set).
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(matched) {
			emitted++
			if emitted%enumerateCheckEvery == 0 {
				if err = ctx.Err(); err != nil {
					return false
				}
			}
			return yield(cur)
		}
		kis := c.PerKeyword[matched[i]]
		for k := range kis {
			ki := &kis[k]
			if ki.Kind == KindAggregate {
				cur = append(cur, Binding{KI: *ki, Occ: -1})
				more := rec(i + 1)
				cur = cur[:len(cur)-1]
				if !more {
					return false
				}
				continue
			}
			occs := tpl.Occurrences(ki.TargetTable())
			for _, occ := range occs {
				cur = append(cur, Binding{KI: *ki, Occ: occ})
				more := rec(i + 1)
				cur = cur[:len(cur)-1]
				if !more {
					return false
				}
			}
		}
		return true
	}
	rec(0)
	return err
}

// minimalBindings implements Definition 3.5.4(2) for an interpretation
// of tpl with the given bindings, before one is allocated: no
// sub-structure of the query can be removed while leaving a valid
// structured query with the same keyword bindings. For a join tree this
// holds iff at least one binding is grounded in an occurrence (an
// aggregate alone justifies no structure) and every leaf occurrence
// (degree ≤ 1) carries a binding. One pass over the template's cached
// leaves is exact, not a first step of repeated peeling: an unbound leaf
// can be removed on its own, and when every leaf is bound no removal can
// start.
func minimalBindings(tpl *Template, bindings []Binding) bool {
	grounded := false
	for _, b := range bindings {
		if b.Occ >= 0 {
			grounded = true
			break
		}
	}
	if !grounded {
		return false
	}
	for _, leaf := range tpl.leaves {
		if !slices.ContainsFunc(bindings, func(b Binding) bool { return b.Occ == leaf }) {
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
