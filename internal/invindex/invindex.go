// Package invindex implements the inverted index over the textual content
// of a relational database (Section 2.2.1, Figure 2.1) together with the
// term statistics consumed by the probabilistic interpretation model
// (Section 3.6.2) and by the TF-IDF baselines (Section 2.2.4):
//
//   - attribute-granularity postings: term → {table.column} with counts,
//   - per-attribute unigram statistics: term frequency, vocabulary size,
//     total token count (for ATF, Equation 3.8),
//   - document frequency / inverse document frequency per attribute, where
//     a "document" is one attribute value of one tuple,
//   - pairwise co-occurrence counts used by DivQ's co-occurrence-aware
//     relevance model (Equation 4.2),
//   - the sorted term dictionary behind keyword completion, and
//   - schema-term matching (keywords against table and column names).
//
// The index is one structure with the storage engine's keyword
// selections: every statistic is read from relstore's per-column token
// postings (relstore.ColumnPostings), which also answer σ_{k∈A}. An
// index holds no per-term state of its own beyond the dictionary, and
// no tuple-granularity postings: the rows containing a term are the
// selection's to find. An index version is immutable; row mutations
// derive a successor (apply.go) that re-resolves its column handles and
// patches the dictionary.
package invindex

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/relstore"
)

// AttrRef names one textual attribute of the database.
type AttrRef struct {
	Table  string
	Column string
}

// String renders the reference as "table.column".
func (a AttrRef) String() string { return a.Table + "." + a.Column }

// Posting records the occurrences of a term inside one attribute.
type Posting struct {
	Attr AttrRef
	// Count is the total number of occurrences of the term across all
	// values of the attribute.
	Count int
	// DocCount is the number of tuples whose attribute value contains the
	// term at least once (the attribute-level document frequency).
	DocCount int
}

// column is one attribute's handle on its table and token postings in
// one database version, with the postings' vocabulary size counted once
// for ATF.
type column struct {
	table *relstore.Table
	post  *relstore.ColumnPostings
	vocab int
}

// Index is an immutable inverted index over a database.
type Index struct {
	attrs   []AttrRef       // all indexed attributes, stable order
	byKey   []int           // positions in attrs, ascending by "table.column"
	attrPos map[AttrRef]int // attribute -> position in attrs
	// cols is parallel to attrs, resolved against this version's database.
	cols []column

	// schemaTerms: token -> schema elements whose name contains the token.
	schemaTables  map[string][]string
	schemaColumns map[string][]AttrRef

	// dict is the sorted dictionary of every distinct indexed term, kept
	// so prefix lookups never re-scan the data.
	dict dictionary
}

// Build constructs the inverted index over every indexed (textual) column
// of every table in the database. It tokenizes schema names only: the
// column postings it reads are relstore's (built on first use when
// Database.Prepare has not run).
func Build(db *relstore.Database) *Index {
	ix := &Index{
		attrPos:       make(map[AttrRef]int),
		schemaTables:  make(map[string][]string),
		schemaColumns: make(map[string][]AttrRef),
	}
	for _, t := range db.Tables() {
		for _, tok := range relstore.Tokenize(t.Schema.Name) {
			ix.schemaTables[tok] = append(ix.schemaTables[tok], t.Schema.Name)
		}
		for _, col := range t.Schema.Columns {
			if !col.Indexed {
				continue
			}
			attr := AttrRef{Table: t.Schema.Name, Column: col.Name}
			ix.attrPos[attr] = len(ix.attrs)
			ix.byKey = append(ix.byKey, len(ix.attrs))
			ix.attrs = append(ix.attrs, attr)
			for _, tok := range relstore.Tokenize(col.Name) {
				ix.schemaColumns[tok] = append(ix.schemaColumns[tok], attr)
			}
		}
	}
	slices.SortFunc(ix.byKey, func(a, b int) int { return cmp.Compare(ix.attrs[a].String(), ix.attrs[b].String()) })
	ix.cols = resolve(db, ix.attrs)
	var terms []string
	for _, c := range ix.cols {
		terms = slices.AppendSeq(terms, c.post.Terms())
	}
	slices.Sort(terms)
	ix.dict = newDictionary(slices.Compact(terms))
	return ix
}

// resolve returns each attribute's handle in db.
func resolve(db *relstore.Database, attrs []AttrRef) []column {
	cols := make([]column, len(attrs))
	for i, a := range attrs {
		t := db.Table(a.Table)
		post := t.Postings(a.Column)
		cols[i] = column{table: t, post: post, vocab: post.Vocabulary()}
	}
	return cols
}

// col returns the attribute's handle, or nil when it is not an indexed
// attribute.
func (ix *Index) col(attr AttrRef) *column {
	if i, ok := ix.attrPos[attr]; ok {
		return &ix.cols[i]
	}
	return nil
}

// has reports whether the term occurs in any indexed attribute.
func (ix *Index) has(term string) bool {
	for _, c := range ix.cols {
		if _, rows := c.post.Term(term); rows > 0 {
			return true
		}
	}
	return false
}

// Attributes returns every indexed attribute in a stable order.
func (ix *Index) Attributes() []AttrRef {
	out := make([]AttrRef, len(ix.attrs))
	copy(out, ix.attrs)
	return out
}

// Lookup returns the postings of a term across all attributes, sorted by
// attribute key for determinism. The term is lower-cased before lookup.
func (ix *Index) Lookup(term string) []Posting {
	term = normalize(term)
	var out []Posting
	for _, i := range ix.byKey {
		if count, rows := ix.cols[i].post.Term(term); rows > 0 {
			out = append(out, Posting{Attr: ix.attrs[i], Count: count, DocCount: rows})
		}
	}
	return out
}

// TermsWithPrefix returns up to limit distinct indexed terms starting with
// prefix, in lexicographic order (limit <= 0 means unlimited). It serves
// from the sorted term dictionary by binary search, so a lookup costs
// O(log |V| + answer) instead of re-scanning every indexed row.
func (ix *Index) TermsWithPrefix(prefix string, limit int) []string {
	return ix.dict.withPrefix(prefix, limit)
}

// TermCount returns the raw number of occurrences of term in attr.
func (ix *Index) TermCount(term string, attr AttrRef) int {
	c := ix.col(attr)
	if c == nil {
		return 0
	}
	count, _ := c.post.Term(normalize(term))
	return count
}

// DocCount returns the number of tuples of attr whose value contains term.
func (ix *Index) DocCount(term string, attr AttrRef) int {
	c := ix.col(attr)
	if c == nil {
		return 0
	}
	_, rows := c.post.Term(normalize(term))
	return rows
}

// AttrTokens returns the total number of tokens stored in attr.
func (ix *Index) AttrTokens(attr AttrRef) int {
	c := ix.col(attr)
	if c == nil {
		return 0
	}
	return c.post.Tokens()
}

// AttrVocabulary returns the number of distinct terms stored in attr.
func (ix *Index) AttrVocabulary(attr AttrRef) int {
	c := ix.col(attr)
	if c == nil {
		return 0
	}
	return c.vocab
}

// AttrDocs returns the number of tuples (attribute values) of attr.
func (ix *Index) AttrDocs(attr AttrRef) int {
	c := ix.col(attr)
	if c == nil {
		return 0
	}
	return c.table.NumLive()
}

// ATF is the Attribute Term Frequency of Equation 3.8: a smoothed estimate
// of P(σ_{k∈A}(Table):k | σ_{?∈A}(Table)) — the probability that the random
// process of picking an instance of A and picking a keyword from it yields
// k. We use Laplace (add-alpha) smoothing over the attribute's unigram
// distribution:
//
//	ATF(k, A) = (count(k, A) + alpha) / (tokens(A) + alpha * (|V_A| + 1))
//
// which is the maximum-likelihood model of the thesis with its smoothing
// parameter alpha (typically 1). The +1 in the vocabulary term reserves
// probability mass for unseen keywords so that ATF is a proper
// distribution over V_A ∪ {unseen}.
func (ix *Index) ATF(term string, attr AttrRef, alpha float64) float64 {
	c := ix.col(attr)
	if c == nil {
		return 0
	}
	count, _ := c.post.Term(normalize(term))
	return (float64(count) + alpha) / (float64(c.post.Tokens()) + alpha*float64(c.vocab+1))
}

// IDF returns the inverse document frequency of term within attr,
// ln(1 + docs(A)/(df+1)), the selectivity factor of Section 2.2.4.
func (ix *Index) IDF(term string, attr AttrRef) float64 {
	c := ix.col(attr)
	if c == nil {
		return 0
	}
	_, df := c.post.Term(normalize(term))
	return math.Log(1 + float64(c.table.NumLive())/float64(df+1))
}

// MatchTables returns the tables whose name contains the term as a token
// (schema-term matching, Section 2.2.7).
func (ix *Index) MatchTables(term string) []string {
	out := ix.schemaTables[normalize(term)]
	cp := make([]string, len(out))
	copy(cp, out)
	sort.Strings(cp)
	return cp
}

// MatchColumns returns the attributes whose column name contains the term
// as a token.
func (ix *Index) MatchColumns(term string) []AttrRef {
	out := ix.schemaColumns[normalize(term)]
	cp := make([]AttrRef, len(out))
	copy(cp, out)
	sort.Slice(cp, func(i, j int) bool { return cp[i].String() < cp[j].String() })
	return cp
}

// CoOccurrence returns, for a bag of keywords, the number of tuples of attr
// whose value contains every keyword of the bag, and the number of tuples
// of attr overall. This feeds the joint probability
// P(A:[k1..kn] | A) of DivQ (Equation 4.2): when keywords co-occur in one
// attribute (e.g. first and last name in "name"), the joint probability
// exceeds the product of the marginals, so interpretations binding several
// keywords to the same attribute are promoted.
func (ix *Index) CoOccurrence(keywords []string, attr AttrRef) (matching, total int) {
	c := ix.col(attr)
	if c == nil {
		return 0, 0
	}
	total = c.table.NumLive()
	if len(keywords) == 0 {
		return 0, total
	}
	return len(c.table.SelectContains(attr.Column, keywords)), total
}

// PhrasePairScore estimates how strongly two keywords form a phrase
// (the query segmentation signal of Section 2.2.1): the maximum, over
// attributes containing both, of the fraction of the rarer keyword's
// occurrences that co-occur with the other in one attribute value.
// 1 means the keywords always appear together ("tom" "hanks"); 0 means
// they never share a value.
func (ix *Index) PhrasePairScore(k1, k2 string) float64 {
	a, b := normalize(k1), normalize(k2)
	if a == "" || b == "" || a == b {
		return 0
	}
	best := 0.0
	for _, p1 := range ix.Lookup(a) {
		df1 := p1.DocCount
		df2 := ix.DocCount(b, p1.Attr)
		if df1 == 0 || df2 == 0 {
			continue
		}
		co, _ := ix.CoOccurrence([]string{a, b}, p1.Attr)
		min := df1
		if df2 < min {
			min = df2
		}
		if s := float64(co) / float64(min); s > best {
			best = s
		}
	}
	return best
}

func normalize(term string) string {
	toks := relstore.Tokenize(term)
	if len(toks) == 0 {
		return ""
	}
	return toks[0]
}
