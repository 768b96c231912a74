// Package invindex implements the inverted index over the textual content
// of a relational database (Section 2.2.1, Figure 2.1) together with the
// term statistics consumed by the probabilistic interpretation model
// (Section 3.6.2) and by the TF-IDF baselines (Section 2.2.4):
//
//   - attribute-granularity postings: term → {table.column} with counts,
//   - tuple-granularity postings: term → {table.column.row},
//   - per-attribute unigram statistics: term frequency, vocabulary size,
//     total token count (for ATF, Equation 3.8),
//   - document frequency / inverse document frequency per attribute, where
//     a "document" is one attribute value of one tuple,
//   - pairwise co-occurrence counts used by DivQ's co-occurrence-aware
//     relevance model (Equation 4.2), and
//   - schema-term matching (keywords against table and column names).
//
// The index is built once from a relstore.Database in a pre-processing step
// and is immutable afterwards, mirroring the offline index-construction
// phase of the thesis systems; row mutations derive a successor index
// copy-on-write (apply.go).
package invindex

import (
	"math"
	"sort"

	"repro/internal/cow"
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
	// Rows lists the RowIDs of the tuples containing the term, ascending.
	Rows []int

	// rowsTail lets Apply append to Rows in place (relstore.InsertRow);
	// nil until Apply first copies Rows.
	rowsTail *relstore.Tail
}

// attrStats aggregates the unigram statistics of one attribute.
type attrStats struct {
	totalTokens int
	vocabulary  int
	docs        int // number of tuples (attribute values)
	// terms holds every term of the attribute with its occurrence and
	// document counts; absent terms have both counts zero.
	terms *cow.Map[termFreq]
}

// termFreq is one term's statistics within one attribute.
type termFreq struct {
	count int // occurrences across all values
	docs  int // values containing the term at least once
}

// Index is an immutable inverted index over a database.
type Index struct {
	db *relstore.Database

	// postings: term -> attr key -> posting (attr key = "table.column").
	postings *cow.Map[map[string]*Posting]
	attrs    []AttrRef       // all indexed attributes, stable order
	attrPos  map[AttrRef]int // attribute -> position in attrs; shared by every version
	stats    []*attrStats    // parallel to attrs

	// schemaTerms: token -> schema elements whose name contains the token.
	schemaTables  map[string][]string
	schemaColumns map[string][]AttrRef

	// dict is the sorted dictionary of every distinct indexed term (the
	// postings key set), kept so prefix lookups never re-scan the data.
	dict dictionary

	totalDocs int
}

// newIndex returns an index over db with no terms, its attribute list
// and schema-term match tables derived from the schema in Build's
// table/column order.
func newIndex(db *relstore.Database) *Index {
	ix := &Index{
		db:            db,
		postings:      cow.New[map[string]*Posting](),
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
			ix.attrs = append(ix.attrs, attr)
			ix.stats = append(ix.stats, &attrStats{terms: cow.New[termFreq]()})
			for _, tok := range relstore.Tokenize(col.Name) {
				ix.schemaColumns[tok] = append(ix.schemaColumns[tok], attr)
			}
		}
	}
	return ix
}

// Build constructs the inverted index over every indexed (textual) column
// of every table in the database.
func Build(db *relstore.Database) *Index {
	ix := newIndex(db)
	for i, attr := range ix.attrs {
		t := db.Table(attr.Table)
		ci := t.Schema.ColumnIndex(attr.Column)
		key := attr.String()
		st := ix.stats[i]
		for id, row := range t.Rows() {
			toks := relstore.Tokenize(row.Values[ci])
			st.totalTokens += len(toks)
			st.docs++
			seen := make(map[string]bool, len(toks))
			for _, tok := range toks {
				first := !seen[tok]
				seen[tok] = true
				sh := st.terms.Edit(tok)
				f := sh[tok]
				f.count++
				if first {
					f.docs++
				}
				sh[tok] = f
				pmap := ix.postings.Get(tok)
				if pmap == nil {
					pmap = make(map[string]*Posting)
					ix.postings.Edit(tok)[tok] = pmap
				}
				p := pmap[key]
				if p == nil {
					p = &Posting{Attr: attr}
					pmap[key] = p
				}
				p.Count++
				if first {
					p.DocCount++
					p.Rows = append(p.Rows, id)
				}
			}
			ix.totalDocs++
		}
		st.vocabulary = st.terms.Len()
	}
	terms := make([]string, 0, ix.postings.Len())
	for term := range ix.postings.All() {
		terms = append(terms, term)
	}
	sort.Strings(terms)
	ix.dict = newDictionary(terms)
	return ix
}

// statsOf returns the attribute's statistics, or nil when it is not an
// indexed attribute.
func (ix *Index) statsOf(attr AttrRef) *attrStats {
	if i, ok := ix.attrPos[attr]; ok {
		return ix.stats[i]
	}
	return nil
}

// Database returns the database the index was built over.
func (ix *Index) Database() *relstore.Database { return ix.db }

// Attributes returns every indexed attribute in a stable order.
func (ix *Index) Attributes() []AttrRef {
	out := make([]AttrRef, len(ix.attrs))
	copy(out, ix.attrs)
	return out
}

// Lookup returns the postings of a term across all attributes, sorted by
// attribute key for determinism. The term is lower-cased before lookup.
func (ix *Index) Lookup(term string) []Posting {
	pmap := ix.postings.Get(normalize(term))
	if pmap == nil {
		return nil
	}
	keys := make([]string, 0, len(pmap))
	for k := range pmap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Posting, 0, len(keys))
	for _, k := range keys {
		p := pmap[k]
		out = append(out, Posting{Attr: p.Attr, Count: p.Count, DocCount: p.DocCount, Rows: p.Rows})
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

// NumTerms returns the size of the term dictionary.
func (ix *Index) NumTerms() int { return ix.dict.n }

// Contains reports whether the term occurs anywhere in the database.
func (ix *Index) Contains(term string) bool {
	_, ok := ix.postings.Lookup(normalize(term))
	return ok
}

// TermCount returns the raw number of occurrences of term in attr.
func (ix *Index) TermCount(term string, attr AttrRef) int {
	st := ix.statsOf(attr)
	if st == nil {
		return 0
	}
	return st.terms.Get(normalize(term)).count
}

// DocCount returns the number of tuples of attr whose value contains term.
func (ix *Index) DocCount(term string, attr AttrRef) int {
	st := ix.statsOf(attr)
	if st == nil {
		return 0
	}
	return st.terms.Get(normalize(term)).docs
}

// AttrTokens returns the total number of tokens stored in attr.
func (ix *Index) AttrTokens(attr AttrRef) int {
	st := ix.statsOf(attr)
	if st == nil {
		return 0
	}
	return st.totalTokens
}

// AttrVocabulary returns the number of distinct terms stored in attr.
func (ix *Index) AttrVocabulary(attr AttrRef) int {
	st := ix.statsOf(attr)
	if st == nil {
		return 0
	}
	return st.vocabulary
}

// AttrDocs returns the number of tuples (attribute values) of attr.
func (ix *Index) AttrDocs(attr AttrRef) int {
	st := ix.statsOf(attr)
	if st == nil {
		return 0
	}
	return st.docs
}

// TotalDocs returns the total number of attribute values indexed.
func (ix *Index) TotalDocs() int { return ix.totalDocs }

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
	st := ix.statsOf(attr)
	if st == nil {
		return 0
	}
	c := float64(st.terms.Get(normalize(term)).count)
	return (c + alpha) / (float64(st.totalTokens) + alpha*float64(st.vocabulary+1))
}

// TF returns the normalised term frequency count(k,A)/tokens(A).
func (ix *Index) TF(term string, attr AttrRef) float64 {
	st := ix.statsOf(attr)
	if st == nil || st.totalTokens == 0 {
		return 0
	}
	return float64(st.terms.Get(normalize(term)).count) / float64(st.totalTokens)
}

// IDF returns the inverse document frequency of term within attr,
// ln(1 + docs(A)/(df+1)), the selectivity factor of Section 2.2.4.
func (ix *Index) IDF(term string, attr AttrRef) float64 {
	st := ix.statsOf(attr)
	if st == nil {
		return 0
	}
	df := st.terms.Get(normalize(term)).docs
	return math.Log(1 + float64(st.docs)/float64(df+1))
}

// GlobalIDF returns an IDF over all indexed attribute values, used by the
// Lucene-style SQAK baseline: 1 + ln(N/(df+1)).
func (ix *Index) GlobalIDF(term string) float64 {
	df := 0
	for _, p := range ix.postings.Get(normalize(term)) {
		df += p.DocCount
	}
	return 1 + math.Log(float64(ix.totalDocs+1)/float64(df+1))
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
	st := ix.statsOf(attr)
	if st == nil {
		return 0, 0
	}
	total = st.docs
	if len(keywords) == 0 {
		return 0, total
	}
	t := ix.db.Table(attr.Table)
	if t == nil {
		return 0, total
	}
	matching = len(t.SelectContains(attr.Column, keywords))
	return matching, total
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
