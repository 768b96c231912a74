// Package ranking provides the query-interpretation ranking functions
// compared in Section 3.8.3:
//
//   - the IQP probability ranking (prob.Model.RankContext, re-exported
//     here with the interaction-cost accounting of a ranked-list query
//     construction plan), and
//   - the SQAK baseline, reconstructed from the thesis's description: a
//     query interpretation is a graph whose score aggregates per-node and
//     per-edge scores; keyword-free nodes and edges carry unit costs;
//     keyword-bearing nodes carry a cost inversely related to their
//     Lucene-style TF-IDF score, so Steiner-tree minimisation prefers
//     shorter joins and distinctive (high-IDF) matches. SQAK ranks by
//     ascending total cost.
//
// The thesis observes (§3.8.3) that IQP's ATF prefers typical
// interpretations while SQAK's TF-IDF prefers distinctive ones, and that
// Steiner-tree minimisation fails on the Lyrics chain joins. Both
// behaviours fall out of this reconstruction.
package ranking

import (
	"math"
	"sort"

	"repro/internal/invindex"
	"repro/internal/prob"
	"repro/internal/query"
)

// SQAK is the baseline ranker.
type SQAK struct {
	ix *invindex.Index
}

// NewSQAK builds the baseline over an index.
func NewSQAK(ix *invindex.Index) *SQAK { return &SQAK{ix: ix} }

// Cost returns the SQAK cost of an interpretation: the sum of unit edge
// costs, unit free-node costs, and keyword-node costs 1/(1+tfidf). Lower
// cost means a better (higher-ranked) interpretation.
func (s *SQAK) Cost(q *query.Interpretation) float64 {
	if q.Template == nil {
		return math.Inf(1)
	}
	tree := q.Template.Tree
	cost := float64(len(tree.TreeEdges)) // unit edge scores
	// Group value bindings per occurrence.
	perOcc := make(map[int][]query.Binding)
	for _, b := range q.Bindings {
		if b.KI.Kind == query.KindValue {
			perOcc[b.Occ] = append(perOcc[b.Occ], b)
		}
	}
	for occ := 0; occ < tree.Size(); occ++ {
		bs := perOcc[occ]
		if len(bs) == 0 {
			cost++ // free node: unit score
			continue
		}
		cost += 1 / (1 + s.nodeTFIDF(bs))
	}
	return cost
}

// nodeTFIDF is the Lucene-style TF-IDF score of a node containing one or
// more keywords: the Boolean AND score — the sum over keywords of
// sqrt(tf) · idf² · lengthNorm, scaled by the coord factor (fraction of
// query keywords matched in the node). As in Lucene, tf is the per-field
// (per matching tuple) term frequency and idf is computed per field
// (attribute), so a keyword that is rare within an attribute is
// distinctive there — the behaviour that makes SQAK interpret "Garcia" as
// a movie title while ATF interprets it as the typical actor name
// (Section 3.8.3). Keywords absent from the node's attribute contribute
// nothing.
func (s *SQAK) nodeTFIDF(bindings []query.Binding) float64 {
	score := 0.0
	matched := 0
	for _, b := range bindings {
		count := float64(s.ix.TermCount(b.KI.Keyword, b.KI.Attr))
		docs := float64(s.ix.DocCount(b.KI.Keyword, b.KI.Attr))
		if count == 0 || docs == 0 {
			continue
		}
		matched++
		tf := count / docs // average per-document term frequency
		idf := s.ix.IDF(b.KI.Keyword, b.KI.Attr)
		norm := s.lengthNorm(b.KI.Attr)
		score += math.Sqrt(tf) * idf * idf * norm
	}
	if len(bindings) > 1 {
		score *= float64(matched) / float64(len(bindings)) // coord factor
	}
	return score
}

// lengthNorm is Lucene's 1/sqrt(avg field length) document-length
// normalisation, computed per attribute.
func (s *SQAK) lengthNorm(attr invindex.AttrRef) float64 {
	docs := s.ix.AttrDocs(attr)
	if docs == 0 {
		return 0
	}
	avg := float64(s.ix.AttrTokens(attr)) / float64(docs)
	if avg <= 0 {
		return 0
	}
	return 1 / math.Sqrt(avg)
}

// Ranked pairs an interpretation with its SQAK cost.
type Ranked struct {
	Q    *query.Interpretation
	Cost float64
}

// Rank sorts interpretations by ascending SQAK cost, breaking ties on the
// interpretation key (query.CompareKey) for determinism.
func (s *SQAK) Rank(space []*query.Interpretation) []Ranked {
	out := make([]Ranked, len(space))
	for i, q := range space {
		out[i] = Ranked{Q: q, Cost: s.Cost(q)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost < out[j].Cost
		}
		return query.CompareKey(out[i].Q, out[j].Q) < 0
	})
	return out
}

// RankOf returns the 1-based rank of the interpretation with the given key
// in a SQAK ranking, or 0 when absent. The rank is the interaction cost of
// a ranked-list query construction plan (Section 3.5.5): the user examines
// every interpretation prior to the intended one.
func RankOf(ranked []Ranked, key string) int {
	for i, r := range ranked {
		if r.Q.Key() == key {
			return i + 1
		}
	}
	return 0
}

// ProbRankOf is the IQP counterpart of RankOf over a probability ranking.
func ProbRankOf(ranked []prob.Scored, key string) int {
	for i, r := range ranked {
		if r.Q.Key() == key {
			return i + 1
		}
	}
	return 0
}
