// Package prob implements the probabilistic query interpretation model of
// Section 3.6: the decomposition of P(Q|K) into a template prior P(T) and
// per-keyword interpretation probabilities P(Ai:ki | T∩Ai) under the
// keyword-independence assumptions 3.6.1/3.6.2 (Equation 3.5), estimated
// from the Attribute Term Frequency statistic (Equation 3.8) and,
// optionally, from a query log (Equation 3.7).
//
// It also implements the DivQ refinement of Equation 4.2: keyword
// co-occurrence within one attribute raises the joint probability above
// the product of the marginals (binding a first and last name to the same
// "name" attribute beats splitting them), and unmapped keywords of partial
// interpretations are charged the smoothing factor Pu.
package prob

import (
	"context"
	"math"
	"slices"

	"repro/internal/invindex"
	"repro/internal/query"
)

// Config tunes the model.
type Config struct {
	// Alpha is the ATF smoothing parameter of Equation 3.8 (default 1).
	Alpha float64
	// UseTemplateLog enables the query-log template prior of Equation 3.7;
	// without it all templates are equally probable.
	UseTemplateLog bool
	// UseCoOccurrence enables DivQ's joint co-occurrence probability for
	// keyword groups bound to the same attribute of the same occurrence
	// (Equation 4.2).
	UseCoOccurrence bool
	// Deprecated: ignored. Scoring is sequential; the field remains only
	// so existing callers keep compiling.
	Parallelism int
	// DisableScoreCache turns off the per-Model memoised cache of
	// (template, keyword-interpretation) sub-term probabilities. The cache
	// is on by default: sub-terms are pure functions of the immutable index,
	// so memoisation never changes a score.
	DisableScoreCache bool
}

// schemaTermProb is the empirical probability of a schema-term
// interpretation (a table, attribute or aggregate name match): the
// "empirical values set by domain experts" of Section 3.6.2.
const schemaTermProb = 0.5

// Model scores query interpretations. A Model is safe for concurrent use,
// because every concurrent request on a snapshot shares its model: its
// inputs are immutable and its memoised sub-term cache is synchronised.
// A model's cache is its own: a snapshot's successor starts cold.
type Model struct {
	ix  *invindex.Index
	cat *query.Catalog
	cfg Config
	// pu is the probability that an unmapped keyword's intended
	// interpretation matches no database attribute (Equation 4.2). It
	// stays below the minimum probability of any existing keyword
	// interpretation, so complete interpretations outrank partial ones.
	pu    float64
	cache *scoreCache // nil when Config.DisableScoreCache
}

// New builds a model over an index and a template catalogue.
func New(ix *invindex.Index, cat *query.Catalog, cfg Config) *Model {
	if cfg.Alpha <= 0 {
		cfg.Alpha = 1
	}
	// Below any smoothed ATF: the reserved-unseen mass of the largest
	// attribute is ~alpha/(tokens+alpha*(V+1)); divide once more.
	maxTokens := 1
	for _, a := range ix.Attributes() {
		if n := ix.AttrTokens(a); n > maxTokens {
			maxTokens = n
		}
	}
	pu := cfg.Alpha / (float64(maxTokens) * 10)
	if pu >= 1 {
		pu = 0.01
	}
	m := &Model{ix: ix, cat: cat, cfg: cfg, pu: pu}
	if !cfg.DisableScoreCache {
		m.cache = newScoreCache(ix.Attributes())
	}
	return m
}

// Index exposes the underlying inverted index.
func (m *Model) Index() *invindex.Index { return m.ix }

// Catalog exposes the template catalogue.
func (m *Model) Catalog() *query.Catalog { return m.cat }

// TemplatePrior returns P(T) per Equation 3.7. With no query log (or when
// the log is disabled) every template is equally probable. The prior is
// memoised per Model, so catalogue usage counts must be recorded before
// the Model is created (or the cache disabled) to be reflected.
func (m *Model) TemplatePrior(tpl *query.Template) float64 {
	if m.cache != nil {
		return m.cache.templatePrior(tpl.ID, func() float64 { return m.templatePrior(tpl) })
	}
	return m.templatePrior(tpl)
}

func (m *Model) templatePrior(tpl *query.Template) float64 {
	n := len(m.cat.Templates)
	if n == 0 {
		return 0
	}
	if !m.cfg.UseTemplateLog || m.cat.UsageCount == nil {
		return 1 / float64(n)
	}
	total := float64(m.cat.TotalUsage())
	occ := float64(m.cat.UsageCount[tpl.ID])
	return (occ + m.cfg.Alpha) / (total + m.cfg.Alpha*float64(n))
}

// KeywordProb returns P(Ai:ki | T∩Ai) for a single keyword interpretation:
// ATF for value interpretations (Equation 3.8) and the empirical schema
// term probability for table/attribute-name interpretations.
func (m *Model) KeywordProb(ki query.KeywordInterpretation) float64 {
	if m.cache != nil {
		return m.cache.keywordProb(ki, func() float64 { return m.keywordProb(ki) })
	}
	return m.keywordProb(ki)
}

func (m *Model) keywordProb(ki query.KeywordInterpretation) float64 {
	switch ki.Kind {
	case query.KindValue:
		return m.ix.ATF(ki.Keyword, ki.Attr, m.cfg.Alpha)
	default:
		return schemaTermProb
	}
}

// jointValueProb returns the DivQ joint probability P(A:[k1..kn] | A) of a
// keyword group bound to the same attribute of the same occurrence: the
// smoothed fraction of the attribute's values containing the whole bag.
// For a single keyword it reduces to ATF so the IQP and DivQ models agree
// on singletons. The multi-keyword case intersects the keywords' posting
// lists in the attribute (invindex.Index.CoOccurrence), which makes it
// the most expensive sub-term — and the one the memoised cache pays off
// most for.
func (m *Model) jointValueProb(keywords []string, attr invindex.AttrRef) float64 {
	if m.cache != nil {
		return m.cache.jointProb(keywords, attr, func() float64 { return m.jointValueProbUncached(keywords, attr) })
	}
	return m.jointValueProbUncached(keywords, attr)
}

func (m *Model) jointValueProbUncached(keywords []string, attr invindex.AttrRef) float64 {
	if len(keywords) == 1 {
		return m.ix.ATF(keywords[0], attr, m.cfg.Alpha)
	}
	match, total := m.ix.CoOccurrence(keywords, attr)
	vocab := float64(m.ix.AttrVocabulary(attr))
	return (float64(match) + m.cfg.Alpha) / (float64(total) + m.cfg.Alpha*(vocab+1))
}

// Score returns the unnormalised probability of a (partial or complete)
// interpretation per Equations 3.5/3.6 (and 4.2 when co-occurrence is
// enabled): the product of keyword interpretation probabilities times the
// template prior, with unmapped keywords charged Pu.
func (m *Model) Score(q *query.Interpretation) float64 {
	score := 1.0
	if q.Template != nil {
		score *= m.TemplatePrior(q.Template)
	}
	if m.cfg.UseCoOccurrence {
		score *= m.groupedValueProb(q)
	} else {
		for _, b := range q.Bindings {
			if b.KI.Kind == query.KindValue {
				score *= m.KeywordProb(*b.KI)
			}
		}
	}
	for _, b := range q.Bindings {
		if b.KI.Kind != query.KindValue {
			score *= m.KeywordProb(*b.KI)
		}
	}
	// Unmapped keywords (partial interpretations): factor Pu each (Eq 4.2).
	unmapped := len(q.Keywords) - len(q.Bindings)
	for i := 0; i < unmapped; i++ {
		score *= m.pu
	}
	return score
}

// groupedValueProb multiplies the joint probabilities of value-binding
// groups per (occurrence, attribute), in the order each group's first
// binding appears, each group's keywords in binding order. Groups are
// found by linear scan in stack arrays: an interpretation binds at most a
// handful of keywords, so no map is needed.
func (m *Model) groupedValueProb(q *query.Interpretation) float64 {
	type slot struct {
		occ  int
		attr invindex.AttrRef
	}
	var slotBuf [8]slot
	slots := slotBuf[:0]
	for _, b := range q.Bindings {
		if b.KI.Kind != query.KindValue {
			continue
		}
		if s := (slot{occ: b.Occ, attr: b.KI.Attr}); !slices.Contains(slots, s) {
			slots = append(slots, s)
		}
	}
	var kwBuf [8]string
	p := 1.0
	for _, s := range slots {
		kws := kwBuf[:0]
		for _, b := range q.Bindings {
			if b.KI.Kind == query.KindValue && b.Occ == s.occ && b.KI.Attr == s.attr {
				kws = append(kws, b.KI.Keyword)
			}
		}
		p *= m.jointValueProb(kws, s.attr)
	}
	return p
}

// Scored pairs an interpretation with its score and (after normalisation
// over a concrete candidate set) its probability.
type Scored struct {
	Q     *query.Interpretation
	Score float64
	// Prob is Score normalised over every interpretation ranked by
	// RankContext or added to a TopK, whether or not it was kept: P(Q|K)
	// over that interpretation space.
	Prob float64
}

// rankCheckEvery is the scoring-loop stride between context checks.
const rankCheckEvery = 256

// RankContext scores and sorts interpretations by descending
// probability, normalising scores into a distribution over the given
// space. Ties break deterministically in interpretation key order
// (query.CompareKey). The
// context is checked on entry and every rankCheckEvery scored
// interpretations, so ranking a large interpretation space aborts early
// on a cancelled or expired request. The normalising total is summed in
// input order. Every score is Score's, bit for bit, but each of its
// factors is read once per call (see factors).
func (m *Model) RankContext(ctx context.Context, space []*query.Interpretation) ([]Scored, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]Scored, len(space))
	f := newFactors(m)
	defer f.release()
	total := 0.0
	for i, q := range space {
		if i%rankCheckEvery == rankCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		out[i] = Scored{Q: q, Score: f.score(q)}
		total += out[i].Score
	}
	if total > 0 {
		for i := range out {
			out[i].Prob = out[i].Score / total
		}
	}
	slices.SortFunc(out, compareScored)
	return out, nil
}

// compareScored orders ranked interpretations: descending score, ties in
// interpretation key order.
func compareScored(a, b Scored) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return query.CompareKey(a.Q, b.Q)
}

// Entropy returns the Shannon entropy (bits) of a normalised probability
// vector; zero-probability entries contribute nothing.
func Entropy(probs []float64) float64 {
	h := 0.0
	for _, p := range probs {
		if p > 0 {
			h -= p * math.Log2(p)
		}
	}
	return h
}

// NormalizedEntropy normalises arbitrary non-negative weights into a
// distribution and returns its entropy. Used to select ambiguous queries
// in the DivQ evaluation (Section 4.6.1).
func NormalizedEntropy(weights []float64) float64 {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return 0
	}
	probs := make([]float64, len(weights))
	for i, w := range weights {
		probs[i] = w / total
	}
	return Entropy(probs)
}
