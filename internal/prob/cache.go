package prob

import (
	"sync"

	"repro/internal/invindex"
	"repro/internal/query"
)

// scoreCache memoises the pure sub-terms of interpretation scores for one
// model, partitioned by what an entry depends on:
//
//   - the template prior P(T) depends only on the catalogue — one map;
//   - the value probability P(Ai:ki | T∩Ai) and the DivQ joint
//     co-occurrence probability P(A:[k1..kn] | A) are functions of one
//     attribute's statistics — one sub-cache per attribute.
//
// Table-, column- and aggregate-name interpretations score the
// schemaTermProb constant and are not memoised at all. Entries are
// write-once and read many times, concurrently, which is what sync.Map
// is for; the attribute set is fixed by the schema, so attrs itself is
// read-only after construction. Every model builds its own cache, so no
// entry outlives the snapshot whose statistics it was computed from.
//
// Value probabilities are keyed on the keyword alone within their
// attribute, not the positional ki.Key(): the probability of "hanks" ∈
// actor.name is independent of the keyword's position in the query, so
// repeats across positions and across requests share one entry.
type scoreCache struct {
	prior sync.Map // template ID (int) -> float64
	attrs map[invindex.AttrRef]*attrScores
}

// attrScores is the sub-cache of one attribute.
type attrScores struct {
	kw    sync.Map // keyword -> float64
	joint sync.Map // keyword bag in binding order, NUL-joined -> float64
}

func newScoreCache(attrs []invindex.AttrRef) *scoreCache {
	c := &scoreCache{attrs: make(map[invindex.AttrRef]*attrScores, len(attrs))}
	for _, a := range attrs {
		c.attrs[a] = new(attrScores)
	}
	return c
}

// templatePrior returns the cached prior, computing and storing it on the
// first request for the template.
func (c *scoreCache) templatePrior(id int, compute func() float64) float64 {
	if v, ok := c.prior.Load(id); ok {
		return v.(float64)
	}
	p := compute()
	c.prior.Store(id, p)
	return p
}

// keywordProb returns the cached keyword sub-term probability.
func (c *scoreCache) keywordProb(ki query.KeywordInterpretation, compute func() float64) float64 {
	if ki.Kind != query.KindValue {
		return compute()
	}
	scores := c.attrs[ki.Attr]
	if scores == nil {
		return compute()
	}
	if v, ok := scores.kw.Load(ki.Keyword); ok {
		return v.(float64)
	}
	p := compute()
	scores.kw.Store(ki.Keyword, p)
	return p
}

// jointProb returns the cached joint value probability.
func (c *scoreCache) jointProb(keywords []string, attr invindex.AttrRef, compute func() float64) float64 {
	scores := c.attrs[attr]
	if scores == nil {
		return compute()
	}
	// The lookup key is joined in a stack buffer; only a stored entry
	// copies it into a string of its own.
	var buf [64]byte
	k := buf[:0]
	for i, kw := range keywords {
		if i > 0 {
			k = append(k, 0)
		}
		k = append(k, kw...)
	}
	if v, ok := scores.joint.Load(string(k)); ok {
		return v.(float64)
	}
	p := compute()
	scores.joint.Store(string(k), p)
	return p
}
